"""Seeded word generation: determinism, caps, and the family guardrail."""

import hashlib

import pytest
from hypothesis import example, given, settings, strategies as st

from braidvol.errors import BraidSyntaxError, PreconditionError
from braidvol.families import check_main_lemma
from braidvol.report import analyze, verify
from braidvol.states import is_prime_closure
from braidvol.generate import (
    MAX_COUNT,
    MAX_WIDE_SYLLABLES,
    GeneratorSpec,
    _has_unthreaded_bridge,
    generate_words,
)
from braidvol.words import MAX_STRANDS, MAX_WORD_LETTERS, parse_braid


def test_same_spec_same_words():
    spec = GeneratorSpec(n=4, syllable_count=10, seed=42, count=5)
    assert generate_words(spec) == generate_words(spec)


def test_seed_pins():
    w = generate_words(GeneratorSpec(n=3, syllable_count=4, seed=7))[0]
    assert w.syllables == ((1, -7), (2, 1), (1, -5), (2, 1))
    w = generate_words(GeneratorSpec(n=4, syllable_count=9, seed=11))[0]
    assert w.syllables == (
        (1, -6), (2, -7), (3, -7), (1, -4), (2, -4),
        (3, 2), (2, -3), (3, -6), (2, -4),
    )


def test_seed_pins_wide_and_long_words():
    # every word of 200 syllables at n = 3 to 32, digested in one line each
    digest = hashlib.sha256()
    for n in (3, 4, 5, 8, 16, 32):
        for seed in (1, 2, 3):
            spec = GeneratorSpec(n=n, syllable_count=200, seed=seed, count=2)
            for word in generate_words(spec):
                digest.update(word.as_text().encode() + b"\n")
    assert digest.hexdigest() == (
        "dfdf0e8111c39c967e601419a09a4bcabc4fefdf331fe751ecd00e851e848030"
    )


def test_count_and_shape():
    words = generate_words(GeneratorSpec(n=5, syllable_count=13, seed=3, count=4))
    assert len(words) == 4
    for w in words:
        assert w.n == 5
        assert len(w.syllables) == 13


def test_different_seeds_differ():
    a = generate_words(GeneratorSpec(n=4, syllable_count=8, seed=0))[0]
    b = generate_words(GeneratorSpec(n=4, syllable_count=8, seed=1))[0]
    assert a != b


def test_infeasible_specs_rejected():
    with pytest.raises(PreconditionError):
        GeneratorSpec(n=3, syllable_count=5, seed=0)  # odd alternating word
    with pytest.raises(PreconditionError):
        GeneratorSpec(n=5, syllable_count=7, seed=0)  # below 2(n-1)
    with pytest.raises(PreconditionError):
        GeneratorSpec(n=2, syllable_count=4, seed=0)
    with pytest.raises(PreconditionError):
        GeneratorSpec(n=3, syllable_count=4, negative_cap=2)
    with pytest.raises(PreconditionError):
        GeneratorSpec(n=3, syllable_count=4, positive_cap=0)
    with pytest.raises(PreconditionError):
        GeneratorSpec(n=3, syllable_count=4, count=0)
    # upper limits, refused before any word is built
    with pytest.raises(PreconditionError, match="limit"):
        GeneratorSpec(n=MAX_STRANDS + 1, syllable_count=2 * MAX_STRANDS)
    with pytest.raises(PreconditionError, match="limit"):
        GeneratorSpec(n=3, syllable_count=MAX_WORD_LETTERS // 8 + 2)
    with pytest.raises(PreconditionError, match="limit"):
        GeneratorSpec(n=3, syllable_count=4, negative_cap=MAX_WORD_LETTERS)
    with pytest.raises(PreconditionError, match="limit"):
        GeneratorSpec(n=3, syllable_count=4, positive_cap=MAX_WORD_LETTERS)
    with pytest.raises(PreconditionError, match="limit"):
        GeneratorSpec(n=3, syllable_count=4, count=MAX_COUNT + 1)
    # for n >= 4 a syllable costs up to about three times as much as at
    # n = 3, so the syllables of a whole spec are capped; n = 3 is uncapped
    wide = f"limit of {MAX_WIDE_SYLLABLES} for n >= 4"
    over = MAX_WIDE_SYLLABLES // 2_000 + 1
    with pytest.raises(PreconditionError, match=wide):
        GeneratorSpec(n=4, syllable_count=2_000, negative_cap=5, count=over)
    with pytest.raises(PreconditionError, match=wide):
        GeneratorSpec(
            n=MAX_STRANDS, syllable_count=2_000, negative_cap=5, count=over
        )
    GeneratorSpec(n=3, syllable_count=2_000, negative_cap=5, count=over)
    # the largest accepted n >= 4 spec is built but not generated here (it
    # takes about 1 s at 32 strands); one word of it generates at once
    GeneratorSpec(
        n=MAX_STRANDS, syllable_count=2_000, negative_cap=5, count=over - 1
    )
    (word,) = generate_words(
        GeneratorSpec(n=MAX_STRANDS, syllable_count=2_000, negative_cap=5)
    )
    assert len(word.syllables) == 2_000
    # the largest spec inside the limits still generates parseable words
    spec = GeneratorSpec(
        n=3, syllable_count=MAX_WORD_LETTERS // 8, negative_cap=8, seed=3
    )
    (word,) = generate_words(spec)
    assert parse_braid(word.as_text(), 3).letters == word.letters


@pytest.mark.parametrize(
    "field", ["n", "syllable_count", "negative_cap", "positive_cap", "seed", "count"]
)
def test_spec_fields_must_be_whole_numbers(field):
    fields = dict(
        n=4, syllable_count=10, negative_cap=5, positive_cap=2, seed=3, count=2
    )
    for bad in (fields[field] + 0.5, str(fields[field]), None):
        with pytest.raises(BraidSyntaxError, match="is not an integer"):
            GeneratorSpec(**{**fields, field: bad})
    # a whole float is stored as an int, as a bool is below
    spec = GeneratorSpec(**{**fields, field: float(fields[field])})
    assert type(getattr(spec, field)) is int
    assert spec == GeneratorSpec(**fields)


def test_spec_takes_bools_as_ints():
    spec = GeneratorSpec(
        n=3, syllable_count=4, positive_cap=True, seed=True, count=True
    )
    assert spec == (3, 4, 8, 1, 1, 1)
    assert all(type(v) is int for v in (spec.positive_cap, spec.seed, spec.count))


@pytest.mark.parametrize("seed", [None, [1], 1.5])
def test_spec_refuses_a_seed_that_is_not_a_whole_number(seed):
    # unchecked, None would draw a fresh word at every call and [1] would
    # fail later, in random.Random, with a bare TypeError
    with pytest.raises(BraidSyntaxError) as refused:
        GeneratorSpec(n=4, syllable_count=10, seed=seed)
    assert str(refused.value) == f"seed {seed!r} is not an integer"


def test_spec_strand_limit_uses_the_parse_message():
    with pytest.raises(PreconditionError) as parsed:
        parse_braid("s1", MAX_STRANDS + 1)
    with pytest.raises(PreconditionError) as built:
        GeneratorSpec(n=MAX_STRANDS + 1, syllable_count=2 * MAX_STRANDS)
    assert str(built.value) == str(parsed.value)


def bridge_by_walks(word):
    """The bridge rule as two walks from every negative syllable, one each
    way round the word, as ``_has_unthreaded_bridge`` checked it before it
    became one pass: kept as the reference."""

    def scan(start, step):
        g = word[start][0]
        t = len(word)
        threaded = False
        for offset in range(1, t + 1):
            h, r = word[(start + step * offset) % t]
            if r > 0:
                threaded = threaded or h in (g - 1, g, g + 1)
                continue
            if h == g:
                return not threaded
            if h in (g - 1, g + 1):
                return False
        return False

    return any(
        r < 0 and (scan(i, +1) or scan(i, -1)) for i, (_, r) in enumerate(word)
    )


@st.composite
def bridge_words(draw):
    """Syllable sequences of 0 to 60 syllables on 2 to 32 strands: runs on
    any generator, far-commuting ones among them, and syllables of either
    sign on a drawn g and its neighbors g-1 and g+1."""
    n = draw(st.integers(min_value=2, max_value=32))
    g = draw(st.integers(min_value=1, max_value=n - 1))
    near = [h for h in (g - 1, g, g + 1) if 1 <= h < n]
    exponent = st.one_of(
        st.integers(min_value=-5, max_value=-3),
        st.integers(min_value=-5, max_value=5).filter(lambda r: r != 0),
    )
    generator = st.one_of(
        st.integers(min_value=1, max_value=n - 1), st.sampled_from(near)
    )
    return draw(st.lists(st.tuples(generator, exponent), max_size=60))


@given(bridge_words())
@example([])
@example([(5, -3), (1, 2), (9, -4), (3, 1), (5, -3)])
@example([(2, -3), (1, 1), (2, -3), (2, 2), (2, -3), (3, 1)])
@settings(max_examples=1_000)
def test_bridge_check_matches_the_walks(word):
    assert _has_unthreaded_bridge(word) == bridge_by_walks(word)


def test_bridge_examples():
    # a lone negative syllable's walk comes back to itself
    assert _has_unthreaded_bridge(parse_braid("s1^-3", 2).syllables)
    # the two sigma_1 face each other across the far-commuting sigma_3
    word = parse_braid("s1^-3 s3^-3 s1^-3 s2^-3", 4).syllables
    assert _has_unthreaded_bridge(word)
    # the positive sigma_2 threads the two sigma_1, the negative one caps
    # the seam
    word = parse_braid("s1^-3 s3^-3 s2 s1^-3 s2^-3", 4).syllables
    assert not _has_unthreaded_bridge(word)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(3, 8),
    st.integers(0, 4),
    st.integers(0, 10_000),
    st.integers(3, 6),
    st.integers(1, 4),
)
def test_generated_words_keep_every_promise(n, extra, seed, neg_cap, pos_cap):
    count = 2 * (n - 1) + 2 * extra
    spec = GeneratorSpec(
        n=n,
        syllable_count=count,
        seed=seed,
        negative_cap=neg_cap,
        positive_cap=pos_cap,
    )
    for w in generate_words(spec):
        assert w.n == n
        assert len(w.syllables) == count
        for g, r in w.syllables:
            assert 1 <= g < n
            assert r != 0
            if r < 0:
                assert -neg_cap <= r <= -3
            else:
                assert 1 <= r <= pos_cap
        assert check_main_lemma(w).passed
        assert not _has_unthreaded_bridge(w.syllables)


@pytest.mark.parametrize("n", range(3, 33))
def test_generated_words_are_prime(n):
    # the two base sweeps give every pair of neighbouring generators four
    # changes, and an insertion never removes a change
    for extra in (0, 1, 5, 20):
        spec = GeneratorSpec(
            n=n, syllable_count=2 * (n - 1 + extra), seed=n + extra, count=20
        )
        for w in generate_words(spec):
            assert is_prime_closure(w), w.as_text()


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_interior_positives_are_generated_and_verified(n):
    # an interior positive is the only word shape that reaches clause 2b of
    # the gate, the t+ <= medium <= 2t+ census range of verify and the
    # refusal of the beta'-form bounds; verify runs the bracket oracle on
    # the words of at most 100 crossings
    interior = 0
    for syllables in (20, 40):
        for seed in range(100):
            spec = GeneratorSpec(n=n, syllable_count=syllables, seed=seed)
            (word,) = generate_words(spec)
            if not any(r > 0 and 1 < g < n - 1 for g, r in word.syllables):
                continue
            interior += 1
            assert verify(word).passed, word.as_text()
            assert analyze(word)["jones_bounds"] is None
    assert interior >= 20  # at least one word in ten


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_three_strand_words_alternate_generators(seed):
    w = generate_words(GeneratorSpec(n=3, syllable_count=8, seed=seed))[0]
    gens = [g for g, _ in w.syllables]
    for i in range(8):
        assert gens[i] != gens[(i + 1) % 8]


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
