"""Seeded word generation: determinism, caps, and the family guardrail."""

import pytest
from hypothesis import given, settings, strategies as st

from braidvol.errors import PreconditionError
from braidvol.families import check_main_lemma
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
        (2, -3), (1, -6), (2, -7), (3, -7), (2, -7),
        (3, -6), (1, -6), (2, -7), (3, -7),
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
    # for n >= 4 a word costs about the square of its syllable count, so the
    # syllables of a whole spec are capped; n = 3 is linear and uncapped
    with pytest.raises(PreconditionError, match="limit"):
        GeneratorSpec(n=4, syllable_count=MAX_WIDE_SYLLABLES // 2, count=3)
    with pytest.raises(PreconditionError, match="limit"):
        GeneratorSpec(
            n=MAX_STRANDS, syllable_count=MAX_WIDE_SYLLABLES + 1, negative_cap=4
        )
    GeneratorSpec(n=3, syllable_count=MAX_WIDE_SYLLABLES, negative_cap=4, count=2)
    # the largest accepted n >= 4 spec is built but not generated here: one
    # word at 32 strands takes about 45 s
    GeneratorSpec(n=MAX_STRANDS, syllable_count=MAX_WIDE_SYLLABLES, negative_cap=5)
    # the largest spec inside the limits still generates parseable words
    spec = GeneratorSpec(
        n=3, syllable_count=MAX_WORD_LETTERS // 8, negative_cap=8, seed=3
    )
    (word,) = generate_words(spec)
    assert parse_braid(word.as_text(), 3).letters == word.letters


@settings(max_examples=80, deadline=None)
@given(
    st.integers(3, 6),
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


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_three_strand_words_alternate_generators(seed):
    w = generate_words(GeneratorSpec(n=3, syllable_count=8, seed=seed))[0]
    gens = [g for g, _ in w.syllables]
    for i in range(8):
        assert gens[i] != gens[(i + 1) % 8]


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
