"""Membership predicates for the two braid families.

check_main_lemma evaluates, cyclically: every negative exponent at most -3;
positive syllables flanked by long-enough negative syllables in the adjacent
columns (three clauses by generator position); the two-complete-windows shape;
and a twist-count floor of 2(n-1).  stoimenow_A_adequate_3braid decides
A-adequacy for 3-braids from the syllable pattern alone.

The gate runs as one loop over the syllables; the per-syllable closure gate
it replaced is kept below as a reference (:func:`gate_by_closures`), and
both must give the same report.
"""

import itertools
import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from braidvol.errors import PreconditionError
from braidvol.families import (
    Cond2Failure,
    MainLemmaReport,
    check_main_lemma,
    stoimenow_A_adequate_3braid,
)
from braidvol.generate import GeneratorSpec, _has_unthreaded_bridge, generate_words
from braidvol.report import analyze, main_lemma_block, verify
from braidvol.schreier import _direct_form, schreier_normal_form
from braidvol.states import (
    is_A_adequate,
    is_connected_closure,
    resolve_all_A,
    satisfies_TELC,
)
from braidvol.states import CircleClass
from braidvol.words import (
    SyllableWord,
    cyclically_reduce_into_syllables,
    parse_braid,
)

from conftest import (
    any_n_words,
    chain_syllables,
    ladder,
    seeded_near_family_words,
    word_of,
)


def test_all_negative_family_word_passes():
    report = check_main_lemma(ladder(2))
    assert report.passed
    assert report.nice and report.cond1 and report.twist_ok
    assert report.cond2_failures == ()
    assert main_lemma_block(report, report.cond2_failures)["implied"] == {
        "connected": True,
        "prime": True,
        "a_adequate": True,
        "telc": True,
        "hyperbolic": True,
    }


def test_short_negative_syllable_fails_cond1():
    report = check_main_lemma(word_of("s1^-2 s2^-3 s1^-3 s2^-3"))
    assert not report.passed
    assert not report.cond1


def test_mixed_3braid_family_word_passes():
    assert check_main_lemma(word_of("s1^3 s2^-3 s1^2 s2^-4")).passed


def test_interior_positive_4braid_passes():
    w = word_of("s2^2 s1^-3 s3^-3 s2^-4 s1^-3 s3^-4")
    report = check_main_lemma(w)
    assert report.passed


def test_interior_positive_needs_both_flanking_generators():
    # replacing one sigma_3 flank with sigma_2 breaks clause 2b
    w = word_of("s2^2 s1^-3 s3^-3 s2^-4 s1^-3 s2^-4 s1^-3")
    report = check_main_lemma(w)
    assert not report.passed
    assert any(f.clause == "2b" for f in report.cond2_failures)


def cond2(word):
    return [
        (f.syllable, f.clause, f.reason)
        for f in check_main_lemma(word).cond2_failures
    ]


def test_boundary_clause_failures_are_pinned():
    # clause 2a: sigma_1 wants a long negative sigma_2 on each side, checked
    # before then after; a short neighbour, then a wrong generator (n = 5)
    assert cond2(SyllableWord(5, ((1, 2), (2, -2), (3, -3), (4, -3), (2, -3)))) == [
        (0, "2a", "neighbor exponent -2 > -3")
    ]
    assert cond2(SyllableWord(5, ((1, 2), (3, -3), (2, -3), (4, -3), (2, -3)))) == [
        (0, "2a", "neighbor generator 3 != 2")
    ]
    # clause 2c: sigma_{n-1} wants sigma_{n-2}; sigma_4 next to sigma_2 at n = 5
    assert cond2(SyllableWord(5, ((4, 2), (3, -3), (1, -3), (2, -3)))) == [
        (0, "2c", "neighbor generator 2 != 3")
    ]
    # at n = 3, sigma_2 is sigma_{n-1}: a short sigma_1 neighbour fails 2c
    assert cond2(SyllableWord(3, ((1, -3), (2, 2), (1, -2), (2, -3)))) == [
        (1, "2c", "neighbor exponent -2 > -3")
    ]
    # at n = 2, sigma_1 is also sigma_{n-1}; it takes clause 2a
    assert cond2(word_of("s1", 2)) == [(0, "2a", "neighbor exponent 1 > -3")]


def test_interior_clause_names_the_side_that_fails():
    # clause 2b: sigma_2 at n = 4 wants sigma_1 and sigma_3 in the two
    # syllables before it and in the two after; here the after side is {3, 2}
    assert cond2(SyllableWord(4, ((1, -3), (3, -3), (2, 2), (3, -3), (2, -3)))) == [
        (2, "2b", "generators after are [2, 3]")
    ]


def test_twist_floor_excludes_short_words():
    # two syllables leave no room for a second complete window, and t = 2
    # sits under the floor 2(n-1) = 4
    report = check_main_lemma(ladder(1))
    assert report.cond1
    assert not report.nice
    assert not report.twist_ok
    assert not report.passed


def test_report_serializes():
    lemma = check_main_lemma(ladder(2))
    blob = main_lemma_block(lemma, lemma.cond2_failures)
    assert blob["pass"] is True
    assert blob["implied"]["hyperbolic"] is True


def test_stoimenow_positive_braid():
    assert stoimenow_A_adequate_3braid(word_of("s1^2 s2^3 s1 s2^4")) is True


def test_stoimenow_forbidden_triple():
    w = word_of("s1^-1 s2^-1 s1^-1 s2^-5")
    assert stoimenow_A_adequate_3braid(w) is False


def test_stoimenow_guarded_positive_syllable():
    assert stoimenow_A_adequate_3braid(word_of("s1^2 s2^-1 s1^-3 s2^-2")) is True


def test_stoimenow_out_of_scope_for_short_words():
    assert stoimenow_A_adequate_3braid(word_of("s1^-3 s2^-3")) is None


def test_stoimenow_rejects_other_widths():
    with pytest.raises(PreconditionError):
        stoimenow_A_adequate_3braid(word_of("s1^-3 s2^-3 s3^-3"))


def test_stoimenow_rejects_unreduced_words():
    w = SyllableWord(3, ((1, -3), (1, -2), (2, -3)))
    with pytest.raises(PreconditionError, match="needs a cyclically reduced word"):
        stoimenow_A_adequate_3braid(w)


exponent_st = st.integers(min_value=-4, max_value=4).filter(lambda e: e != 0)


@given(st.tuples(exponent_st, exponent_st, exponent_st, exponent_st))
@settings(max_examples=200)
def test_stoimenow_matches_direct_adequacy(exps):
    e1, e2, e3, e4 = exps
    w = SyllableWord(3, ((1, e1), (2, e2), (1, e3), (2, e4)))
    assert stoimenow_A_adequate_3braid(w) == is_A_adequate(resolve_all_A(w))


def test_cond2_failure_is_an_immutable_named_tuple():
    failure = Cond2Failure(3, "2b", "generators after are [2, 3]")
    assert Cond2Failure._fields == ("syllable", "clause", "reason")
    assert isinstance(failure, tuple)
    syllable, clause, reason = failure
    assert (syllable, clause, reason) == (3, "2b", "generators after are [2, 3]")
    assert failure.syllable == 3 and failure.clause == "2b"
    with pytest.raises(AttributeError):
        failure.reason = "changed"
    moved = failure._replace(syllable=4)
    assert moved == Cond2Failure(4, "2b", "generators after are [2, 3]")
    assert failure.syllable == 3
    assert failure == Cond2Failure(3, "2b", "generators after are [2, 3]")
    assert hash(failure) == hash(Cond2Failure(3, "2b", "generators after are [2, 3]"))
    assert failure != moved
    # what the gate builds is the same type, not a plain tuple
    (built,) = check_main_lemma(word_of("s1^-3 s2^2 s1^-2 s2^-3", 3)).cond2_failures
    assert type(built) is Cond2Failure
    assert built == Cond2Failure(1, "2c", "neighbor exponent -2 > -3")


def _reference_failure(word, i):
    """The parent's ``_neighborhood_failure``, verbatim."""
    syl = word.syllables
    t = len(syl)
    n = word.n
    m_i = syl[i][0]

    def gen(j: int) -> int:
        return syl[j % t][0]

    def exp(j: int) -> int:
        return syl[j % t][1]

    if m_i in (1, n - 1):
        # boundary syllable: sigma_1 is also sigma_{n-1} at n = 2 and takes 2a
        clause, want = ("2a", 2) if m_i == 1 else ("2c", n - 2)
        for j in (i - 1, i + 1):
            if exp(j) > -3:
                return Cond2Failure(i, clause, f"neighbor exponent {exp(j)} > -3")
            if gen(j) != want:
                return Cond2Failure(
                    i, clause, f"neighbor generator {gen(j)} != {want}"
                )
        return None
    clause = "2b"
    for j in (i - 2, i - 1, i + 1, i + 2):
        if exp(j) > -3:
            return Cond2Failure(i, clause, f"neighbor exponent {exp(j)} > -3")
    want = {m_i - 1, m_i + 1}
    before = {gen(i - 2), gen(i - 1)}
    after = {gen(i + 1), gen(i + 2)}
    if before != want:
        return Cond2Failure(i, clause, f"generators before are {sorted(before)}")
    if after != want:
        return Cond2Failure(i, clause, f"generators after are {sorted(after)}")
    return None


def rotations(word):
    syl = word.syllables
    return [SyllableWord(word.n, syl[r:] + syl[:r]) for r in range(len(syl))]


def splits_complete(word):
    """Whether the word as written splits into two parts that each hold
    every generator: two disjoint complete windows of the linear word."""
    syl, gens = word.syllables, set(range(1, word.n))
    return any(
        {g for g, _ in syl[:k]} == gens == {g for g, _ in syl[k:]}
        for k in range(1, len(syl))
    )


def nice_by_rotation(word):
    """Niceness by brute force: the word is reduced and some rotation of
    it splits into two complete parts."""
    return word.cyclically_reduced and any(map(splits_complete, rotations(word)))


def gate_by_closures(word):
    """The closure-per-syllable gate the one-loop gate replaced, as a
    reference, with niceness read by brute force over the rotations."""
    nice = nice_by_rotation(word)
    cond1 = all(r <= -3 for _, r in word.syllables if r < 0)
    failures = []
    for i, (_, r) in enumerate(word.syllables):
        if r > 0:
            failure = _reference_failure(word, i)
            if failure is not None:
                failures.append(failure)
    twist_ok = len(word.syllables) >= 2 * (word.n - 1)
    passed = nice and cond1 and not failures and twist_ok
    return MainLemmaReport(
        nice=nice,
        cond1=cond1,
        cond2_failures=tuple(failures),
        twist_ok=twist_ok,
        passed=passed,
    )


def assert_gate_matches_the_closure_gate(word):
    report, reference = check_main_lemma(word), gate_by_closures(word)
    flags = ("nice", "cond1", "twist_ok", "passed")
    for flag in flags:
        assert getattr(report, flag) == getattr(reference, flag), flag
    assert [tuple(f) for f in report.cond2_failures] == [
        (f.syllable, f.clause, f.reason) for f in reference.cond2_failures
    ]
    assert main_lemma_block(report, report.cond2_failures) == main_lemma_block(
        reference, reference.cond2_failures
    )


@st.composite
def gate_words(draw):
    """Unreduced words on 2 to 32 strands with 1 to 12 syllables and
    exponents +-1 to +-5, adjacent syllables possibly of one generator.
    Besides single syllables on any generator, the word holds frames: a
    positive syllable on a drawn centre between two syllables on each side
    whose generators are the centre's flanks, so every clause and every
    reason of the gate is reached."""
    n = draw(st.integers(min_value=2, max_value=32))
    centre = draw(st.integers(min_value=1, max_value=n - 1))
    flanks = [g for g in (centre - 1, centre + 1) if 1 <= g < n]
    flank = st.sampled_from(flanks or [centre])
    exponent = st.one_of(
        st.integers(min_value=-5, max_value=-3),
        st.integers(min_value=-5, max_value=5).filter(lambda r: r != 0),
    )
    generator = st.integers(min_value=1, max_value=n - 1)
    single = st.tuples(generator, exponent, st.booleans()).map(lambda d: (d,))
    side = st.tuples(flank, exponent, st.just(False))
    positive = st.tuples(
        st.just(centre), st.integers(min_value=1, max_value=5), st.just(False)
    )
    frame = st.tuples(side, side, positive, side, side)
    pieces = draw(st.lists(st.one_of(single, frame), min_size=1))
    draws = [d for piece in pieces for d in piece][:12]
    return SyllableWord(n, chain_syllables(draws))


@given(gate_words())
@example(SyllableWord(5, ((2, 1),)))
@example(SyllableWord(2, ((1, 1),)))
@example(SyllableWord(4, ((2, 1), (3, -3))))
@example(SyllableWord(4, ((1, -3), (3, -3), (2, 2), (3, -3), (2, -3))))
@example(SyllableWord(4, ((3, -3), (1, -3), (2, 2), (3, -3), (1, -3))))
@settings(max_examples=500)
def test_gate_matches_the_closure_gate(word):
    assert_gate_matches_the_closure_gate(word)
    assert_gate_matches_the_closure_gate(cyclically_reduce_into_syllables(word))


def random_letter_words(n):
    """Seeded uniform flat-letter words on ``n`` strands: three of 60 to 400
    signed letters and one u w u^-1 whose u cancels across the closure seam,
    as the CI batch step draws them."""
    rng = random.Random(n)

    def letters(count):
        return [rng.choice((-1, 1)) * rng.randint(1, n - 1) for _ in range(count)]

    texts = [letters(rng.randint(60, 400)) for _ in range(3)]
    u = letters(40)
    texts.append(u + letters(30) + [-g for g in reversed(u)])
    return [parse_braid(" ".join(map(str, text)), n) for text in texts]


@pytest.mark.parametrize("n", [3, 4, 6, 8])
def test_gate_matches_the_closure_gate_on_random_letter_words(n):
    for word in random_letter_words(n):
        assert_gate_matches_the_closure_gate(word)
        reduced = cyclically_reduce_into_syllables(word)
        assert_gate_matches_the_closure_gate(reduced)
        assert check_main_lemma(reduced).cond2_failures


@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_gate_matches_the_closure_gate_on_family_words(n):
    spec = GeneratorSpec(n=n, syllable_count=40, seed=1, count=3)
    for word in generate_words(spec):
        assert check_main_lemma(word).passed
        assert_gate_matches_the_closure_gate(word)


def test_family_words_have_the_implied_properties():
    words = generate_words(GeneratorSpec(n=3, syllable_count=4, count=25, seed=5))
    words += generate_words(GeneratorSpec(n=4, syllable_count=6, count=25, seed=6))
    for w in words:
        report = check_main_lemma(w)
        assert report.passed
        state = resolve_all_A(w)
        assert is_A_adequate(state)
        assert satisfies_TELC(state)
        assert is_connected_closure(w)
        assert state.census[CircleClass.UNCLASSIFIED] == 0
        if w.n == 3:
            assert stoimenow_A_adequate_3braid(w) is True


def assert_every_rotation_is_gated_alike(word, verified):
    # a rotation is the same closed braid: the gate's report and the bounds
    # must not move, and verify must pass on each rotation when it passes
    # on the word
    report = analyze(word)
    for rotated in rotations(word):
        turned = analyze(rotated)
        assert turned["main_lemma"] == report["main_lemma"], rotated.as_text()
        assert turned["bounds"] == report["bounds"], rotated.as_text()
        if verified:
            assert verify(rotated).passed, rotated.as_text()


@pytest.mark.parametrize("n", [3, 4, 5])
def test_gated_near_family_words_verify_on_every_rotation(n):
    # at n = 3 every nice word splits as written; at n = 4 and 5 some gated
    # words that verify passes are nice only across the closure seam
    gated = seam_only = 0
    for word in seeded_near_family_words(n, 300, seed=n):
        if not check_main_lemma(word).passed:
            continue
        gated += 1
        # a gated word whose two syllables on one generator meet through
        # far-commuting ones (an unthreaded bridge, which the generator
        # refuses) fails verify's circle counts whether or not it splits
        verified = not _has_unthreaded_bridge(word.syllables)
        if verified:
            assert verify(word).passed, word.as_text()
            seam_only += not splits_complete(word)
        assert_every_rotation_is_gated_alike(word, verified)
        if n == 3:
            assert _direct_form(word) == schreier_normal_form(word), word.as_text()
    assert gated >= 10 and (seam_only > 0) == (n > 3), (gated, seam_only)


def test_a_word_nice_only_across_the_seam_passes_at_every_rotation():
    # as written no split holds every generator on both sides; 17 of its
    # 28 rotations split, and all 28 pass the gate and verify
    word = word_of(
        "s1^-5 s2^-5 s3^-6 s4^-4 s3^-4 s1^-3 s4^-4 s2^-5 s3^2 s2^-8 s4^-6"
        " s6^-7 s7^-5 s6^-4 s1^-8 s3^-6 s7^-6 s2^-5 s4^-8 s3^-5 s5^-8"
        " s6^-3 s4^-5 s5^-8 s6^-6 s2^-3 s7^-8 s3^-5",
        8,
    )
    assert len(word.syllables) == 28 and not splits_complete(word)
    assert sum(map(splits_complete, rotations(word))) == 17
    assert check_main_lemma(word).passed
    assert_every_rotation_is_gated_alike(word, verified=True)


near_family_word_st = st.builds(
    lambda n, seed: seeded_near_family_words(n, 1, seed)[0],
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=2**32 - 1),
)


@given(st.one_of(any_n_words(8), near_family_word_st, gate_words()))
@example(SyllableWord(4, ((1, -3), (3, -3), (2, 2), (3, -3), (2, -3))))
@example(SyllableWord(5, ((1, -3), (2, -3), (3, 1), (4, -3), (2, -3))))
@example(SyllableWord(4, ((1, 1), (3, -3), (2, -3))))
@example(SyllableWord(4, ((1, 1), (2, -2), (3, 1), (2, -3))))
@settings(max_examples=300)
def test_clauses_and_reasons_are_their_own_json_text(word):
    # the batch line writes each failure's clause and reason between quotes
    # as they are, so json.dumps must add nothing but the quotes
    for _, clause, reason in check_main_lemma(word).cond2_failures:
        assert json.dumps(clause) == f'"{clause}"'
        assert json.dumps(reason) == f'"{reason}"'


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
