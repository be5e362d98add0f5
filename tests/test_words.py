"""Parsing, cyclic reduction, and word predicates."""

import random
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from braidvol.errors import BraidSyntaxError, PreconditionError
from braidvol.families import check_main_lemma
from braidvol.words import (
    MAX_STRANDS,
    MAX_WORD_LETTERS,
    SyllableWord,
    cyclically_reduce_into_syllables,
    exponent_sum,
    has_cyclic_disjoint_complete_subwords,
    has_disjoint_complete_subwords,
    is_nice,
    mirror,
    parse_braid,
)

from conftest import word_from_letters

letters_st = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=30)


def braid_of(letters, n=4):
    return word_from_letters(letters, n)


# --- reference implementations -------------------------------------------


def reduce_letter_by_letter(word):
    """Cyclic reduction on the flat letter list: delete inverse pairs one at
    a time, rotating seam pairs into view, then rotate the trailing run of
    the leading generator to the front and group into syllables."""
    letters = list(word.letters)
    while True:
        cancelled = False
        i = 0
        while i + 1 < len(letters):
            if letters[i] == -letters[i + 1]:
                del letters[i : i + 2]
                cancelled = True
                i = max(i - 1, 0)
            else:
                i += 1
        if len(letters) >= 2 and letters[-1] == -letters[0]:
            letters = letters[1:] + letters[:1]
            continue
        if not cancelled:
            break
    if letters:
        head = abs(letters[0])
        tail = 0
        while tail < len(letters) and abs(letters[-1 - tail]) == head:
            tail += 1
        if 0 < tail < len(letters):
            letters = letters[-tail:] + letters[:-tail]
    syllables = []
    for g in letters:
        m, s = abs(g), (1 if g > 0 else -1)
        if syllables and syllables[-1][0] == m:
            syllables[-1] = (m, syllables[-1][1] + s)
        else:
            syllables.append((m, s))
    return tuple(syllables)


def cyclic_pair_by_rotation(word):
    """Whether some rotation has two disjoint complete windows, one
    rotation at a time."""
    syl = word.syllables
    return any(
        has_disjoint_complete_subwords(SyllableWord(word.n, syl[r:] + syl[:r]))[0]
        for r in range(len(syl))
    )


def _letters_on(n, max_size):
    return st.lists(
        st.sampled_from([s * g for g in range(1, n) for s in (1, -1)]),
        max_size=max_size,
    )


def _seam_heavy(n):
    # u * core * u^-1: every letter of u meets its inverse across the seam
    return st.tuples(_letters_on(n, 15), _letters_on(n, 10)).map(
        lambda uc: uc[0] + uc[1] + [-g for g in reversed(uc[0])]
    )


reducer_case_st = st.integers(min_value=2, max_value=5).flatmap(
    lambda n: st.tuples(
        st.just(n), _letters_on(n, 40) | _seam_heavy(n)
    )
)


def test_parse_numeric_form():
    w = parse_braid("1 2 -1 -2")
    assert w.letters == (1, 2, -1, -2)
    assert w.n == 3


def test_parse_syllable_form():
    w = parse_braid("s1^3 s2^-4 s1")
    assert w.letters == (1, 1, 1, -2, -2, -2, -2, 1)
    assert w.n == 3


def test_parse_zero_exponent_contributes_nothing():
    assert parse_braid("s1^0 s2", 3).letters == (2,)


def test_parse_explicit_width_wins():
    assert parse_braid("s1", 5).n == 5


def test_parse_rejects_garbage():
    for text in ("s0", "q3", "s1^", "s1^^2", "0", "1.5"):
        with pytest.raises(BraidSyntaxError):
            parse_braid(text)


def test_parse_rejects_out_of_range_generator():
    with pytest.raises(BraidSyntaxError):
        parse_braid("s3", 3)


def test_parse_letter_limit_fails_before_expanding():
    assert parse_braid(f"s1^-{MAX_WORD_LETTERS}").crossings == MAX_WORD_LETTERS
    with pytest.raises(PreconditionError, match=str(MAX_WORD_LETTERS)):
        parse_braid(f"s2^{MAX_WORD_LETTERS} 1")  # the limit is on the whole word
    tracemalloc.start()
    try:
        for text in (
            f"s1^-{MAX_WORD_LETTERS + 1}",
            f"s1^-{100 * MAX_WORD_LETTERS}",
        ):
            with pytest.raises(PreconditionError, match=str(MAX_WORD_LETTERS)):
                parse_braid(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # expanding either word would take 8 bytes per letter
    assert peak < 8 * MAX_WORD_LETTERS


def test_parse_strand_limit():
    assert parse_braid(f"s{MAX_STRANDS - 1}").n == MAX_STRANDS
    assert parse_braid("s1", MAX_STRANDS).n == MAX_STRANDS
    assert parse_braid(f"s{MAX_STRANDS}^0").n == 1  # no letters, no strands
    for text, n in ((f"s{MAX_STRANDS}", None), ("s1", MAX_STRANDS + 1)):
        with pytest.raises(PreconditionError, match=str(MAX_STRANDS)):
            parse_braid(text, n)
    # a hostile width is refused from the integer alone
    with pytest.raises(PreconditionError):
        parse_braid("s1", 10**12)


def test_parse_refuses_overlong_numbers_as_syntax():
    with pytest.raises(BraidSyntaxError):
        parse_braid("s1^" + "9" * 5000)


@pytest.mark.parametrize(
    "n,syllables,message",
    [
        (0, (), "strand count must be >= 1, got 0"),
        (3, ((1, 0),), "syllable exponent must be nonzero"),
    ],
)
def test_syllable_word_refuses_bad_fields(n, syllables, message):
    with pytest.raises(BraidSyntaxError, match=message):
        SyllableWord(n, syllables)


def test_syllable_word_as_text_round_trip():
    w = cyclically_reduce_into_syllables(parse_braid("s1^3 s2^-4"))
    assert w.as_text() == "s1^3 s2^-4"
    assert parse_braid(w.as_text(), w.n) == w


def test_parse_keeps_tokens_as_given():
    w = parse_braid("s1 s1^-1 2 2 s1^0 s1^3")
    assert w.syllables == ((1, 1), (1, -1), (2, 1), (2, 1), (1, 3))
    assert w.letters == (1, -1, 2, 2, 1, 1, 1)
    assert not w.cyclically_reduced


def test_as_text_omits_unit_exponent():
    w = SyllableWord(3, ((1, 1), (2, -1)))
    assert w.as_text() == "s1 s2^-1"


def test_reduction_cancels_inverse_pairs():
    w = cyclically_reduce_into_syllables(braid_of([1, 2, -2, -1, 3]))
    assert w.syllables == ((3, 1),)


def test_reduction_cancels_across_the_seam():
    # the trailing -1 meets the leading 1 cyclically
    w = cyclically_reduce_into_syllables(braid_of([1, 2, 2, -1]))
    assert w.syllables == ((2, 2),)


def test_reduction_merges_split_syllables():
    w = cyclically_reduce_into_syllables(braid_of([2, 1, 1, 2], n=3))
    assert w.syllables in (((1, 2), (2, 2)), ((2, 2), (1, 2)))
    assert w.cyclically_reduced


def test_reduction_of_trivial_word_is_empty():
    assert cyclically_reduce_into_syllables(braid_of([1, -1])).syllables == ()


def test_exponent_sum():
    assert exponent_sum(braid_of([1, 1, -2, 3])) == 2
    assert exponent_sum(SyllableWord(3, ((1, 3), (2, -4)))) == -1


def test_mirror_is_an_involution():
    w = braid_of([1, -2, 3, 3])
    assert mirror(mirror(w)) == w
    assert mirror(w).letters == (-1, 2, -3, -3)


@given(letters_st)
def test_reduction_is_idempotent(letters):
    once = cyclically_reduce_into_syllables(braid_of(letters))
    again = cyclically_reduce_into_syllables(once)
    assert once == again


@given(letters_st)
def test_reduction_preserves_exponent_sum(letters):
    w = braid_of(letters)
    assert exponent_sum(w) == exponent_sum(cyclically_reduce_into_syllables(w))


@given(letters_st)
def test_reduced_words_have_no_cyclic_adjacency(letters):
    w = cyclically_reduce_into_syllables(braid_of(letters))
    syl = w.syllables
    assert all(r != 0 for _, r in syl)
    if len(syl) > 1:
        for i in range(len(syl)):
            assert syl[i][0] != syl[(i + 1) % len(syl)][0]


@given(letters_st, st.integers(min_value=0, max_value=29))
def test_reduction_is_rotation_invariant(letters, shift):
    if not letters:
        return
    shift %= len(letters)
    rotated = letters[shift:] + letters[:shift]
    a = cyclically_reduce_into_syllables(braid_of(letters))
    b = cyclically_reduce_into_syllables(braid_of(rotated))
    # same multiset of syllables up to rotation
    assert sorted(a.syllables) == sorted(b.syllables)


@given(reducer_case_st)
@settings(max_examples=400)
@example((3, [2, 1, 1, 2]))
@example((3, [1, 2, 2, -1]))
@example((4, [1, -2, 3, 2, -1]))  # the longer last syllable stays last
@example((3, [-1, 2, 1, 1, -2, 1]))
@example((2, [1, -1, -1, 1]))
def test_reduction_matches_letter_by_letter(case):
    n, letters = case
    word = word_from_letters(letters, n)
    assert cyclically_reduce_into_syllables(word).syllables == reduce_letter_by_letter(word)


def test_long_seam_word_reduces_fast():
    # u * sigma_1^3 * u^-1 with u a reduced 4000-letter 3-braid word: the
    # letter-by-letter reducer rescans the word for each of its 4000 seam
    # cancellations
    rng = random.Random(5)
    u = [1]
    while len(u) < 4000:
        g = rng.choice([1, -1, 2, -2])
        if g != -u[-1]:
            u.append(g)
    text = " ".join(map(str, u + [1, 1, 1] + [-g for g in reversed(u)]))
    word = parse_braid(text)
    assert word.crossings == 8003
    start = time.perf_counter()
    reduced = cyclically_reduce_into_syllables(word)
    assert time.perf_counter() - start < 0.1
    assert reduced.syllables == ((1, 3),)


def test_nice_needs_every_generator_twice():
    assert is_nice(SyllableWord(3, ((1, 3), (2, -3), (1, 2), (2, -4))))
    assert not is_nice(SyllableWord(3, ((1, 3), (2, -3))))
    assert not is_nice(SyllableWord(2, ((1, 5),)))


def test_disjoint_complete_subwords_witness():
    w = SyllableWord(3, ((1, 3), (2, -3), (1, 2), (2, -4)))
    found, windows = has_disjoint_complete_subwords(w)
    assert found
    (a0, a1), (b0, b1) = windows
    assert a1 < b0
    gens = {m for m, _ in w.syllables}
    assert {w.syllables[i][0] for i in range(a0, a1 + 1)} == gens
    assert {w.syllables[i][0] for i in range(b0, b1 + 1)} == gens


def test_cyclic_windows_catch_a_wraparound():
    # linearly the second window never completes, cyclically it does
    w = SyllableWord(4, ((3, 2), (1, 1), (3, -1), (2, 2), (1, -1), (2, 1)))
    assert w.cyclically_reduced
    assert not has_disjoint_complete_subwords(w)[0]
    assert has_cyclic_disjoint_complete_subwords(w)


@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.integers(min_value=1, max_value=max(n - 1, 1)),
                    st.sampled_from([1, -1]),
                ),
                max_size=14 if n > 1 else 0,
            ),
        )
    )
)
@settings(max_examples=400)
def test_cyclic_windows_match_every_rotation(case):
    n, syllables = case
    w = SyllableWord(n, tuple(syllables))
    assert has_cyclic_disjoint_complete_subwords(w) == cyclic_pair_by_rotation(w)


def test_cyclic_near_miss_is_linear():
    # sigma_1 sigma_2 alternating with one sigma_3: reduced, never nice, so
    # the main lemma checks every rotation for the near miss
    w = SyllableWord(4, ((3, 1),) + ((1, 1), (2, 1)) * 4999 + ((1, 1),))
    assert len(w.syllables) == 10_000 and w.cyclically_reduced
    start = time.perf_counter()
    report = check_main_lemma(w)
    assert time.perf_counter() - start < 1.0
    assert not report.nice and not report.nice_cyclic_near_miss


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
