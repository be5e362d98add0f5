"""Parsing, cyclic reduction, and word predicates."""

import tracemalloc

import pytest
from hypothesis import given, strategies as st

from braidvol.errors import BraidSyntaxError, PreconditionError
from braidvol.words import (
    MAX_STRANDS,
    MAX_WORD_LETTERS,
    BraidWord,
    SyllableWord,
    cyclically_reduce_into_syllables,
    cyclically_reduce_with_rotation,
    exponent_sum,
    has_cyclic_disjoint_complete_subwords,
    has_disjoint_complete_subwords,
    is_nice,
    mirror,
    parse_braid,
)

letters_st = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=30)


def braid_of(letters, n=4):
    return BraidWord(n, tuple(letters))


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
    assert len(parse_braid(f"s1^-{MAX_WORD_LETTERS}")) == MAX_WORD_LETTERS
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


def test_syllable_word_as_text_round_trip():
    w = cyclically_reduce_into_syllables(parse_braid("s1^3 s2^-4"))
    assert w.as_text() == "s1^3 s2^-4"
    assert parse_braid(w.as_text(), w.n).letters == w.to_braid_word().letters


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


def test_reduction_reports_rotation():
    word = braid_of([2, 1, 1, 2], n=3)
    reduced, rotation = cyclically_reduce_with_rotation(word)
    assert reduced == cyclically_reduce_into_syllables(word)
    rotated = word.letters[rotation:] + word.letters[:rotation]
    # the rotated word reduces without using the seam
    assert list(rotated) in ([1, 1, 2, 2], [2, 2, 1, 1])


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
    again = cyclically_reduce_into_syllables(once.to_braid_word())
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


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
