"""Parsing, cyclic reduction, and word predicates."""

import random
import re
import time
import tracemalloc
from math import inf

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
    mirror,
    parse_braid,
    require_input_limits,
)

from conftest import any_n_words, word_from_letters

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


def read_token_by_token(text, n=None):
    """The word of ``text`` read one token at a time: each token through
    the grammar and the limit checks in order, then the syllables through
    ``SyllableWord``'s own validation."""
    if n is not None and n > MAX_STRANDS:
        raise PreconditionError(
            f"strand count {n} is above the limit of {MAX_STRANDS}"
        )
    token_re = re.compile(
        r"^(?:(-?[0-9]{1,18})|[sS]([0-9]{1,18})(?:\^(-?[0-9]{1,18}))?)$"
    )
    syllables = []
    letters = 0
    for count, token in enumerate(re.findall(r"\S+", text)):
        if count == MAX_WORD_LETTERS:
            raise PreconditionError(
                f"word has more than {MAX_WORD_LETTERS} tokens, the limit"
            )
        match = token_re.match(token)
        if match is None:
            raise BraidSyntaxError(f"cannot parse braid token {token!r}")
        if match.group(1) is not None:
            g = int(match.group(1))
            m, r = abs(g), (1 if g > 0 else -1)
        else:
            m = int(match.group(2))
            r = int(match.group(3)) if match.group(3) is not None else 1
        if m == 0:
            raise BraidSyntaxError("generator index 0 is not valid")
        if r == 0:
            continue
        if n is None and m >= MAX_STRANDS:
            raise PreconditionError(
                f"word needs {m + 1} strands, above the limit of {MAX_STRANDS}"
            )
        letters += abs(r)
        if letters > MAX_WORD_LETTERS:
            raise PreconditionError(
                f"word has more than {MAX_WORD_LETTERS} letters, the limit"
            )
        syllables.append((m, r))
    if n is None:
        n = max((m for m, _ in syllables), default=0) + 1
    return SyllableWord(n, tuple(syllables))


def outcome(read, *args):
    """What ``read(*args)`` returns, or the type and message it raises."""
    try:
        return read(*args)
    except (BraidSyntaxError, PreconditionError) as exc:
        return type(exc), str(exc)


def _complete_end(word: SyllableWord, start: int) -> int:
    """The end (exclusive) of the shortest complete window of ``word`` from
    syllable ``start``, or len(word.syllables) + 1 when there is none."""
    seen: set[int] = set()
    for j in range(start, len(word.syllables)):
        seen.add(word.syllables[j][0])
        if len(seen) == word.n - 1:
            return j + 1
    return len(word.syllables) + 1


def greedy_complete_pair(word):
    """Whether the word as written holds two disjoint complete windows, by a
    greedy scan from the start: the shortest complete prefix, then the
    shortest complete window after it."""
    return _complete_end(word, _complete_end(word, 0)) <= len(word.syllables)


def cyclic_pair_by_rotation(word):
    """Whether some rotation has two disjoint complete windows, one
    rotation at a time, by the greedy scan."""
    syl = word.syllables
    return any(
        greedy_complete_pair(SyllableWord(word.n, syl[r:] + syl[:r]))
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


# words on 1 to 6 strands, reduced or not, the empty word among them
window_word_st = any_n_words(6) | any_n_words(6).map(cyclically_reduce_into_syllables)

reducer_case_st = st.integers(min_value=2, max_value=5).flatmap(
    lambda n: st.tuples(
        st.just(n), _letters_on(n, 40) | _seam_heavy(n)
    )
)


# a line repeats a few tokens, as braid words do: signed letters, syllables
# of exponent 0 and of exponents large enough to pass the letter limit,
# generators out of range or past the strand limit, and tokens outside the
# grammar (non-ASCII digits among them)
_generator_st = st.integers(min_value=0, max_value=MAX_STRANDS + 2)
token_st = st.one_of(
    st.builds(lambda g, s: str(s * g), _generator_st, st.sampled_from([1, -1])),
    st.builds(
        lambda case, g, k: f"{case}{g}" if k is None else f"{case}{g}^{k}",
        st.sampled_from(["s", "S"]),
        _generator_st,
        st.none() | st.integers(min_value=-3, max_value=3) | st.sampled_from(
            [4000, -6000, MAX_WORD_LETTERS, MAX_WORD_LETTERS + 1]
        ),
    ),
    st.sampled_from(
        ["x", "s", "s1^", "s1^^2", "1.5", "+1", "s-1", "-0", "s2^-0"]
        + ["s\u0663", "\u0662", "s1^-\u0662"]  # non-ASCII digits
    ),
)
line_st = st.tuples(
    st.lists(token_st, min_size=1, max_size=6),
    st.lists(st.integers(min_value=0, max_value=5), max_size=40),
    st.sampled_from([" ", "  ", "\t", " \n "]),
).map(lambda case: case[2].join(case[0][i % len(case[0])] for i in case[1]))


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


def test_parse_token_limit_fails_before_splitting():
    # the whole split and the lazy read meet at 2 * MAX_WORD_LETTERS chars
    assert parse_braid("1 " * MAX_WORD_LETTERS).crossings == MAX_WORD_LETTERS
    assert parse_braid("s1 " * MAX_WORD_LETTERS).crossings == MAX_WORD_LETTERS
    with pytest.raises(PreconditionError, match=f"{MAX_WORD_LETTERS} tokens"):
        parse_braid("s1^0 " * (MAX_WORD_LETTERS + 1))
    # on either read tokens are checked in order: a bad token before the
    # limit is a syntax error however long the line, and one past the limit
    # is never read
    with pytest.raises(BraidSyntaxError, match="'x'"):
        parse_braid("x " + "s1 " * 3 * MAX_WORD_LETTERS)
    with pytest.raises(PreconditionError, match=f"{MAX_WORD_LETTERS} tokens"):
        parse_braid("s1^0 " * MAX_WORD_LETTERS + "x")
    # three million tokens, of no letters or of one letter each: splitting
    # either line whole would take about 50 bytes per token
    for text in ("s1^0 " * 3_000_000, "s1 " * 3_000_000):
        tracemalloc.start()
        try:
            with pytest.raises(PreconditionError, match=f"{MAX_WORD_LETTERS} tokens"):
                parse_braid(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(text) // 10


def test_parse_refuses_non_ascii_digits():
    for text in ("s\u0663^-\u0662 \u0661", "\u0663", "s1^-\u0662", "s\uff11"):
        with pytest.raises(BraidSyntaxError, match="cannot parse braid token"):
            parse_braid(text, 4)


@given(line_st, st.none() | st.integers(min_value=-1, max_value=MAX_STRANDS + 1))
@settings(max_examples=500)
@example("s1^-3 s2^-3 s1^-3 s2^-3", None)
@example("s5 s1 s5^0 s4", 3)  # the first generator out of range is named
@example("s5^0 s1", 3)  # a token of exponent 0 is never range checked
@example(f"s1^{MAX_WORD_LETTERS} s40 s1", 3)  # the letter limit comes first
@example(f"s40^0 s40 s1^{MAX_WORD_LETTERS + 1}", None)
@example("s1 s1 x", 0)  # the syntax error comes before the strand count
@example("s1 s2", 0)
@example("", None)
def test_parse_matches_the_token_by_token_reader(text, n):
    # words compare on n, syllables and cyclically_reduced
    assert outcome(parse_braid, text, n) == outcome(read_token_by_token, text, n)


def assert_same_word(built, public):
    assert built == public and public == built
    assert hash(built) == hash(public)
    assert repr(built) == repr(public)
    assert built.cyclically_reduced is public.cyclically_reduced
    assert built.crossings == public.crossings
    assert built.as_text() == public.as_text()


@given(reducer_case_st)
@settings(max_examples=300)
@example((3, [1, 2, 2, -1]))
@example((3, [1, -1]))
def test_parsed_and_reduced_words_equal_public_constructor_words(case):
    n, letters = case
    parsed = parse_braid(" ".join(map(str, letters)), n)
    assert_same_word(parsed, SyllableWord(n, parsed.syllables))
    reduced = cyclically_reduce_into_syllables(parsed)
    assert_same_word(reduced, SyllableWord(n, reduced.syllables))
    syllabic = parse_braid(reduced.as_text(), n)
    assert_same_word(syllabic, SyllableWord(n, reduced.syllables))
    # the public constructor coerces what it is given
    listed = SyllableWord(n, [list(syllable) for syllable in reduced.syllables])
    assert_same_word(reduced, listed)
    assert type(listed.syllables) is tuple


def test_public_constructor_refuses_a_generator_out_of_range():
    with pytest.raises(BraidSyntaxError, match="generator 3 is not a generator of B_3"):
        SyllableWord(3, ((1, 1), (3, -1)))


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


def test_library_input_limits_use_the_parse_messages():
    require_input_limits(SyllableWord(MAX_STRANDS, ((1, MAX_WORD_LETTERS),)))
    with pytest.raises(PreconditionError) as parsed:
        parse_braid("s1", MAX_STRANDS + 1)
    with pytest.raises(PreconditionError) as built:
        require_input_limits(SyllableWord(MAX_STRANDS + 1, ()))
    assert str(built.value) == str(parsed.value)
    with pytest.raises(PreconditionError) as parsed:
        parse_braid(f"s1^-{MAX_WORD_LETTERS + 1}")
    with pytest.raises(PreconditionError) as built:
        require_input_limits(SyllableWord(3, ((1, -MAX_WORD_LETTERS), (2, -1))))
    assert str(built.value) == str(parsed.value)


def test_parse_refuses_overlong_numbers_as_syntax():
    with pytest.raises(BraidSyntaxError):
        parse_braid("s1^" + "9" * 5000)


@pytest.mark.parametrize(
    "n,syllables,message",
    [
        (0, (), "strand count must be >= 1, got 0"),
        (3, ((1, 0),), "syllable exponent must be nonzero"),
        (3, ((3, 1),), "syllable generator 3 is not a generator of B_3"),
        # a value that int() would truncate, or that it refuses, is named
        (3, ((1, 2.7),), "syllable exponent 2.7 is not an integer"),
        (3, ((1.5, 2),), "syllable generator 1.5 is not an integer"),
        (3, ((1, None),), "syllable exponent None is not an integer"),
        (3, (("x", 1),), "syllable generator 'x' is not an integer"),
        (3, ((1, "2"),), "syllable exponent '2' is not an integer"),
        (3, ((1, float("inf")),), "syllable exponent inf is not an integer"),
        (3, ((1, float("nan")),), "syllable exponent nan is not an integer"),
        (3.5, (), "strand count 3.5 is not an integer"),
        (None, (), "strand count None is not an integer"),
        ("3", (), "strand count '3' is not an integer"),
    ],
)
def test_syllable_word_refuses_bad_fields(n, syllables, message):
    with pytest.raises(BraidSyntaxError) as refused:
        SyllableWord(n, syllables)
    assert str(refused.value) == message


def test_syllable_word_coerces_integral_fields():
    word = SyllableWord(3.0, [[2.0, True], (1, -2.0)])
    assert word == SyllableWord(3, ((2, 1), (1, -2)))
    assert type(word.n) is int
    assert all(type(v) is int for syllable in word.syllables for v in syllable)


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
    assert again is once


@given(window_word_st)
@settings(max_examples=300)
@example(SyllableWord(3, ((1, 1), (2, -3), (1, -2))))
def test_reduction_returns_exactly_the_reduced_words_as_they_are(word):
    assert (cyclically_reduce_into_syllables(word) is word) is word.cyclically_reduced


def test_reduced_word_comes_back_as_the_same_object():
    family = SyllableWord(3, ((1, -3), (2, 2), (1, -4), (2, -3)))
    assert cyclically_reduce_into_syllables(family) is family
    # the longer last syllable outlives the first across the seam: the stack
    # keeps its length, but the word changes
    seam = SyllableWord(3, ((1, 1), (2, -3), (1, -2)))
    reduced = cyclically_reduce_into_syllables(seam)
    assert reduced is not seam
    assert reduced.syllables == ((2, -3), (1, -1))


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


def seam_word(length):
    """u * sigma_1^3 * u^-1 with u a reduced ``length``-letter 3-braid word:
    every one of its ``length`` cancellations is at the cyclic seam."""
    rng = random.Random(5)
    u = [1]
    while len(u) < length:
        g = rng.choice([1, -1, 2, -2])
        if g != -u[-1]:
            u.append(g)
    return parse_braid(" ".join(map(str, u + [1, 1, 1] + [-g for g in reversed(u)])))


def test_long_seam_word_reduces_fast():
    # the letter-by-letter reducer rescans the word for each seam
    # cancellation, so a 4x longer u costs it about 16x (20x measured); a
    # linear reducer costs about 4x (5x measured).  Each size's best of
    # seven interleaved runs is compared, so the bound does not move with
    # the host's load.
    full, quarter = seam_word(4000), seam_word(1000)
    assert full.crossings == 8003
    assert cyclically_reduce_into_syllables(full).syllables == ((1, 3),)
    best = [inf, inf]
    for _ in range(7):
        for i, word in enumerate((full, quarter)):
            start = time.perf_counter()
            cyclically_reduce_into_syllables(word)
            best[i] = min(best[i], time.perf_counter() - start)
    assert best[0] < 10 * best[1], best


def test_nice_needs_every_generator_twice():
    assert check_main_lemma(SyllableWord(3, ((1, 3), (2, -3), (1, 2), (2, -4)))).nice
    assert not check_main_lemma(SyllableWord(3, ((1, 3), (2, -3)))).nice
    assert not check_main_lemma(SyllableWord(2, ((1, 5),))).nice


def test_the_empty_word_is_never_nice():
    for n in range(1, MAX_STRANDS + 1):
        empty = SyllableWord(n, ())
        assert not has_cyclic_disjoint_complete_subwords(empty)
        assert not check_main_lemma(empty).nice


def test_cyclic_windows_catch_a_wraparound():
    # linearly the second window never completes, cyclically it does
    w = SyllableWord(4, ((3, 2), (1, 1), (3, -1), (2, 2), (1, -1), (2, 1)))
    assert w.cyclically_reduced
    assert not greedy_complete_pair(w)
    assert has_cyclic_disjoint_complete_subwords(w)
    assert check_main_lemma(w).nice


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


def test_niceness_over_every_rotation_is_linear():
    # sigma_1 sigma_2 alternating with one sigma_3: reduced, never nice, so
    # the main lemma reads every rotation before it says so
    w = SyllableWord(4, ((3, 1),) + ((1, 1), (2, 1)) * 4999 + ((1, 1),))
    assert len(w.syllables) == 10_000 and w.cyclically_reduced
    start = time.perf_counter()
    report = check_main_lemma(w)
    assert time.perf_counter() - start < 1.0
    assert not report.nice


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
