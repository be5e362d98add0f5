"""Braid words on n strands as syllable sequences.

A braid word is written in syllables

    sigma_{m_1}^{r_1} sigma_{m_2}^{r_2} ... sigma_{m_l}^{r_l},

one syllable per twist region of the closure diagram; its letters are the
|r_i| copies of sigma_{m_i} (or its inverse, for r_i < 0) in order.  A
syllable word is *cyclically reduced* when every exponent is nonzero and
cyclically adjacent syllables use distinct generators; every word reaches
that form by free cancellation and rotation, both of which preserve the
closure link.  The reducer returns a word already marked reduced untouched.

Two structural predicates on the reduced form drive everything downstream:

* a *complete* subword is a contiguous window containing every generator
  sigma_1 ... sigma_{n-1};
* a word is *nice* when it is cyclically reduced and its closed braid holds
  two disjoint complete subwords.  Windows here are runs of whole syllables
  read cyclically, so both may cross the closure seam and every rotation of
  a word gets the same verdict.  For 3-braids this is equivalent to each
  generator occurring in at least two syllables.  A two-pointer pass over
  the doubled syllables finds the complete windows, read lazily: it stops
  at the first rotation that holds a disjoint pair.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Iterable, Iterator
from functools import cached_property
from typing import NamedTuple

from .errors import BraidSyntaxError, PreconditionError

__all__ = [
    "MAX_STRANDS",
    "MAX_WORD_LETTERS",
    "SyllableWord",
    "parse_braid",
    "require_input_limits",
    "mirror",
    "cyclically_reduce_into_syllables",
    "exponent_sum",
    "has_cyclic_disjoint_complete_subwords",
]


def _immutable(self, name: str, *value) -> None:
    """``__setattr__`` and ``__delattr__`` of a record that keeps a
    ``__dict__`` for its cached properties: no attribute is set or deleted,
    so no cached value can be overwritten."""
    raise AttributeError(
        f"cannot set or delete {name!r}: {type(self).__name__} is immutable"
    )


def _checked_make(cls, fields: Iterable):
    """``_make`` of a record whose ``__new__`` checks: it builds through
    ``__new__``, as the named tuple's ``_replace`` (and Python 3.13's
    ``copy.replace``) build through ``_make``, so no copy skips a check."""
    return cls(*fields)


class _SyllableWordFields(NamedTuple):
    n: int
    syllables: tuple[tuple[int, int], ...]  # (m_i, r_i) with r_i != 0
    cyclically_reduced: bool


class SyllableWord(_SyllableWordFields):
    """A braid word grouped into syllables (generator, exponent).

    An immutable named tuple ``(n, syllables, cyclically_reduced)`` built as
    ``SyllableWord(n, syllables)``: it compares and hashes by value and
    unpacks like a tuple.  ``cyclically_reduced`` is derived, never trusted
    from the caller: it holds exactly when no two cyclically adjacent
    syllables share a generator (a single syllable counts as reduced).  The
    strand count, generators and exponents are whole numbers: ``2.0`` and
    ``True`` are taken as ints, while ``2.7``, ``None`` or ``"x"`` raise
    BraidSyntaxError.  ``_replace(n=..., syllables=...)`` and ``_make``
    check and derive as the constructor does.  The instance ``__dict__``
    holds only the cached :attr:`crossings`; setting any attribute raises
    AttributeError.
    """

    def __new__(cls, n: int, syllables: Iterable[Iterable[int]]) -> SyllableWord:
        if type(n) is not int:
            n = _integral(n, "strand count")
        if n < 1:
            raise _strand_count_error(n)
        syl = []
        for m, r in syllables:
            if type(m) is not int:
                m = _integral(m, "syllable generator")
            if type(r) is not int:
                r = _integral(r, "syllable exponent")
            if not 1 <= m <= n - 1:
                raise _generator_error(m, n)
            if r == 0:
                raise BraidSyntaxError("syllable exponent must be nonzero")
            syl.append((m, r))
        syl = tuple(syl)
        return tuple.__new__(cls, (n, syl, _no_cyclic_repeat(syl)))

    @classmethod
    def _trusted(
        cls, n: int, syllables: tuple[tuple[int, int], ...], reduced: bool
    ) -> SyllableWord:
        """A word from fields already checked: ``n >= 1``, int syllables of
        generators 1..n-1 and nonzero exponents, and ``reduced`` equal to
        what the constructor would derive.  For the parser and the reducer,
        which check as they build; the word equals, hashes and prints as
        ``SyllableWord(n, syllables)``."""
        return tuple.__new__(cls, (n, syllables, reduced))

    @classmethod
    def _make(cls, fields: Iterable) -> SyllableWord:
        """``SyllableWord(n, syllables)`` of the fields ``(n, syllables,
        cyclically_reduced)``, refusing a third field that is not the
        derived one."""
        n, syllables, reduced = fields
        word = cls(n, syllables)
        if reduced != word.cyclically_reduced:
            raise ValueError("cyclically_reduced is derived from the syllables")
        return word

    def _replace(self, /, **changes) -> SyllableWord:
        extra = changes.keys() - {"n", "syllables"}
        if extra:
            raise ValueError(f"only n and syllables are replaced, not {sorted(extra)}")
        return type(self)(
            changes.get("n", self.n), changes.get("syllables", self.syllables)
        )

    __replace__ = _replace  # copy.replace, Python 3.13+

    def __getnewargs__(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        return self.n, self.syllables  # copy and pickle rebuild through __new__

    __setattr__ = __delattr__ = _immutable

    @property
    def letters(self) -> tuple[int, ...]:
        """Flat letter expansion, |r_i| copies of +-m_i per syllable."""
        out: list[int] = []
        for m, r in self.syllables:
            out.extend([m if r > 0 else -m] * abs(r))
        return tuple(out)

    @cached_property
    def crossings(self) -> int:
        """The letter count, summed once per word; not a field, so ``repr``,
        equality and hashing do not see it."""
        return sum(abs(r) for _, r in self.syllables)

    def as_text(self) -> str:
        """Render in the parseable ``s<m>^<r>`` form, each distinct syllable
        once."""
        text: dict[tuple[int, int], str] = {}
        parts = []
        for syllable in self.syllables:
            part = text.get(syllable)
            if part is None:
                m, r = syllable
                part = text[syllable] = f"s{m}" if r == 1 else f"s{m}^{r}"
            parts.append(part)
        return " ".join(parts)


def _no_cyclic_repeat(syllables: tuple[tuple[int, int], ...]) -> bool:
    """Whether no two cyclically adjacent syllables share a generator."""
    gens = [m for m, _ in syllables]
    return len(gens) < 2 or all(map(operator.ne, gens, gens[1:] + gens[:1]))


def _strand_count_error(n: int) -> BraidSyntaxError:
    return BraidSyntaxError(f"strand count must be >= 1, got {n}")


def _generator_error(m: int, n: int) -> BraidSyntaxError:
    return BraidSyntaxError(f"syllable generator {m} is not a generator of B_{n}")


def _integral(value, what: str) -> int:
    """``int(value)``, refusing a value that is not a whole number (2.7,
    None, "x") with BraidSyntaxError rather than truncating it."""
    try:
        whole = int(value)
        if whole == value:
            return whole
    except (TypeError, ValueError, OverflowError):
        pass
    raise BraidSyntaxError(f"{what} {value!r} is not an integer")


# Input limits for parse_braid, checked on the parsed integers, so that
# hostile input such as "s1^-1000000000" fails at once.  parse_braid reads
# each distinct token of a line once (a flat-letter word has at most
# 2(n - 1) distinct tokens, a family word a few dozen), but counts tokens
# and letters against these limits at every token, in order; it then
# validates the word once, as a whole, and the reducer's output needs no
# second validation.  Parsing, reduction, the union-find of
# states.resolve_all_A and the Schreier normal form work per syllable (the
# normal form's cascades, which cancel units where syllables meet, are
# bounded by the letters they cancel); the letter limit bounds the layers
# that still work per letter: the circles closed inside twist regions, one
# dict each in analyze's circle detail (read from the state's runs) and one
# tuple each in AllAState.circles (read only by the SVG renderer, the demos,
# the tests and the perfbench replay), the SVG renderer's walk over the
# (c + 1) * n arc ids and its one dashed line per crossing, and the bracket
# sweep.  Both sit well above the sizes analyze is used at (about 1000
# crossings, n <= 8).
MAX_WORD_LETTERS = 10_000
MAX_STRANDS = 32

# Numbers have at most 18 digits: int() refuses digit strings past 4300
# characters with a bare ValueError, and anything near that length is far
# beyond both limits anyway.
_TOKEN = re.compile(r"^(?:(-?[0-9]{1,18})|[sS]([0-9]{1,18})(?:\^(-?[0-9]{1,18}))?)$")
_NONSPACE = re.compile(r"\S+")


def _strand_limit_error(n: int) -> PreconditionError:
    return PreconditionError(f"strand count {n} is above the limit of {MAX_STRANDS}")


_LETTER_LIMIT = f"word has more than {MAX_WORD_LETTERS} letters, the limit"


def require_input_limits(word: SyllableWord) -> None:
    """Refuse a word on more than ``MAX_STRANDS`` strands or of more than
    ``MAX_WORD_LETTERS`` letters with ``parse_braid``'s PreconditionError.

    ``SyllableWord`` itself is unchecked (a Schreier form's braid word may
    run a few letters past the limit), so the library's entry points call
    this before any work that grows with n or with the letters.
    """
    if word.n > MAX_STRANDS:
        raise _strand_limit_error(word.n)
    if word.crossings > MAX_WORD_LETTERS:
        raise PreconditionError(_LETTER_LIMIT)


def parse_braid(text: str, n: int | None = None) -> SyllableWord:
    """Parse a whitespace-separated braid word into syllables, as given.

    Each token is either a signed integer (``3`` for sigma_3, ``-2`` for the
    inverse of sigma_2) or syllable notation ``s3^-2`` / ``S3`` (exponent
    defaults to 1; a token of exponent 0 is dropped), with ASCII digits.
    Every other token becomes one syllable: nothing is merged or cancelled.
    When ``n`` is omitted it is inferred as one more than the largest
    generator index used.

    A word of more than ``MAX_WORD_LETTERS`` letters or tokens, or on more
    than ``MAX_STRANDS`` strands (given or inferred), raises
    PreconditionError.

    >>> parse_braid("s1^3 s2^-3 1 1 s3^-2 s2 s3").syllables
    ((1, 3), (2, -3), (1, 1), (1, 1), (3, -2), (2, 1), (3, 1))
    """
    if n is not None and n > MAX_STRANDS:
        raise _strand_limit_error(n)
    # k tokens take at least 2k - 1 characters, so a text of at most
    # 2 * MAX_WORD_LETTERS characters cannot pass the token limit and is
    # split whole, the faster read; a longer one is read lazily, so that a
    # hostile line is refused before it is split
    tokens = (
        text.split() if len(text) <= 2 * MAX_WORD_LETTERS else _lazy_tokens(text)
    )
    # token -> (syllable, letters): each distinct token is read once a line
    read: dict[str, tuple[tuple[int, int], int]] = {}
    syllables: list[tuple[int, int]] = []
    letters = 0
    for token in tokens:
        entry = read.get(token)
        if entry is None:
            entry = read[token] = _read_token(token, n is None)
        syllable, size = entry
        if size:  # s40^0 adds no letter and no strand
            letters += size
            if letters > MAX_WORD_LETTERS:
                raise PreconditionError(_LETTER_LIMIT)
            syllables.append(syllable)
    # generators in order of first use, so the first one out of range is
    # the one SyllableWord would name
    gens = [m for (m, _), size in read.values() if size]
    if n is None:
        n = max(gens, default=0) + 1
    elif n < 1:
        raise _strand_count_error(n)
    else:
        for m in gens:
            if m > n - 1:
                raise _generator_error(m, n)
    syl = tuple(syllables)
    return SyllableWord._trusted(n, syl, _no_cyclic_repeat(syl))


def _lazy_tokens(text: str) -> Iterator[str]:
    """The tokens of ``text`` one at a time, refusing the token past the
    limit before it is read."""
    for count, found in enumerate(_NONSPACE.finditer(text)):
        if count == MAX_WORD_LETTERS:
            raise PreconditionError(
                f"word has more than {MAX_WORD_LETTERS} tokens, the limit"
            )
        yield found.group()


def _read_token(token: str, infer_n: bool) -> tuple[tuple[int, int], int]:
    """One token's syllable and letter count, refusing what no word may
    hold: a token outside the grammar, generator 0 and, when the strand
    count is inferred, a generator past ``MAX_STRANDS``."""
    match = _TOKEN.match(token)
    if match is None:
        raise BraidSyntaxError(f"cannot parse braid token {token!r}")
    letter, gen, exp = match.groups()
    if letter is not None:
        g = int(letter)
        m, r = abs(g), (1 if g > 0 else -1)
    else:
        m = int(gen)
        r = int(exp) if exp is not None else 1
    if m == 0:
        raise BraidSyntaxError("generator index 0 is not valid")
    if r and infer_n and m >= MAX_STRANDS:
        raise PreconditionError(
            f"word needs {m + 1} strands, above the limit of {MAX_STRANDS}"
        )
    return (m, r), abs(r)


def mirror(word: SyllableWord) -> SyllableWord:
    """The mirror word: every exponent's sign flipped in place."""
    return SyllableWord(word.n, tuple((m, -r) for m, r in word.syllables))


def cyclically_reduce_into_syllables(word: SyllableWord) -> SyllableWord:
    """Cyclically reduce ``word`` in one stack pass over its syllables.

    A syllable merges into the top of the stack when they share a generator,
    and the two vanish when their exponents cancel.  The first and last
    syllables then meet across the closure seam: cancelling ones vanish, and
    otherwise they merge into the first syllable, except that a longer last
    syllable of the opposite sign survives in last place.  That is where
    cancelling letter pairs one at a time across the seam leaves it.  A word
    already marked ``cyclically_reduced`` is returned untouched; any other
    merges or changes at the seam, so the pass always builds a new word.

    >>> cyclically_reduce_into_syllables(parse_braid("-2 1 1 1 2")).syllables
    ((1, 3),)
    """
    if word.cyclically_reduced:
        return word
    stack: list[tuple[int, int]] = []
    for m, r in word.syllables:
        if stack and stack[-1][0] == m:
            r += stack.pop()[1]
            if r == 0:
                continue
        stack.append((m, r))
    lo = 0  # the stack's live bottom
    while len(stack) - lo >= 2 and stack[lo][0] == stack[-1][0]:
        (m, first), (_, last) = stack[lo], stack.pop()
        merged = first + last
        if merged == 0:
            lo += 1
        elif first * last < 0 and abs(last) > abs(first):
            lo += 1
            stack.append((m, merged))
        else:
            stack[lo] = (m, merged)
    # merged and cancelled syllables of a valid word: reduced by construction
    return SyllableWord._trusted(word.n, tuple(stack[lo:]), True)


def exponent_sum(word: SyllableWord) -> int:
    """Algebraic crossing count; invariant under conjugation and reduction."""
    return sum(r for _, r in word.syllables)


def has_cyclic_disjoint_complete_subwords(word: SyllableWord) -> bool:
    """Whether the closed braid holds two disjoint complete windows.

    A window is a run of syllables read cyclically; complete means every
    generator of B_n appears in it.  Let ends[i] be the end (exclusive) of
    the shortest complete window from syllable i of the doubled syllables.
    The rotation from i has a pair iff ends[i] and ends[ends[i]] both lie
    within t of i: the shortest complete window from i and the shortest one
    after it.  One scan of the doubled syllables finds the ends in order,
    and rotation i is decided as soon as ends[ends[i]] is found, so the
    scan stops at the first rotation with a pair: a word whose pair lies
    within the word as written stops near its start.  The empty word has
    no window at any n.
    """
    t = len(word.syllables)
    doubled = word.syllables * 2
    counts = [0] * word.n
    missing = word.n - 1  # generators absent from the window [len(ends), j)
    ends: list[int] = []
    i = 0  # the first rotation not yet decided
    for j, (m, _) in enumerate(doubled, 1):
        missing -= not counts[m]
        counts[m] += 1
        while not missing:
            first = len(ends)
            ends.append(j)
            # ends only grow, so the rotations whose first window ends at
            # ``first`` are the next ones in order
            while i < t and ends[i] == first:
                if j - i <= t:
                    return True
                i += 1
            g = doubled[first][0]
            counts[g] -= 1
            missing += not counts[g]
    return False  # every later window is incomplete, so no rotation has a pair
