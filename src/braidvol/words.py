"""Braid words on n strands as syllable sequences.

A braid word is written in syllables

    sigma_{m_1}^{r_1} sigma_{m_2}^{r_2} ... sigma_{m_l}^{r_l},

one syllable per twist region of the closure diagram; its letters are the
|r_i| copies of sigma_{m_i} (or its inverse, for r_i < 0) in order.  A
syllable word is *cyclically reduced* when every exponent is nonzero and
cyclically adjacent syllables use distinct generators; every word reaches
that form by free cancellation and rotation, both of which preserve the
closure link.

Two structural predicates on the reduced form drive everything downstream:

* a *complete* subword is a contiguous window containing every generator
  sigma_1 ... sigma_{n-1};
* a word is *nice* when it is cyclically reduced and contains two disjoint
  complete subwords.  Windows here are contiguous runs of whole syllables of
  the linear (non-cyclic) word, so disjoint windows occupy disjoint syllable
  ranges.  For 3-braids this is equivalent to each generator occurring in at
  least two syllables.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

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
    "has_disjoint_complete_subwords",
    "has_cyclic_disjoint_complete_subwords",
    "is_nice",
]


@dataclass(frozen=True)
class SyllableWord:
    """A braid word grouped into syllables (generator, exponent).

    ``cyclically_reduced`` is derived, never trusted from the caller: it holds
    exactly when no two cyclically adjacent syllables share a generator (a
    single syllable counts as reduced).
    """

    n: int
    syllables: tuple[tuple[int, int], ...]  # (m_i, r_i) with r_i != 0
    cyclically_reduced: bool = field(init=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise BraidSyntaxError(f"strand count must be >= 1, got {self.n}")
        syl = tuple((int(m), int(r)) for m, r in self.syllables)
        object.__setattr__(self, "syllables", syl)
        for m, r in syl:
            if not 1 <= m <= self.n - 1:
                raise BraidSyntaxError(
                    f"syllable generator {m} is not a generator of B_{self.n}"
                )
            if r == 0:
                raise BraidSyntaxError("syllable exponent must be nonzero")
        reduced = all(
            syl[i][0] != syl[(i + 1) % len(syl)][0] for i in range(len(syl))
        ) if len(syl) >= 2 else True
        object.__setattr__(self, "cyclically_reduced", reduced)

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
        """Render in the parseable ``s<m>^<r>`` form."""
        parts = []
        for m, r in self.syllables:
            parts.append(f"s{m}" if r == 1 else f"s{m}^{r}")
        return " ".join(parts)


# Input limits for parse_braid, checked on the parsed integers, so that
# hostile input such as "s1^-1000000000" fails at once.  Parsing, reduction,
# the union-find of states.resolve_all_A and the Schreier normal form work
# per syllable (the normal form's cascades, which cancel units where
# syllables meet, are bounded by the letters they cancel); the letter limit
# bounds the layers that still work per letter: the circles closed inside
# twist regions that AllAState.circles builds when it is read, the SVG
# renderer's walk over the (c + 1) * n arc ids and its one dashed line per
# crossing, and the bracket sweep.  Both sit well above the sizes analyze is
# used at (about 1000 crossings, n <= 8).
MAX_WORD_LETTERS = 10_000
MAX_STRANDS = 32

# Numbers have at most 18 digits: int() refuses digit strings past 4300
# characters with a bare ValueError, and anything near that length is far
# beyond both limits anyway.
_TOKEN = re.compile(r"^(?:(-?\d{1,18})|[sS](\d{1,18})(?:\^(-?\d{1,18}))?)$")
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
    defaults to 1; a token of exponent 0 is dropped).  Every other token
    becomes one syllable: nothing is merged or cancelled.  When ``n`` is
    omitted it is inferred as one more than the largest generator index
    used.

    A word of more than ``MAX_WORD_LETTERS`` letters or tokens, or on more
    than ``MAX_STRANDS`` strands (given or inferred), raises
    PreconditionError.

    >>> parse_braid("s1^3 s2^-3 1 1 s3^-2 s2 s3").syllables
    ((1, 3), (2, -3), (1, 1), (1, 1), (3, -2), (2, 1), (3, 1))
    """
    if n is not None and n > MAX_STRANDS:
        raise _strand_limit_error(n)
    syllables: list[tuple[int, int]] = []
    letters = 0
    # k tokens take at least 2k - 1 characters, so a text of at most
    # 2 * MAX_WORD_LETTERS characters cannot pass the token limit and is
    # split whole, the faster read; a longer one is read lazily, so that a
    # hostile line is refused before it is split
    tokens = (
        text.split()
        if len(text) <= 2 * MAX_WORD_LETTERS
        else (found.group() for found in _NONSPACE.finditer(text))
    )
    for count, token in enumerate(tokens):
        if count == MAX_WORD_LETTERS:
            raise PreconditionError(
                f"word has more than {MAX_WORD_LETTERS} tokens, the limit"
            )
        match = _TOKEN.match(token)
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
        if r == 0:  # s40^0 adds no letter and no strand
            continue
        if n is None and m >= MAX_STRANDS:
            raise PreconditionError(
                f"word needs {m + 1} strands, above the limit of {MAX_STRANDS}"
            )
        letters += abs(r)
        if letters > MAX_WORD_LETTERS:
            raise PreconditionError(_LETTER_LIMIT)
        syllables.append((m, r))
    if n is None:
        n = max((m for m, _ in syllables), default=0) + 1
    return SyllableWord(n, tuple(syllables))


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
    in which nothing merges is returned as it is, the same object.

    >>> cyclically_reduce_into_syllables(parse_braid("-2 1 1 1 2")).syllables
    ((1, 3),)
    """
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
    if lo == 0 and len(stack) == len(word.syllables):
        return word  # nothing merged: already reduced, and validated
    return SyllableWord(word.n, tuple(stack[lo:]))


def exponent_sum(word: SyllableWord) -> int:
    """Algebraic crossing count; invariant under conjugation and reduction."""
    return sum(r for _, r in word.syllables)


Window = tuple[int, int]  # inclusive syllable index range


def _complete_end(word: SyllableWord, start: int) -> int:
    """The end (exclusive) of the shortest complete window of ``word`` from
    syllable ``start``, or len(word.syllables) + 1 when there is none."""
    seen: set[int] = set()
    for j in range(start, len(word.syllables)):
        seen.add(word.syllables[j][0])
        if len(seen) == word.n - 1:
            return j + 1
    return len(word.syllables) + 1


def has_disjoint_complete_subwords(
    word: SyllableWord,
) -> tuple[bool, tuple[Window, Window] | None]:
    """Find two disjoint complete windows in the linear word, if any exist.

    A window is a contiguous range of syllables; complete means every
    generator of B_n appears in it.  Detection is greedy and exact: take the
    shortest complete prefix, then the shortest complete window after it.
    The witness, when found, is the pair of inclusive index ranges.
    """
    first = _complete_end(word, 0)
    second = _complete_end(word, first)
    if second > len(word.syllables):
        return False, None
    return True, ((0, first - 1), (first, second - 1))


def has_cyclic_disjoint_complete_subwords(word: SyllableWord) -> bool:
    """Whether some rotation of the word admits a disjoint complete pair.

    Used to report the near-miss where windows exist only across the closure
    seam; the niceness predicate itself stays linear.  One two-pointer pass
    over the doubled syllable sequence finds ends[i], the end (exclusive) of
    the shortest complete window starting at i.  The rotation starting at i
    has a pair iff that window and the shortest complete one after it both
    end within t syllables of i.
    """
    t = len(word.syllables)
    gens = [m for m, _ in word.syllables] * 2
    counts = [0] * word.n
    missing = word.n - 1  # generators absent from the window [i, j)
    ends: list[int] = []
    j = 0
    for i in range(2 * t):
        while missing and j < 2 * t:
            missing -= counts[gens[j]] == 0
            counts[gens[j]] += 1
            j += 1
        ends.append(2 * t if missing else j)
        counts[gens[i]] -= 1
        missing += counts[gens[i]] == 0
    return any(ends[i] <= i + t and ends[ends[i]] <= i + t for i in range(t))


def is_nice(word: SyllableWord) -> bool:
    """Cyclically reduced with two disjoint complete subwords.

    For n = 3 this is equivalent to each of sigma_1, sigma_2 occurring in at
    least two syllables of the reduced word.
    """
    return word.cyclically_reduced and has_disjoint_complete_subwords(word)[0]
