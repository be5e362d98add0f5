"""Braid words on n strands and their syllable decompositions.

A braid word is a sequence of signed letters, letter ``g > 0`` standing for
the Artin generator sigma_g and ``-g`` for its inverse.  Grouping maximal
runs of equal generator gives the syllable form

    sigma_{m_1}^{r_1} sigma_{m_2}^{r_2} ... sigma_{m_l}^{r_l},

one syllable per twist region of the closure diagram.  A syllable word is
*cyclically reduced* when every exponent is nonzero and cyclically adjacent
syllables use distinct generators; every word reaches that form by free
cancellation and rotation, both of which preserve the closure link.

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

from .errors import BraidSyntaxError, PreconditionError

__all__ = [
    "MAX_STRANDS",
    "MAX_WORD_LETTERS",
    "BraidWord",
    "SyllableWord",
    "parse_braid",
    "mirror",
    "cyclically_reduce_into_syllables",
    "cyclically_reduce_with_rotation",
    "exponent_sum",
    "has_disjoint_complete_subwords",
    "has_cyclic_disjoint_complete_subwords",
    "is_nice",
]


@dataclass(frozen=True)
class BraidWord:
    """A word in the braid group B_n, as a flat letter sequence."""

    n: int  # number of strands, >= 1
    letters: tuple[int, ...]  # signed generator indices, 0 < |g| <= n - 1

    def __post_init__(self) -> None:
        if self.n < 1:
            raise BraidSyntaxError(f"strand count must be >= 1, got {self.n}")
        object.__setattr__(self, "letters", tuple(self.letters))
        for g in self.letters:
            if g == 0 or abs(g) > self.n - 1:
                raise BraidSyntaxError(
                    f"letter {g} is not a generator of B_{self.n}"
                )

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def exponent_sum(self) -> int:
        return sum(1 if g > 0 else -1 for g in self.letters)


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

    def __len__(self) -> int:
        return len(self.syllables)

    @property
    def letters(self) -> tuple[int, ...]:
        """Flat letter expansion, |r_i| copies of +-m_i per syllable."""
        out: list[int] = []
        for m, r in self.syllables:
            out.extend([m if r > 0 else -m] * abs(r))
        return tuple(out)

    @property
    def crossings(self) -> int:
        return sum(abs(r) for _, r in self.syllables)

    @property
    def exponent_sum(self) -> int:
        return sum(r for _, r in self.syllables)

    def to_braid_word(self) -> BraidWord:
        return BraidWord(self.n, self.letters)

    def as_text(self) -> str:
        """Render in the parseable ``s<m>^<r>`` form."""
        parts = []
        for m, r in self.syllables:
            parts.append(f"s{m}" if r == 1 else f"s{m}^{r}")
        return " ".join(parts)


# Input limits for parse_braid, checked on the parsed integers before they
# are expanded into letters, so that hostile input such as "s1^-1000000000"
# fails at once instead of allocating.  Both sit well above the sizes analyze
# is used at (about 1000 crossings, n <= 8); the cost of analyze grows with
# letters times strands.
MAX_WORD_LETTERS = 10_000
MAX_STRANDS = 32

# Numbers have at most 18 digits: int() refuses digit strings past 4300
# characters with a bare ValueError, and anything near that length is far
# beyond both limits anyway.
_TOKEN = re.compile(r"^(?:(-?\d{1,18})|[sS](\d{1,18})(?:\^(-?\d{1,18}))?)$")


def parse_braid(text: str, n: int | None = None) -> BraidWord:
    """Parse a whitespace-separated braid word.

    Each token is either a signed integer (``3`` for sigma_3, ``-2`` for the
    inverse of sigma_2) or syllable notation ``s3^-2`` / ``S3`` (exponent
    defaults to 1; exponent 0 expands to no letters).  When ``n`` is omitted
    it is inferred as one more than the largest generator index used.

    A word of more than ``MAX_WORD_LETTERS`` letters, or on more than
    ``MAX_STRANDS`` strands (given or inferred), raises PreconditionError
    before its letters are expanded.

    >>> parse_braid("s1^3 s2^-3 s1^2 s3^-2 s2 s3").letters
    (1, 1, 1, -2, -2, -2, 1, 1, -3, -3, 2, 3)
    """
    if n is not None and n > MAX_STRANDS:
        raise PreconditionError(
            f"strand count {n} is above the limit of {MAX_STRANDS}"
        )
    letters: list[int] = []
    for token in text.split():
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
        if n is None and r and m >= MAX_STRANDS:  # s40^0 adds no strand
            raise PreconditionError(
                f"word needs {m + 1} strands, above the limit of {MAX_STRANDS}"
            )
        if len(letters) + abs(r) > MAX_WORD_LETTERS:
            raise PreconditionError(
                f"word has more than {MAX_WORD_LETTERS} letters, the limit"
            )
        letters.extend([m if r > 0 else -m] * abs(r))
    if n is None:
        n = max((abs(g) for g in letters), default=0) + 1
    return BraidWord(n, tuple(letters))


def mirror(word: BraidWord) -> BraidWord:
    """The mirror word: every letter's sign flipped in place."""
    return BraidWord(word.n, tuple(-g for g in word.letters))


def cyclically_reduce_with_rotation(
    word: BraidWord,
) -> tuple[SyllableWord, int]:
    """Cyclically reduce and group into syllables, tracking rotation.

    Returns the reduced syllable word together with the net left rotation
    (in letters) applied to the surviving sequence, so callers can map
    output letter positions back onto the input.  Reduction removes adjacent
    inverse pairs, including pairs meeting across the closure seam, then
    merges syllable runs cyclically.
    """
    letters = list(word.letters)
    rotation = 0
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
            # seam pair cancels across the closure; rotate it into view
            letters = letters[1:] + letters[:1]
            rotation += 1
            continue
        if not cancelled:
            break

    # group into syllables; a trailing run equal to the leading generator
    # belongs to the same cyclic syllable, so rotate the seam run forward
    if letters:
        head = abs(letters[0])
        tail = 0
        while tail < len(letters) and abs(letters[-1 - tail]) == head:
            tail += 1
        if tail < len(letters):
            letters = letters[-tail:] + letters[:-tail] if tail else letters
            rotation -= tail
    syllables: list[tuple[int, int]] = []
    for g in letters:
        m, s = abs(g), (1 if g > 0 else -1)
        if syllables and syllables[-1][0] == m:
            syllables[-1] = (m, syllables[-1][1] + s)
        else:
            syllables.append((m, s))
    return SyllableWord(word.n, tuple(syllables)), rotation


def cyclically_reduce_into_syllables(word: BraidWord) -> SyllableWord:
    """Cyclically reduce ``word`` and return its syllable form.

    >>> cyclically_reduce_into_syllables(BraidWord(3, (-2, 1, 1, 1, 2))).syllables
    ((1, 3),)
    """
    return cyclically_reduce_with_rotation(word)[0]


def exponent_sum(word: BraidWord | SyllableWord) -> int:
    """Algebraic crossing count; invariant under conjugation and reduction."""
    return word.exponent_sum


Window = tuple[int, int]  # inclusive syllable index range


def has_disjoint_complete_subwords(
    word: SyllableWord,
) -> tuple[bool, tuple[Window, Window] | None]:
    """Find two disjoint complete windows in the linear word, if any exist.

    A window is a contiguous range of syllables; complete means every
    generator of B_n appears in it.  Detection is greedy and exact: take the
    shortest complete prefix, then scan the remainder for completeness.  The
    witness, when found, is the pair of inclusive index ranges.
    """
    need = set(range(1, word.n))
    if not word.syllables or not need:
        return False, None
    seen: set[int] = set()
    first_end = -1
    for i, (m, _) in enumerate(word.syllables):
        seen.add(m)
        if seen == need:
            first_end = i
            break
    if first_end < 0:
        return False, None
    seen = set()
    for j in range(first_end + 1, len(word.syllables)):
        seen.add(word.syllables[j][0])
        if seen == need:
            return True, ((0, first_end), (first_end + 1, j))
    return False, None


def has_cyclic_disjoint_complete_subwords(word: SyllableWord) -> bool:
    """Whether some rotation of the word admits a disjoint complete pair.

    Used to report the near-miss where windows exist only across the closure
    seam; the niceness predicate itself stays linear.
    """
    syl = word.syllables
    for rot in range(len(syl)):
        rotated = SyllableWord(word.n, syl[rot:] + syl[:rot])
        if has_disjoint_complete_subwords(rotated)[0]:
            return True
    return False


def is_nice(word: SyllableWord) -> bool:
    """Cyclically reduced with two disjoint complete subwords.

    For n = 3 this is equivalent to each of sigma_1, sigma_2 occurring in at
    least two syllables of the reduced word.
    """
    return word.cyclically_reduced and has_disjoint_complete_subwords(word)[0]
