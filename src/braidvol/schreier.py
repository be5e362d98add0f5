"""Schreier conjugacy normal forms for 3-strand braids.

B_3 is generated by x = (sigma_1 sigma_2 sigma_1)^(-1) and y = sigma_1
sigma_2, with C = x^(-2) = y^3 generating the center.  Modulo the center the
group is the free product Z/2 * Z/3, so every conjugacy class has a unique
representative C^k * eta with eta a cyclic word in x, y, y^2 containing no
xx and no yyy.

Substitutions: sigma_1 = y^2 x, sigma_2 = x y^2, sigma_1^(-1) = x y,
sigma_2^(-1) = y x.  The image of one syllable is already reduced:

    sigma_1^(-p) = (xy)^p               sigma_2^q    = (xy^2)^q
    sigma_1^p    = y^2 (xy^2)^(p-1) x   sigma_2^(-q) = y (xy)^(q-1) x,

so xx -> C^(-1) and yyy -> C can fire only where syllables meet.  The
normal form is one stack sweep over the syllables, which never expands a
word into letters.  The stack holds the reduced prefix as a leading y-run,
blocks [a, m] = (x y^a)^m and a trailing x; each syllable pushes at most
those three items.  A reduction where syllables meet takes one unit off the
end of a block.  A cascade (for example through sigma_1 sigma_2 sigma_1 ...)
goes on one unit at a time.  The cyclic seam is closed by moving units from
the bottom of the stack to the top while the two ends share a letter.  The
reduced residue is one of

    (xy)^p1 (xy^2)^q1 ... (xy)^ps (xy^2)^qs   (the generic shape)
    (xy)^p | (xy^2)^q | y | y^2 | x | empty,

which translate to sigma_1^(-p1) sigma_2^(q1) ..., sigma_1^p, sigma_1 sigma_2,
(sigma_1 sigma_2)^2, C^(-1) sigma_1 sigma_2 sigma_1, and the identity; the
(p_i, q_i) are the m of the blocks with a = 1 and a = 2.  The generic pair
list is canonicalized to its lexicographically least rotation (Booth's
algorithm), so two 3-braids are conjugate iff their forms compare equal.

The closure of a 3-braid is hyperbolic iff its form is generic and the braid
is not conjugate to sigma_1^p sigma_2^q.  Conjugate braids share their form,
so the second condition compares with the forms of the words sigma_1^p
sigma_2^q.  For a = |p|, b = |q| these are generic exactly in the cases

    p < 0 < q:                    k = 0,  pairs ((a, b))
    p, q <= -3:                   k = -1, pairs ((a - 2, 1), (b - 2, 1))
    p = -1, q <= -5:              k = -1, pairs ((b - 4, 1))
    p = -2, q <= -3:              k = -1, pairs ((b - 2, 2))
    p, q >= 3:                    k = +1, pairs ((1, a - 2), (1, b - 2))
    p = 1, q >= 5:                k = +1, pairs ((1, b - 4))
    p = 2, q >= 3:                k = +1, pairs ((2, b - 2))

and in the same cases with p and q swapped (the two words are conjugate);
every other two-syllable word has a non-generic form.  Every row has s <= 2,
so a generic form with s >= 3 is hyperbolic, and a generic form with s <= 2
is hyperbolic unless reading a row backwards gives its (p, q).
tests/test_schreier.py checks the table against the normal forms of every
word with |p|, |q| <= 40.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from . import words
from .errors import PreconditionError
from .families import check_main_lemma
from .states import twist_counts
from .words import SyllableWord, cyclically_reduce_into_syllables

__all__ = [
    "XYWord",
    "EtaKind",
    "SchreierForm",
    "HyperbolicityResult",
    "to_xy",
    "schreier_normal_form",
    "direct_read_k",
    "direct_read_s",
    "conjugate_3braids",
    "hyperbolicity_of_form",
    "is_hyperbolic_closure_3braid",
]

X = "x"
Y = "y"


@dataclass(frozen=True)
class XYWord:
    """A cyclic positive word in x, y as run-length pairs, times C^j.

    The normal form never builds one.  It stays public for the perfbench
    ``schreier.xy_length`` count, which reads ``to_xy(word).length``; when
    that count goes, this class and :func:`to_xy` move into the
    letter-level test oracle beside ``normalize_xy``, which also starts
    from them.
    """

    runs: tuple[tuple[str, int], ...]
    j: int = 0

    def __post_init__(self) -> None:
        for ch, count in self.runs:
            if ch not in (X, Y) or count < 1:
                raise ValueError(f"bad run {(ch, count)!r}")

    @property
    def length(self) -> int:
        return sum(count for _, count in self.runs)


class EtaKind(str, Enum):
    GENERIC = "generic"
    POWER_SIGMA1 = "power_sigma1"
    SIGMA12 = "sigma12"
    SIGMA121 = "sigma121"
    SIGMA1212 = "sigma1212"
    EMPTY = "empty"


def _least_rotation(
    pairs: tuple[tuple[int, int], ...]
) -> tuple[tuple[int, int], ...]:
    """The lexicographically least rotation, by Booth's algorithm
    ("Lexicographically least circular substrings", Inf. Proc. Letters 10,
    1980): one failure-function pass over the doubled list, O(s)."""
    doubled = pairs + pairs
    fail = [-1] * len(doubled)
    k = 0  # start of the least rotation found so far
    for j in range(1, len(doubled)):
        c = doubled[j]
        i = fail[j - k - 1]
        while i != -1 and c != doubled[k + i + 1]:
            if c < doubled[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if i == -1 and c != doubled[k]:
            if c < doubled[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return doubled[k : k + len(pairs)]


@dataclass(frozen=True)
class SchreierForm:
    """The conjugacy normal form C^k * eta' of a 3-braid."""

    k: int
    kind: EtaKind
    pairs: tuple[tuple[int, int], ...] = ()  # generic only, p_i, q_i >= 1
    power: int = 0  # POWER_SIGMA1 only, nonzero

    def __post_init__(self) -> None:
        if self.kind is EtaKind.GENERIC:
            if not self.pairs or any(p < 1 or q < 1 for p, q in self.pairs):
                raise ValueError("generic form needs pairs with p, q >= 1")
            object.__setattr__(self, "pairs", _least_rotation(self.pairs))
        elif self.pairs:
            raise ValueError("pairs only apply to the generic form")
        if self.kind is EtaKind.POWER_SIGMA1:
            if self.power == 0:
                raise ValueError("sigma_1 power must be nonzero")
        elif self.power:
            raise ValueError("power only applies to the power form")

    @property
    def s(self) -> int:
        """Number of syllable pairs in the generic shape (0 otherwise)."""
        return len(self.pairs)

    @property
    def generic(self) -> bool:
        return self.kind is EtaKind.GENERIC

    @property
    def degenerate_eta(self) -> bool:
        """True for the residues eta in {x, 1} with inferred sigma images."""
        return self.kind in (EtaKind.SIGMA121, EtaKind.EMPTY)

    @property
    def exponent_sum(self) -> int:
        """6k plus the exponent sum of eta, read off the expanded word."""
        return words.exponent_sum(self.to_braid_word())

    def to_braid_word(self) -> SyllableWord:
        """Expand back to a word, C as (sigma_1 sigma_2 sigma_1)^2."""
        sign = 1 if self.k >= 0 else -1
        syllables = [(1, sign), (2, sign), (1, sign)] * (2 * abs(self.k))
        if self.kind is EtaKind.GENERIC:
            for p, q in self.pairs:
                syllables.extend(((1, -p), (2, q)))
        elif self.kind is EtaKind.POWER_SIGMA1:
            syllables.append((1, self.power))
        elif self.kind is EtaKind.SIGMA12:
            syllables.extend(((1, 1), (2, 1)))
        elif self.kind is EtaKind.SIGMA121:
            syllables.extend(((1, 1), (2, 1), (1, 1)))
        elif self.kind is EtaKind.SIGMA1212:
            syllables.extend(((1, 1), (2, 1), (1, 1), (2, 1)))
        return SyllableWord(3, tuple(syllables))

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "s": self.s,
            "eta_kind": self.kind.value,
            "pairs": [list(pq) for pq in self.pairs],
            "power": self.power if self.kind is EtaKind.POWER_SIGMA1 else None,
            "degenerate_eta": self.degenerate_eta,
        }


class HyperbolicityResult(NamedTuple):
    hyperbolic: bool
    reason: str | None


def _require_3braid(word: SyllableWord) -> SyllableWord:
    if word.n != 3:
        raise PreconditionError(f"Schreier forms need n = 3, got n = {word.n}")
    if not word.cyclically_reduced:
        return cyclically_reduce_into_syllables(word)
    return word


# sigma letter -> its xy word as runs, keyed by (generator, positive)
_XY_LETTER = {
    (1, True): ((Y, 2), (X, 1)),  # sigma_1 = y^2 x
    (2, True): ((X, 1), (Y, 2)),  # sigma_2 = x y^2
    (1, False): ((X, 1), (Y, 1)),  # sigma_1^(-1) = x y
    (2, False): ((Y, 1), (X, 1)),  # sigma_2^(-1) = y x
}


def to_xy(word: SyllableWord) -> XYWord:
    """Rewrite a 3-braid word as a positive word in x and y.

    The input is cyclically reduced first (a conjugacy-safe move).  A
    syllable repeats one two-run letter image, so only its first run can
    merge with the run before it.  The normal form works on syllables and
    never calls this; the letter-level test oracle starts from it, and it
    stays public for the perfbench ``schreier.xy_length`` count (see
    :class:`XYWord`).
    """
    word = _require_3braid(word)
    runs: list[tuple[str, int]] = []
    for m, r in word.syllables:
        head, tail = _XY_LETTER[m, r > 0]
        if runs and runs[-1][0] == head[0]:
            runs[-1] = (head[0], runs[-1][1] + head[1])
        else:
            runs.append(head)
        runs.extend((tail, head) * (abs(r) - 1))
        runs.append(tail)
    return XYWord(tuple(runs))


# syllable image as y^head (x y^a)^(|r| + offset) x^tail, keyed by
# (generator, positive); see the module docstring
_SYLLABLE_IMAGE = {
    (1, False): (0, 1, 0, False),  # sigma_1^(-p) = (xy)^p
    (2, True): (0, 2, 0, False),  # sigma_2^q = (xy^2)^q
    (1, True): (2, 2, -1, True),  # sigma_1^p = y^2 (xy^2)^(p-1) x
    (2, False): (1, 1, -1, True),  # sigma_2^(-q) = y (xy)^(q-1) x
}


def schreier_normal_form(word: SyllableWord) -> SchreierForm:
    """The conjugacy normal form of a 3-braid word, in one block sweep.

    >>> form = schreier_normal_form(SyllableWord(3, ((1, -3), (2, -3))))
    >>> form.k, form.kind.value, form.pairs
    (-1, 'generic', ((1, 1), (1, 1)))
    """
    word = _require_3braid(word)
    j = 0  # the exponent of C
    lead = 0  # the leading y-run, 0 to 2
    blocks: list[list[int]] = []  # [a, m] = (x y^a)^m, neighbours differ in a
    tail = False  # a trailing x

    def push_unit(a: int, m: int = 1) -> None:
        if blocks and blocks[-1][0] == a:
            blocks[-1][1] += m
        else:
            blocks.append([a, m])

    def pop_unit(at: int) -> int:
        block = blocks[at]
        if block[1] == 1:
            del blocks[at]
        else:
            block[1] -= 1
        return block[0]

    def push_y(c: int) -> None:
        nonlocal j, lead, tail
        if tail:
            tail = False
            push_unit(c)
        elif blocks:  # y^c meets the y^a that ends the last unit
            total = pop_unit(-1) + c
            if total == 3:
                j += 1
                tail = True  # that unit's x is now on top
            else:
                j += total // 3
                push_unit(total % 3)
        else:
            j += (lead + c) // 3
            lead = (lead + c) % 3

    def push_block(a: int, m: int) -> None:
        nonlocal j, tail
        while m and tail:  # the block's first x meets the trailing x
            j -= 1
            tail = False
            m -= 1
            push_y(a)
        if m:
            push_unit(a, m)

    for g, r in word.syllables:
        head, a, offset, x_tail = _SYLLABLE_IMAGE[g, r > 0]
        if head:
            push_y(head)
        if abs(r) + offset:
            push_block(a, abs(r) + offset)
        if x_tail:
            if tail:
                j -= 1
            tail = not tail

    # the seam: the top of the stack is cyclically followed by its bottom
    while True:
        if lead and tail:  # rotate the trailing x to the front: x y^lead
            if blocks and blocks[0][0] == lead:
                blocks[0][1] += 1
            else:
                blocks.insert(0, [lead, 1])
            lead, tail = 0, False
        elif lead and blocks:  # move the leading y-run to the top
            c, lead = lead, 0
            push_y(c)
            continue
        elif tail and blocks:  # x . x y^a = C^(-1) y^a
            j -= 1
            tail = False
            push_y(pop_unit(0))
            continue
        break

    if not blocks:
        if tail:  # x = C^(-1) sigma_1 sigma_2 sigma_1
            return SchreierForm(k=j - 1, kind=EtaKind.SIGMA121)
        if lead:
            kind = EtaKind.SIGMA12 if lead == 1 else EtaKind.SIGMA1212
            return SchreierForm(k=j, kind=kind)
        return SchreierForm(k=j, kind=EtaKind.EMPTY)
    if len(blocks) > 1 and blocks[0][0] == blocks[-1][0]:
        blocks[0][1] += blocks.pop()[1]
    if len(blocks) == 1:  # (xy)^p = sigma_1^(-p); (xy^2)^q = sigma_2^q ~ sigma_1^q
        a, m = blocks[0]
        return SchreierForm(
            k=j, kind=EtaKind.POWER_SIGMA1, power=-m if a == 1 else m
        )
    # the blocks alternate a = 1 and a = 2; pair them from a 1-block
    counts = [m for _, m in blocks]
    if blocks[0][0] == 2:
        counts = counts[1:] + counts[:1]
    pairs = tuple(zip(counts[0::2], counts[1::2]))
    return SchreierForm(k=j, kind=EtaKind.GENERIC, pairs=pairs)


def _family_3braid(word: SyllableWord) -> SyllableWord:
    if word.n != 3:
        raise PreconditionError("direct reads need n = 3")
    if not check_main_lemma(word).passed:
        raise PreconditionError("direct reads need a family word")
    return word


def direct_read_k(word: SyllableWord) -> int:
    """Read k off a family 3-braid word without normalizing.

    k is minus the number of cyclic adjacencies (sigma_2 long syllable
    followed by sigma_1 long syllable).
    """
    return _read_k(_family_3braid(word))


def _read_k(word: SyllableWord) -> int:
    """``direct_read_k`` on a gated family 3-braid word."""
    # The paper reads k off the word.  In the block sweep of
    # schreier_normal_form, sigma_2^(-q) = y (xy)^(q-1) x followed by
    # sigma_1^(-p) = (xy)^p is the one place where family syllables meet at
    # which the sweep gives up a C^(-1): x x -> C^(-1), and the y's that meet
    # then make y^2, not yyy.  Every other meeting in a family word is
    # already reduced.
    syl = word.syllables
    t = len(syl)
    count = 0
    for i in range(t):
        m, r = syl[i]
        m2, r2 = syl[(i + 1) % t]
        if m == 2 and r <= -3 and m2 == 1 and r2 <= -3:
            count += 1
    return -count


def direct_read_s(word: SyllableWord) -> int:
    """Read s off a family 3-braid word: the negative twist-region count."""
    return twist_counts(_family_3braid(word))[2]


def conjugate_3braids(a: SyllableWord, b: SyllableWord) -> bool:
    """Whether two 3-braids are conjugate in B_3."""
    return schreier_normal_form(a) == schreier_normal_form(b)


def _two_syllable_exponents(form: SchreierForm) -> tuple[int, int] | None:
    """The (p, q) whose sigma_1^p sigma_2^q has this generic form, read off
    the table in the module docstring backwards; None when no row fits."""
    k, pairs = form.k, form.pairs
    if k == 0 and len(pairs) == 1:
        ((a, b),) = pairs
        return -a, b
    if k == -1:
        if len(pairs) == 2 and pairs[0][1] == pairs[1][1] == 1:
            return -(pairs[0][0] + 2), -(pairs[1][0] + 2)
        if len(pairs) == 1 and pairs[0][1] <= 2:
            ((a, b),) = pairs
            return (-1, -(a + 4)) if b == 1 else (-2, -(a + 2))
    if k == 1:
        if len(pairs) == 2 and pairs[0][0] == pairs[1][0] == 1:
            return pairs[0][1] + 2, pairs[1][1] + 2
        if len(pairs) == 1 and pairs[0][0] <= 2:
            ((a, b),) = pairs
            return (1, b + 4) if a == 1 else (2, b + 2)
    return None


def hyperbolicity_of_form(form: SchreierForm) -> HyperbolicityResult:
    """Decide hyperbolicity of the closure from the braid's normal form.

    Non-generic forms are not hyperbolic.  A generic form is hyperbolic
    unless it is the form of some sigma_1^p sigma_2^q (the table in the
    module docstring); the reason names the lesser of (p, q) and (q, p).
    """
    if not form.generic:
        return HyperbolicityResult(False, "non-generic normal form")
    pq = _two_syllable_exponents(form)
    if pq is None:
        return HyperbolicityResult(True, None)
    p, q = min(pq, pq[::-1])
    return HyperbolicityResult(False, f"conjugate to sigma1^{p} sigma2^{q}")


def is_hyperbolic_closure_3braid(word: SyllableWord) -> HyperbolicityResult:
    """Decide hyperbolicity of the closure of a 3-braid.

    Computes the normal form and applies hyperbolicity_of_form: the closure
    is hyperbolic iff the form is generic and not that of some
    sigma_1^p sigma_2^q.
    """
    return hyperbolicity_of_form(schreier_normal_form(word))
