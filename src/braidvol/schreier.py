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
list is canonicalized to its lexicographically least rotation (read from
Duval's Lyndon factorization), so two 3-braids are conjugate iff their
forms compare equal.

On a word that passes the family gate the form is read off the syllables
(``direct_form``).  Write A = xy and B = xy^2.  The syllables alternate,
every negative exponent is at most -3, and a positive syllable sits between
two negative ones, so sigma_1^(-p) = A^p, sigma_2^q = B^q,
sigma_2^(-q) = y A^(q-1) x and sigma_1^p = y^2 B^(p-1) x meet at only four
kinds of seam that reduce:

    sigma_2^- sigma_1^-:  x x -> C^(-1), and the A before the seam joins
                          the y after it to make one B;
    sigma_1^- sigma_2^-:  the last A takes the leading y and becomes a B;
    sigma_2^- sigma_1^+:  x y^2 is one B;
    sigma_1^+ sigma_2^-:  x y is one A.

So each negative syllable (g, r), with exponent pre before it and post after
it (cyclically), gives the pair

    (-r - 2 + (pre > 0) + (post > 0),  post if post > 0 else 1),

its A's and then the B's up to the next negative syllable, and k is minus
the number of negative sigma_2 syllables followed by a negative sigma_1
syllable.  Every p is at least 1, so the form is generic with s the number
of negative syllables.

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

from enum import Enum
from typing import NamedTuple

from .errors import PreconditionError
from .families import check_main_lemma
from .words import SyllableWord, _checked_make, cyclically_reduce_into_syllables

__all__ = [
    "XYWord",
    "EtaKind",
    "SchreierForm",
    "HyperbolicityResult",
    "to_xy",
    "schreier_normal_form",
    "direct_form",
    "direct_read_k",
    "direct_read_s",
    "conjugate_3braids",
    "hyperbolicity_of_form",
    "is_hyperbolic_closure_3braid",
]

X = "x"
Y = "y"


class _XYWordFields(NamedTuple):
    runs: tuple[tuple[str, int], ...]
    j: int


class XYWord(_XYWordFields):
    """A cyclic positive word in x, y as run-length pairs, times C^j.

    The normal form never builds one.  It stays public for the perfbench
    ``schreier.xy_length`` count, which reads ``to_xy(word).length``; when
    that count goes, this class and :func:`to_xy` move into the
    letter-level test oracle beside ``normalize_xy``, which also starts
    from them.  An immutable named tuple ``(runs, j)``; ``_replace`` and
    ``_make`` check the runs as the constructor does.
    """

    __slots__ = ()

    def __new__(cls, runs: tuple[tuple[str, int], ...], j: int = 0) -> XYWord:
        for ch, count in runs:
            if ch not in (X, Y) or count < 1:
                raise ValueError(f"bad run {(ch, count)!r}")
        return tuple.__new__(cls, (runs, j))

    _make = classmethod(_checked_make)

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
    """The lexicographically least rotation, read from Duval's Lyndon
    factorization of the doubled list ("Factorizing words over an ordered
    alphabet", J. Algorithms 4, 1983): the last factor to start in the first
    half starts it, O(s)."""
    doubled, s = pairs + pairs, len(pairs)
    i = start = 0
    while i < s:
        start, j, k = i, i + 1, i
        while j < 2 * s and doubled[k] <= doubled[j]:
            k = i if doubled[k] < doubled[j] else k + 1
            j += 1
        while i <= k:
            i += j - k
    return doubled[start : start + s]


class _SchreierFormFields(NamedTuple):
    k: int
    kind: EtaKind
    pairs: tuple[tuple[int, int], ...]  # generic only, p_i, q_i >= 1
    power: int  # POWER_SIGMA1 only, nonzero


class SchreierForm(_SchreierFormFields):
    """The conjugacy normal form C^k * eta' of a 3-braid.

    An immutable named tuple ``(k, kind, pairs, power)``; the generic
    form's pairs are kept in their least rotation.  ``_replace`` and
    ``_make`` check and rotate as the constructor does.
    """

    __slots__ = ()

    def __new__(
        cls,
        k: int,
        kind: EtaKind,
        pairs: tuple[tuple[int, int], ...] = (),
        power: int = 0,
    ) -> SchreierForm:
        if kind is EtaKind.GENERIC:
            if not pairs or any(p < 1 or q < 1 for p, q in pairs):
                raise ValueError("generic form needs pairs with p, q >= 1")
            pairs = _least_rotation(pairs)
        elif pairs:
            raise ValueError("pairs only apply to the generic form")
        if kind is EtaKind.POWER_SIGMA1:
            if power == 0:
                raise ValueError("sigma_1 power must be nonzero")
        elif power:
            raise ValueError("power only applies to the power form")
        return tuple.__new__(cls, (k, kind, pairs, power))

    _make = classmethod(_checked_make)

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


def direct_form(word: SyllableWord) -> SchreierForm:
    """The normal form of a family 3-braid word, read off its syllables.

    Raises PreconditionError unless the word is a 3-braid that passes the
    family gate; see :func:`_direct_form` for the read.

    >>> form = direct_form(SyllableWord(3, ((1, 3), (2, -3), (1, -4), (2, -3))))
    >>> form.k, form.pairs
    (-1, ((2, 1), (2, 1), (2, 3)))
    """
    return _direct_form(_family_3braid(word))


def _direct_form(word: SyllableWord) -> SchreierForm:
    """``direct_form`` on a gated family 3-braid word, in one loop.

    Each negative syllable gives one pair, from its exponent r and the
    exponents pre and post of its cyclic neighbours:
    (-r - 2 + (pre > 0) + (post > 0), post if post > 0 else 1).  k is minus
    the number of negative sigma_2 syllables followed by a negative
    syllable.  The module docstring gives the seam rules behind both.
    """
    syl = word.syllables
    k = 0
    pairs = []
    pre = syl[-2][1]
    g, r = syl[-1]
    for g_next, post in syl:
        if r < 0:
            if post > 0:
                pairs.append((-r - 1 + (pre > 0), post))
            else:
                pairs.append((-r - 2 + (pre > 0), 1))
                if g == 2:
                    k -= 1
        pre, g, r = r, g_next, post
    return SchreierForm(k, EtaKind.GENERIC, tuple(pairs))


def direct_read_k(word: SyllableWord) -> int:
    """k of a family 3-braid word, read off its syllables:
    ``direct_form(word).k``."""
    return direct_form(word).k


def direct_read_s(word: SyllableWord) -> int:
    """s of a family 3-braid word, its negative twist-region count:
    ``direct_form(word).s``."""
    return direct_form(word).s


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
