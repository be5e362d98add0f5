"""Exact Kauffman bracket of a closed-braid diagram.

The bracket is the state sum over all smoothing assignments,

    <D> = sum over states  A^(a-b) * delta^(loops - 1),   delta = -A^2 - A^(-2),

with a and b the number of A- and B-smoothed crossings and loops the number
of circles the smoothing leaves.  A positive letter's A-smoothing lets both
strands pass straight through; a negative letter's A-smoothing joins them in
a cap and a cup; B-smoothings are the other way around.

The sum is never expanded state by state.  ``_sweep`` goes down the braid
one syllable (twist region) at a time in the Temperley-Lieb picture
(Kauffman, "State models and the Jones polynomial", Topology 26, 1987):
partial states with the same non-crossing matching of the boundary points
are merged, so the cost is O(c * Catalan(n) * degree span) rather than
exponential in c.  No degree exceeds top = c + 2(|s_A| - 1) (Lickorish,
"An Introduction to Knot Theory", ch. 5), and each is congruent to top mod
4: switching one smoothing from A to B moves a state's highest degree by 0
or -4, and delta steps by 4.  So a matching keeps dense slots 4 degrees
apart, from the most the all-A smoothing of the rest of the braid adds
down.  ``kauffman_bracket`` keeps every slot and ``bracket_top`` the
degrees top and top - 4 (top - 1 to top - 3 are always 0), so the window,
not the degree span, sets its cost.  Coefficients are exact Python integers.

This module exists to cross-check the penultimate-coefficient identity
|coeff(top - 4)| = 1 + (e' - v) of the reduced state graph on A-adequate
diagrams (Dasbach-Lin), which needs only ``bracket_top``.  Words past the
input limits of ``words.parse_braid`` and diagrams on more than
``MAX_BRACKET_STRANDS`` (8) strands are refused.  ``kauffman_bracket``
also refuses a diagram above the crossing cap for its strand count (see
``DEFAULT_MAX_CROSSINGS``); ``bracket_top`` needs no cap, since the input
limits already bound its window.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from functools import cache
from math import comb, isqrt
from sys import maxsize
from typing import NamedTuple

from .errors import CrossingLimitError, OracleError, PreconditionError
from .states import AllAState, is_A_adequate, resolve_all_A
from .words import SyllableWord, _checked_make, require_input_limits

__all__ = [
    "LaurentPolynomial",
    "BracketSummary",
    "kauffman_bracket",
    "bracket_top",
    "bracket_summary",
    "stable_penultimate_coefficient",
    "DEFAULT_MAX_CROSSINGS",
    "MAX_BRACKET_STRANDS",
]

# kauffman_bracket's cap at MAX_BRACKET_STRANDS strands.  Its sweep keeps
# every degree: c steps over up to Catalan(n) matchings, each with a degree
# span that grows with c.  So it sweeps c crossings on n strands iff
# c^2 * Catalan(n) <= 100^2 * Catalan(8) (_crossing_cap): up to 3781, 2673,
# 1691, 1010, 583, 329, 182 and 100 at n = 1..8.  At each cap the slowest
# shape found took 0.2 s (n = 4) to 0.7 s (n = 3, 5 and 7), 2-core Xeon,
# Python 3.11; bracket_top, bounded by the input limits alone, took at most
# 0.3 s on 10,000-letter words at n = 8.
DEFAULT_MAX_CROSSINGS = 100
# Both sweeps share the strand limit, which also bounds the cached _join:
# at n = 32 one top sweep filled it with 370,000 matchings.
MAX_BRACKET_STRANDS = 8


class _LaurentPolynomialFields(NamedTuple):
    terms: tuple[tuple[int, int], ...]


class LaurentPolynomial(_LaurentPolynomialFields):
    """A Laurent polynomial in one variable with integer coefficients.

    ``terms`` is sorted by degree and never contains a zero coefficient, so
    equality is structural.  An immutable named tuple ``(terms,)``;
    ``_replace`` and ``_make`` clean and check the terms as the constructor
    does.
    """

    __slots__ = ()

    def __new__(cls, terms: Iterable[tuple[int, int]] = ()) -> LaurentPolynomial:
        cleaned = tuple(sorted((d, c) for d, c in terms if c))
        degrees = [d for d, _ in cleaned]
        if len(set(degrees)) != len(degrees):
            raise ValueError("duplicate degrees")
        return tuple.__new__(cls, (cleaned,))

    _make = classmethod(_checked_make)

    @classmethod
    def from_dict(cls, coeffs: dict[int, int]) -> LaurentPolynomial:
        return cls(tuple(coeffs.items()))

    def coefficient(self, degree: int) -> int:
        for d, c in self.terms:
            if d == degree:
                return c
        return 0

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def max_degree(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return self.terms[-1][0]

    @property
    def min_degree(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return self.terms[0][0]

    def inverted_variable(self) -> LaurentPolynomial:
        """Substitute A -> A^(-1)."""
        return LaurentPolynomial(tuple((-d, c) for d, c in self.terms))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " ".join(f"{d}:{c}" for d, c in self.terms)


class BracketSummary(NamedTuple):
    """Degree-end data of the bracket of an A-adequate diagram."""

    c: int
    num_all_A_circles: int
    top_degree: int
    top_coefficient: int
    penultimate_abs: int

    def to_json_dict(self) -> dict:
        return {
            "crossings": self.c,
            "all_A_circles": self.num_all_A_circles,
            "top_degree": self.top_degree,
            "top_coefficient": self.top_coefficient,
            "penultimate_abs": self.penultimate_abs,
        }


# _join and _closure_cycles are cached for the life of the process: they
# see at most Catalan(8) = 1430 matchings on each strand count.  A matching
# is bytes, byte i the partner of point i, so its hash is computed once
@cache
def _join(matching: bytes, left: int) -> bytes | None:
    """Cap bottom points ``left`` and ``left + 1``, then cup two new bottom
    points together in their place.  None when the two were partners: a loop
    closes and the matching is unchanged.  Otherwise their partners are
    spliced and the joined matching is returned."""
    right = left + 1
    if matching[left] == right:
        return None
    joined = bytearray(matching)
    x, y = matching[left], matching[right]
    joined[x], joined[y] = y, x
    joined[left], joined[right] = right, left
    return bytes(joined)


@cache
def _closure_cycles(matching: bytes) -> int:
    """Cycles left when the braid closes: top point i joins bottom point
    n + i."""
    n = len(matching) // 2
    seen = bytearray(2 * n)
    cycles = 0
    for start in range(n):
        if seen[start]:
            continue
        cycles += 1
        point = start
        while not seen[point]:
            seen[point] = 1
            end = matching[point]
            seen[end] = 1
            point = end - n if end >= n else end + n
    return cycles


@cache
def _delta_power(k: int) -> tuple[int, ...]:
    """delta^k by slot: the coefficients of A^(2k), A^(2k - 4), ..., A^(-2k)."""
    return tuple((-1) ** k * comb(k, i) for i in range(k + 1))


def _all_A_gains(word: SyllableWord) -> tuple[list[dict], Callable[[int, bytes], int]]:
    """``gain(i, matching)``: the degree that the all-A smoothing of the
    syllables from ``i`` on, and the closure, add to a term whose matching
    is ``matching``.  It follows that one matching through the join step: a
    positive syllable sigma^k passes and adds k; a negative one sigma^(-k)
    joins k times and adds k plus 2 per loop it closes, and every join
    after the first closes one.  Switching one smoothing from A to B lowers
    a - b by 2 and changes the loops by 1, so no other smoothing of the rest
    of the braid adds more.  ``gain(0, identity)`` is top = c + 2(|s_A| - 1).
    Returned with ``known``: ``known[i][matching]`` is each gain found yet.
    """
    n = word.n
    syllables = word.syllables
    known: list[dict[bytes, int]] = [{} for _ in range(len(syllables) + 1)]

    def gain(i: int, matching: bytes) -> int:
        path = []  # (i, matching, added) up to the first known pair
        total = known[i].get(matching)
        while total is None:
            if i == len(syllables):
                total = known[i][matching] = 2 * (_closure_cycles(matching) - 1)
                break
            g, r = syllables[i]
            added, after = r, matching
            if r < 0:  # the A-smoothing of a negative letter is the join
                joined = _join(matching, n + g - 1)
                added = -3 * r if joined is None else -3 * r - 2
                after = matching if joined is None else joined
            path.append((i, matching, added))
            i, matching = i + 1, after
            total = known[i].get(matching)
        for i, matching, added in reversed(path):
            total += added
            known[i][matching] = total
        return total

    return known, gain


def _sweep(word: SyllableWord, depth: int | None) -> LaurentPolynomial:
    """The terms of the bracket of the closure of ``word`` of degree at
    least top - ``depth``, top = c + 2(|s_A| - 1), exactly; every term when
    ``depth`` is None.

    One step per syllable.  In the Temperley-Lieb algebra e^2 = delta * e,
    so sigma^r = A^r * 1 + c_k * e with k = |r| and
    c_k = sum over j < k of (-1)^j A^(s(k - 2 - 4j)), s the sign of r.  A
    matching whose bottom points g and g+1 are partners is multiplied by the
    monomial A^r + c_k * delta = (-1)^k A^(-3r); any other matching keeps
    A^r and its joined matching gets c_k.

    Slot j of matching M after i syllables holds degree top - gain(i, M) - 4j
    (``_all_A_gains``; see the module docstring).  A step adding degree e
    moves it to slot j + (gain(i - 1, M) - gain(i, M') - e) / 4 of M', and
    c_k's k terms to consecutive slots; a shift that is negative or not a
    multiple of 4 raises OracleError.  Slots past depth // 4 cannot reach
    top - depth, and the sweep is linear in its terms, so they are dropped.
    """
    n = word.n
    identity = bytes(range(n, 2 * n)) + bytes(range(n))  # the empty braid
    known, gain = _all_A_gains(word)
    top = gain(0, identity)
    slots = maxsize if depth is None else depth // 4 + 1
    states: dict[bytes, tuple[int, list[int]]] = {identity: (top, [1])}
    for i, (g, r) in enumerate(word.syllables, 1):
        k = abs(r)
        # a move: (degree its first term adds, its sign, count of alternating terms)
        twist = (k - 2, 1, k) if r > 0 else (3 * k - 2, 1 if k & 1 else -1, k)
        loop, passed = (-3 * r, -1 if k & 1 else 1, 1), (r, 1, 1)
        left, gains, swept = n + g - 1, known[i], {}
        for matching, (before, poly) in states.items():
            joined = _join(matching, left)
            if joined is None:
                moves = ((matching, loop),)
            else:
                moves = ((matching, passed), (joined, twist))
            for target, (e, sign, count) in moves:
                entry = swept.get(target)
                if entry is not None:
                    after, coefs = entry
                elif (after := gains.get(target)) is None:
                    after = gain(i, target)
                shift = before - after - e
                if shift < 0 or shift & 3:
                    raise OracleError(f"slot shift {shift} / 4 at syllable {i}")
                shift >>= 2
                while count and shift < slots:
                    part = poly[: slots - shift]
                    if entry is not None:
                        coefs += [0] * (shift + len(part) - len(coefs))
                        for j, c in enumerate(part, shift):
                            coefs[j] += sign * c
                    elif any(part):  # zeros make no entry
                        coefs = [0] * shift + (part if sign > 0 else [-c for c in part])
                        entry = swept[target] = (after, coefs)
                    shift, sign, count = shift + 1, -sign, count - 1
        states = swept

    # the closure's gain 2(cycles - 1) is the top degree of delta^(cycles - 1)
    total: list[int] = []
    for matching, (_, poly) in states.items():
        for shift, c in enumerate(_delta_power(_closure_cycles(matching) - 1)[:slots]):
            part = poly[: slots - shift]
            total += [0] * (shift + len(part) - len(total))
            for j, coef in enumerate(part, shift):
                total[j] += c * coef
    terms = tuple((top - 4 * j, c) for j, c in reversed(list(enumerate(total))) if c)
    return tuple.__new__(LaurentPolynomial, (terms,))  # sorted, distinct, nonzero


def _require_sweepable(word: SyllableWord) -> None:
    """Refuse a word past the input limits and a diagram on more than
    ``MAX_BRACKET_STRANDS`` strands."""
    require_input_limits(word)
    if word.n > MAX_BRACKET_STRANDS:
        raise PreconditionError(
            f"{word.n} strands are above the bracket limit of {MAX_BRACKET_STRANDS}"
        )


def _catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def _crossing_cap(n: int) -> int:
    """The most crossings ``kauffman_bracket`` sweeps on ``n`` strands (see
    ``DEFAULT_MAX_CROSSINGS``)."""
    budget = DEFAULT_MAX_CROSSINGS**2 * _catalan(MAX_BRACKET_STRANDS)
    return isqrt(budget // _catalan(n))


def kauffman_bracket(word: SyllableWord) -> LaurentPolynomial:
    """The Kauffman bracket of the closure of ``word``, every term exactly.

    One sweep down the braid in the Temperley-Lieb picture, one step per
    syllable (see ``_sweep``).  Boundary points 0..n-1 sit on top and
    n..2n-1 at the current bottom; the state maps each non-crossing matching
    of these points to its coefficients by slot.  A letter sigma_g smooths
    two ways:

    * pass: both strands go straight through, the matching is unchanged;
    * join: cap bottom points g and g+1 -- if they were partners a loop
      closes (times delta), otherwise their partners are spliced -- then
      cup the two new bottom points together.

    A positive letter's A-smoothing is the pass and a negative letter's the
    join; the A-smoothing weighs A and the B-smoothing A^(-1).  Closing the
    braid joins top point i to bottom point i, and k closure cycles weigh
    delta^(k-1).  At most Catalan(n) matchings are alive at a time, so the
    cost is O(c * Catalan(n) * degree span); ``bracket_top`` returns the
    degrees top and top - 4 for much less.  Refused with a PreconditionError,
    in this order: a word past the input limits, a diagram on more than
    ``MAX_BRACKET_STRANDS`` strands, and a diagram above the crossing cap
    for its strand count (a ``CrossingLimitError`` that names the cap; see
    ``DEFAULT_MAX_CROSSINGS``).
    """
    _require_sweepable(word)
    cap = _crossing_cap(word.n)
    if word.crossings > cap:
        raise CrossingLimitError(word.crossings, cap)
    return _sweep(word, None)


def bracket_top(word: SyllableWord) -> LaurentPolynomial:
    """The terms of the bracket of degree at least top - 4, exactly, where
    top = c + 2(|s_A| - 1) bounds the degree of every state's term.

    The same sweep as ``kauffman_bracket``, keeping two slots per matching:
    terms that cannot reach top - 4 are dropped as the sweep goes, so the
    work stays near the top of the polynomial.  |s_A| is counted here, by
    following the all-A matching through the sweep's join step, not read
    from ``states``.  Takes no crossing cap, since the input limits already
    bound the window (see ``DEFAULT_MAX_CROSSINGS``).  A word past the
    input limits or a diagram on more than ``MAX_BRACKET_STRANDS`` strands
    is refused with a PreconditionError.

    >>> from braidvol.words import parse_braid
    >>> print(bracket_top(parse_braid("s1^-3 s2^-3")))
    10:-2 14:1
    >>> print(kauffman_bracket(parse_braid("s1^-3 s2^-3")))
    -10:1 -2:2 2:-2 6:1 10:-2 14:1
    """
    _require_sweepable(word)
    return _sweep(word, 4)


def _require_adequate(state: AllAState) -> None:
    if not is_A_adequate(state):
        raise PreconditionError(
            "penultimate coefficient needs an A-adequate diagram"
        )


def bracket_summary(
    bracket: LaurentPolynomial, state: AllAState
) -> BracketSummary:
    """Degree-end summary of the bracket of an A-adequate diagram.

    ``bracket`` is the Kauffman bracket of the diagram whose all-A state is
    ``state``.  The top degree of the bracket of an A-adequate diagram is
    c + 2(|s_A| - 1) with top coefficient of absolute value 1, and the next
    nonzero coefficient sits exactly four degrees below; its absolute value
    is the quantity the volume bounds consume.  The top degree and top
    coefficient are checked (raises OracleError), not assumed, and a state
    that is not A-adequate raises PreconditionError.  Only the degrees top
    and top - 4 are read (beside the check that no term lies above top), so
    the terms ``bracket_top`` returns serve as well as the whole bracket.
    """
    _require_adequate(state)
    num_circles = sum(state._counts.values())
    top_degree = state.crossings + 2 * (num_circles - 1)
    if bracket.is_zero or bracket.max_degree != top_degree:
        raise OracleError(
            f"bracket top degree {bracket.terms[-1][0] if bracket.terms else None}"
            f" != predicted {top_degree}"
        )
    top_coefficient = bracket.coefficient(top_degree)
    if abs(top_coefficient) != 1:
        raise OracleError(
            f"top coefficient {top_coefficient} not of absolute value 1"
        )
    return BracketSummary(
        c=state.crossings,
        num_all_A_circles=num_circles,
        top_degree=top_degree,
        top_coefficient=top_coefficient,
        penultimate_abs=abs(bracket.coefficient(top_degree - 4)),
    )


def stable_penultimate_coefficient(word: SyllableWord) -> BracketSummary:
    """``bracket_summary`` of ``word``: refuse a word past the input limits
    or on more than ``MAX_BRACKET_STRANDS`` strands before tracing its
    all-A state, refuse a diagram that is not A-adequate before sweeping,
    then sweep the top of the bracket once, as ``bracket_top`` does."""
    _require_sweepable(word)
    state = resolve_all_A(word)
    _require_adequate(state)
    return bracket_summary(_sweep(word, 4), state)
