"""Exact Kauffman bracket of a closed-braid diagram.

The bracket is the state sum over all smoothing assignments,

    <D> = sum over states  A^(a-b) * delta^(loops - 1),   delta = -A^2 - A^(-2),

with a and b the number of A- and B-smoothed crossings and loops the number
of circles the smoothing leaves.  A positive letter's A-smoothing lets both
strands pass straight through; a negative letter's A-smoothing joins them in
a cap and a cup; B-smoothings are the other way around.

The sum is never expanded state by state.  ``kauffman_bracket`` sweeps down
the braid one letter at a time in the Temperley-Lieb picture (Kauffman,
"State models and the Jones polynomial", Topology 26, 1987): partial states
with the same non-crossing matching of the boundary points are merged, so
the cost is O(c * Catalan(n) * degree span) rather than exponential in c.
Coefficients are exact Python integers throughout.

This module exists to cross-check the penultimate-coefficient identity
|coeff(top - 4)| = 1 + (e' - v) of the reduced state graph on A-adequate
diagrams.  Diagrams above ``DEFAULT_MAX_CROSSINGS`` (100) crossings are
refused unless the caller raises the cap, and diagrams on more than
``MAX_BRACKET_STRANDS`` (8) strands are refused always.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CrossingLimitError, OracleError, PreconditionError
from .states import AllAState, is_A_adequate, resolve_all_A
from .words import SyllableWord

__all__ = [
    "LaurentPolynomial",
    "BracketSummary",
    "kauffman_bracket",
    "bracket_summary",
    "stable_penultimate_coefficient",
    "DEFAULT_MAX_CROSSINGS",
    "MAX_BRACKET_STRANDS",
]

DEFAULT_MAX_CROSSINGS = 100
# Up to Catalan(n) matchings are alive at once, so the crossing cap alone
# does not bound the sweep: near 100 crossings it took 1.4 s at n = 8 and
# 14.9 s at n = 10 (2-core Xeon, Python 3.11).  Callers use n <= 6.
MAX_BRACKET_STRANDS = 8


def _require_cap(max_crossings: int) -> None:
    """Refuse a negative crossing cap, which would refuse or skip every
    diagram."""
    if max_crossings < 0:
        raise PreconditionError(
            f"max_crossings must be at least 0, got {max_crossings}"
        )


@dataclass(frozen=True)
class LaurentPolynomial:
    """A Laurent polynomial in one variable with integer coefficients.

    ``terms`` is sorted by degree and never contains a zero coefficient, so
    equality is structural.
    """

    terms: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        cleaned = tuple(sorted((d, c) for d, c in self.terms if c))
        degrees = [d for d, _ in cleaned]
        if len(set(degrees)) != len(degrees):
            raise ValueError("duplicate degrees")
        object.__setattr__(self, "terms", cleaned)

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


@dataclass(frozen=True)
class BracketSummary:
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


def _times_delta(poly: dict[int, int]) -> dict[int, int]:
    """``poly * delta`` with delta = -A^2 - A^(-2)."""
    out: dict[int, int] = {}
    for d, coef in poly.items():
        out[d + 2] = out.get(d + 2, 0) - coef
        out[d - 2] = out.get(d - 2, 0) - coef
    return out


def _accumulate(
    into: dict[tuple[int, ...], dict[int, int]],
    matching: tuple[int, ...],
    poly: dict[int, int],
    shift: int,
) -> None:
    """Add ``poly * A^shift`` to the entry of ``matching``."""
    acc = into.setdefault(matching, {})
    for d, coef in poly.items():
        acc[d + shift] = acc.get(d + shift, 0) + coef


def kauffman_bracket(
    word: SyllableWord, max_crossings: int = DEFAULT_MAX_CROSSINGS
) -> LaurentPolynomial:
    """The Kauffman bracket of the closure of ``word``, exactly.

    One sweep down the braid in the Temperley-Lieb picture.  Boundary points
    0..n-1 sit on top and n..2n-1 at the current bottom; the state maps each
    non-crossing matching of these points to its Laurent coefficients.
    Each letter sigma_g smooths two ways:

    * pass: both strands go straight through, the matching is unchanged;
    * join: cap bottom points g and g+1 -- if they were partners a loop
      closes (times delta), otherwise their partners are spliced -- then
      cup the two new bottom points together.

    A positive letter's A-smoothing is the pass and a negative letter's the
    join; the A-smoothing weighs A and the B-smoothing A^(-1).  Closing the
    braid joins top point i to bottom point i, and k closure cycles weigh
    delta^(k-1).  At most Catalan(n) matchings are alive at a time, so the
    cost is O(c * Catalan(n) * degree span); diagrams above
    ``max_crossings`` or on more than ``MAX_BRACKET_STRANDS`` strands, and a
    negative ``max_crossings``, are refused with a PreconditionError.
    """
    _require_cap(max_crossings)
    c = word.crossings
    if c > max_crossings:
        raise CrossingLimitError(c, max_crossings)
    n = word.n
    if n > MAX_BRACKET_STRANDS:
        raise PreconditionError(
            f"{n} strands are above the bracket limit of {MAX_BRACKET_STRANDS}"
        )
    identity = tuple(range(n, 2 * n)) + tuple(range(n))
    states: dict[tuple[int, ...], dict[int, int]] = {identity: {0: 1}}
    for g in word.letters:
        pass_shift = 1 if g > 0 else -1  # the A-smoothing weighs A^+1
        left, right = n + abs(g) - 1, n + abs(g)
        swept: dict[tuple[int, ...], dict[int, int]] = {}
        for matching, poly in states.items():
            _accumulate(swept, matching, poly, pass_shift)
            if matching[left] == right:
                _accumulate(swept, matching, _times_delta(poly), -pass_shift)
                continue
            joined = list(matching)
            x, y = matching[left], matching[right]
            joined[x], joined[y] = y, x
            joined[left], joined[right] = right, left
            _accumulate(swept, tuple(joined), poly, -pass_shift)
        states = swept

    total: dict[int, int] = {}
    for matching, poly in states.items():
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
        for _ in range(cycles - 1):
            poly = _times_delta(poly)
        for d, coef in poly.items():
            total[d] = total.get(d, 0) + coef
    return LaurentPolynomial.from_dict(total)


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
    is the quantity the volume bounds consume.  Both facts are checked
    (raises OracleError), not assumed, and a state that is not A-adequate
    raises PreconditionError.
    """
    _require_adequate(state)
    num_circles = len(state.circles)
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


def stable_penultimate_coefficient(
    word: SyllableWord, max_crossings: int = DEFAULT_MAX_CROSSINGS
) -> BracketSummary:
    """``bracket_summary`` of ``word``: trace its all-A state, refuse a
    diagram that is not A-adequate before sweeping, then sweep the bracket
    once."""
    state = resolve_all_A(word)
    _require_adequate(state)
    return bracket_summary(kauffman_bracket(word, max_crossings), state)
