"""Volume bounds for the closures of the braid family.

Every bound is linear in diagram counts: the twist numbers t, t+, t- of the
reduced word, the strand count n, the number m of non-essential wandering
circles of the all-A state, the negative Euler characteristic e - v of the
reduced state graph, and the Schreier parameter s.  The two constants are

    v8 = 8 * lob(pi/4) = 3.663862376708876   (regular ideal octahedron)
    v3 = 2 * lob(pi/6) = 1.014941606409654   (regular ideal tetrahedron)

with lob the Lobachevsky function; both are stored to full double precision.

Lower bounds are reported raw, even when the formula goes nonpositive for
small t- relative to n + m; ``effective_lower`` carries the clamp so the
vacuous cases stay visible.  ``volume_bounds`` and ``jones_bounds`` take the
word with its all-A state and reduced graph and read m and e - v from those;
each runs the family gate (``check_main_lemma``) on the word as its input
check.  Both share one ungated body, ``_family_bounds``, which takes the
twist counts t, t+, t-, reads n, m and e - v once and returns the pair,
with None for the beta' form where it does not apply; ``report.analyze``
has already gated the word and read its twist counts, so it calls that
body with them.
"""

from __future__ import annotations

from collections.abc import Mapping
from enum import Enum
from typing import NamedTuple

from .errors import OracleError, PreconditionError
from .families import check_main_lemma
from .states import AllAState, ReducedStateGraph, twist_counts
from .words import SyllableWord, _checked_make

__all__ = [
    "V8",
    "V3",
    "BoundCase",
    "VolumeBounds",
    "boundary_positive",
    "cor_bounds",
    "volume_bounds",
    "jones_bounds",
    "three_braid_s_bounds",
    "turaev_genus_bounds",
]

V8 = 3.663862376708876
V3 = 1.014941606409654


class BoundCase(str, Enum):
    COR = "Cor"
    N3 = "N3"
    N4_BOUNDARY = "N4Boundary"
    N4_GENERAL = "N4General"
    JONES = "Jones"
    SCHREIER3 = "Schreier3"
    FKP3 = "FKP3"


_INPUT_KEYS = ("t", "t_plus", "t_minus", "n", "m", "neg_chi", "beta_prime", "s")


class _VolumeBoundsFields(NamedTuple):
    case: BoundCase
    lower: float
    upper: float
    lower_weak: float | None
    inputs: dict


class VolumeBounds(_VolumeBoundsFields):
    """One two-sided volume estimate: vol is in [lower, upper].

    ``lower`` is the raw formula value and may be nonpositive;
    ``lower_weak`` is the weaker t-only variant where one exists.
    ``inputs`` echoes the formula inputs, one entry per key of
    ``_INPUT_KEYS`` (None where unused).  An immutable named tuple
    ``(case, lower, upper, lower_weak, inputs)``; ``_replace`` and ``_make``
    echo and check as the constructor does.
    """

    __slots__ = ()

    def __new__(
        cls,
        case: BoundCase,
        lower: float,
        upper: float,
        lower_weak: float | None = None,
        inputs: Mapping | None = None,
    ) -> VolumeBounds:
        inputs = inputs or {}
        echoed = {key: inputs.get(key) for key in _INPUT_KEYS}
        if lower > 0 and lower > upper:
            raise OracleError(f"lower bound {lower} > upper {upper}")
        if lower_weak is not None and lower > 0:
            if lower_weak > lower + 1e-12:
                raise OracleError(f"weak lower bound {lower_weak} > lower {lower}")
        return tuple.__new__(cls, (case, lower, upper, lower_weak, echoed))

    _make = classmethod(_checked_make)

    @property
    def effective_lower(self) -> float:
        return max(self.lower, 0.0)


def _require_family(word: SyllableWord) -> None:
    if not check_main_lemma(word).passed:
        raise PreconditionError("bounds need a word passing the family checker")


def cor_bounds(neg_chi: int, t: int) -> VolumeBounds:
    """v8 * (e' - v) <= vol <= 10 * v3 * (t - 1).

    Valid for connected, prime, A-adequate diagrams satisfying the two-edge
    loop condition with t >= 2 (Futer, Kalfagianni and Purcell, 2013).  A
    formula in the counts alone: it refuses t < 2, and the caller checks
    the diagram, as ``analyze`` does.
    """
    if t < 2:
        raise PreconditionError(f"the two-sided bound needs t >= 2, got {t}")
    return VolumeBounds(
        case=BoundCase.COR,
        lower=V8 * neg_chi,
        upper=10.0 * V3 * (t - 1),
        inputs={"t": t, "neg_chi": neg_chi},
    )


def boundary_positive(word: SyllableWord) -> bool:
    """Every positive syllable sits on generator 1 or n - 1."""
    boundary = {1, word.n - 1}
    return all(m in boundary for m, r in word.syllables if r > 0)


def volume_bounds(
    word: SyllableWord, state: AllAState, graph: ReducedStateGraph
) -> VolumeBounds:
    """The three-case two-sided bound for family words.

    n = 3 reads the lower bound off t-) alone; n >= 4 subtracts the circle
    overhead n + m - 2, and loses the weak form (plus a t+ penalty) when
    positive syllables sit in interior generators.
    """
    _require_family(word)
    return _family_bounds(word, state, graph, twist_counts(word))[0]


def jones_bounds(
    word: SyllableWord, state: AllAState, graph: ReducedStateGraph
) -> VolumeBounds:
    """Bounds in terms of the stable penultimate coefficient beta' = 1 + (e'-v).

    Only the n = 3 and boundary-positive cases tie beta' to the volume;
    interior positive syllables with n >= 4 are refused.
    """
    _require_family(word)
    jones = _family_bounds(word, state, graph, twist_counts(word))[1]
    if jones is None:
        raise PreconditionError(
            "the beta'-form bounds do not cover interior positive syllables"
            " with n >= 4"
        )
    return jones


def _family_bounds(
    word: SyllableWord,
    state: AllAState,
    graph: ReducedStateGraph,
    twist: tuple[int, int, int],
) -> tuple[VolumeBounds, VolumeBounds | None]:
    """``volume_bounds`` and ``jones_bounds`` on a word that already passed
    the family gate, from one read of its counts; ``twist`` is its
    ``twist_counts``.  The beta'-form bound is None when a positive syllable
    sits on an interior generator at n >= 4."""
    n = word.n
    t, t_plus, t_minus = twist
    m = state.m
    neg_chi = graph.neg_chi
    inputs = {
        "t": t,
        "t_plus": t_plus,
        "t_minus": t_minus,
        "n": n,
        "m": m,
        "neg_chi": neg_chi,
    }
    upper = 10.0 * V3 * (t - 1)
    if n == 3:
        if neg_chi != t_minus - 1:
            raise OracleError(
                f"n=3 reduced graph has e - v = {neg_chi},"
                f" expected t_minus - 1 = {t_minus - 1}"
            )
        volume = VolumeBounds(
            case=BoundCase.N3,
            lower=V8 * (t_minus - 1),
            lower_weak=V8 / 2.0 * (t - 2),
            upper=upper,
            inputs=inputs,
        )
    elif boundary_positive(word):
        volume = VolumeBounds(
            case=BoundCase.N4_BOUNDARY,
            lower=V8 * (t_minus - (n + m - 2)),
            lower_weak=V8 / 2.0 * (t - 2 * (n + m - 2)),
            upper=upper,
            inputs=inputs,
        )
    else:
        # interior positives at n >= 4: beta' is not tied to the volume
        volume = VolumeBounds(
            case=BoundCase.N4_GENERAL,
            lower=V8 * (t_minus - t_plus - (n + m - 2)),
            upper=upper,
            inputs=inputs,
        )
        return volume, None
    beta_prime = 1 + neg_chi
    jones = VolumeBounds(
        case=BoundCase.JONES,
        lower=V8 * (beta_prime - 1),
        upper=20.0 * V3 * (beta_prime + n + m - 3.5),
        inputs={**inputs, "beta_prime": beta_prime},
    )
    return volume, jones


def three_braid_s_bounds(
    s: int,
) -> tuple[VolumeBounds, VolumeBounds, BoundCase]:
    """The two s-parameter estimates for generic 3-braid closures.

    Returns (schreier-form bounds, twist-number-form bounds, whose lower
    bound is sharper).  The first is v8 * (s - 1) <= vol <= 4 * v8 * s; the
    second is 4 * v3 * s - 276.6 < vol with the same upper bound.  The
    sharper lower bound flips from the first to the second once s crosses
    (276.6 - v8) / (4 * v3 - v8), about 689.4: the first is sharper through
    s = 689 and the second from s = 690 on.
    """
    if s < 1:
        raise PreconditionError(f"s must be >= 1, got {s}")
    upper = 4.0 * V8 * s
    schreier = VolumeBounds(
        case=BoundCase.SCHREIER3,
        lower=V8 * (s - 1),
        upper=upper,
        inputs={"s": s},
    )
    fkp = VolumeBounds(
        case=BoundCase.FKP3,
        lower=4.0 * V3 * s - 276.6,
        upper=upper,
        inputs={"s": s},
    )
    sharper = (
        BoundCase.FKP3 if fkp.lower > schreier.lower else BoundCase.SCHREIER3
    )
    return schreier, fkp, sharper


def turaev_genus_bounds(k: int) -> tuple[int, int] | None:
    """|k| - 1 <= Turaev genus <= |k| from the conjugacy normal form.

    The estimate needs k != 0; the degenerate case returns None.
    """
    if k == 0:
        return None
    return abs(k) - 1, abs(k)
