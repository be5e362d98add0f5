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
check.  Both share one ungated body, ``_family_bounds``, which reads t, t+,
t-, n, m and e - v once and returns the pair, with None for the beta' form
where it does not apply; ``report.analyze`` has already gated the word, so
it calls that body.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .errors import OracleError, PreconditionError
from .families import check_main_lemma
from .states import AllAState, ReducedStateGraph, twist_counts
from .words import SyllableWord

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
    "s_crossover",
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


@dataclass(frozen=True)
class VolumeBounds:
    """One two-sided volume estimate: vol is in [lower, upper].

    ``lower`` is the raw formula value and may be nonpositive;
    ``lower_weak`` is the weaker t-only variant where one exists.
    """

    case: BoundCase
    lower: float
    upper: float
    lower_weak: float | None = None
    inputs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        echoed = {key: self.inputs.get(key) for key in _INPUT_KEYS}
        object.__setattr__(self, "inputs", echoed)
        if self.lower > 0 and self.lower > self.upper:
            raise OracleError(f"lower bound {self.lower} > upper {self.upper}")
        if self.lower_weak is not None and self.lower > 0:
            if self.lower_weak > self.lower + 1e-12:
                raise OracleError(
                    f"weak lower bound {self.lower_weak} > lower {self.lower}"
                )

    @property
    def effective_lower(self) -> float:
        return max(self.lower, 0.0)

    def to_json_dict(self) -> dict:
        return {
            "case": self.case.value,
            "lower": self.lower,
            "lower_weak": self.lower_weak,
            "upper": self.upper,
            "effective_lower": self.effective_lower,
            "inputs": dict(self.inputs),
        }


def _require_family(word: SyllableWord) -> None:
    if not check_main_lemma(word).passed:
        raise PreconditionError("bounds need a word passing the family checker")


def cor_bounds(neg_chi: int, t: int, assume_hypotheses: bool = False) -> VolumeBounds:
    """v8 * (e' - v) <= vol <= 10 * v3 * (t - 1).

    Valid for connected, prime, A-adequate diagrams satisfying the two-edge
    loop condition with t >= 2.  The counts alone cannot show those
    hypotheses, so the caller attests them with ``assume_hypotheses=True``;
    without it the bound is refused.
    """
    if t < 2:
        raise PreconditionError(f"the two-sided bound needs t >= 2, got {t}")
    if not assume_hypotheses:
        raise PreconditionError(
            "the Cor bound needs its hypotheses attested (assume_hypotheses=True)"
        )
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
    return _family_bounds(word, state, graph)[0]


def jones_bounds(
    word: SyllableWord, state: AllAState, graph: ReducedStateGraph
) -> VolumeBounds:
    """Bounds in terms of the stable penultimate coefficient beta' = 1 + (e'-v).

    Only the n = 3 and boundary-positive cases tie beta' to the volume;
    interior positive syllables with n >= 4 are refused.
    """
    _require_family(word)
    jones = _family_bounds(word, state, graph)[1]
    if jones is None:
        raise PreconditionError(
            "the beta'-form bounds do not cover interior positive syllables"
            " with n >= 4"
        )
    return jones


def _family_bounds(
    word: SyllableWord, state: AllAState, graph: ReducedStateGraph
) -> tuple[VolumeBounds, VolumeBounds | None]:
    """``volume_bounds`` and ``jones_bounds`` on a word that already passed
    the family gate, from one read of its counts.  The beta'-form bound is
    None when a positive syllable sits on an interior generator at n >= 4."""
    n = word.n
    t, t_plus, t_minus = twist_counts(word)
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
    (276.6 - v8) / (4 * v3 - v8).
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


def s_crossover() -> tuple[int, int]:
    """(largest s with the schreier-form lower sharper, smallest s after).

    Computed from the stored constants, not hardcoded: the crossover sits at
    (276.6 - v8) / (4 * v3 - v8), just under 690.
    """
    threshold = (276.6 - V8) / (4.0 * V3 - V8)
    first_fkp = math.floor(threshold) + 1
    # nudge against float edge cases by walking to the true boundary
    while 4.0 * V3 * first_fkp - 276.6 <= V8 * (first_fkp - 1):
        first_fkp += 1
    while 4.0 * V3 * (first_fkp - 1) - 276.6 > V8 * (first_fkp - 2):
        first_fkp -= 1
    return first_fkp - 1, first_fkp


def turaev_genus_bounds(k: int) -> tuple[int, int] | None:
    """|k| - 1 <= Turaev genus <= |k| from the conjugacy normal form.

    The estimate needs k != 0; the degenerate case returns None.
    """
    if k == 0:
        return None
    return abs(k) - 1, abs(k)
