"""All-A Kauffman states of closed braids.

Braid words cyclically reduced into syllables; the all-A smoothing of the
closure with its circle taxonomy; family membership checks; two-sided
hyperbolic volume bounds; Schreier normal forms, conjugacy, and a
hyperbolicity test for 3-braids; an exact Kauffman-bracket oracle; seeded
family-word generation; deterministic SVG rendering of states.
"""

from .bounds import (
    V3,
    V8,
    BoundCase,
    VolumeBounds,
    cor_bounds,
    jones_bounds,
    s_crossover,
    three_braid_s_bounds,
    turaev_genus_bounds,
    volume_bounds,
)
from .bracket import (
    DEFAULT_MAX_CROSSINGS,
    MAX_BRACKET_STRANDS,
    BracketSummary,
    LaurentPolynomial,
    bracket_summary,
    kauffman_bracket,
    stable_penultimate_coefficient,
)
from .errors import (
    BraidSyntaxError,
    CrossingLimitError,
    OracleError,
    PreconditionError,
)
from .families import (
    MainLemmaReport,
    check_main_lemma,
    stoimenow_A_adequate_3braid,
)
from .generate import GeneratorSpec, generate_words
from .render import render_state_svg
from .report import SCHEMA, analyze, verify
from .schreier import (
    EtaKind,
    SchreierForm,
    XYWord,
    conjugate_3braids,
    direct_read_k,
    direct_read_s,
    hyperbolicity_of_form,
    is_hyperbolic_closure_3braid,
    schreier_normal_form,
    to_xy,
)
from .states import (
    AllAState,
    CircleClass,
    ReducedStateGraph,
    StateCircle,
    classify_circles,
    is_A_adequate,
    is_connected_closure,
    reduced_graph,
    resolve_all_A,
    satisfies_TELC,
    twist_counts,
)
from .words import (
    SyllableWord,
    cyclically_reduce_into_syllables,
    exponent_sum,
    is_nice,
    mirror,
    parse_braid,
)

__version__ = "0.1.0"

__all__ = [
    "AllAState",
    "BoundCase",
    "BracketSummary",
    "BraidSyntaxError",
    "CircleClass",
    "CrossingLimitError",
    "DEFAULT_MAX_CROSSINGS",
    "EtaKind",
    "GeneratorSpec",
    "LaurentPolynomial",
    "MAX_BRACKET_STRANDS",
    "MainLemmaReport",
    "OracleError",
    "PreconditionError",
    "ReducedStateGraph",
    "SCHEMA",
    "SchreierForm",
    "StateCircle",
    "SyllableWord",
    "V3",
    "V8",
    "VolumeBounds",
    "XYWord",
    "analyze",
    "bracket_summary",
    "check_main_lemma",
    "classify_circles",
    "conjugate_3braids",
    "cor_bounds",
    "cyclically_reduce_into_syllables",
    "direct_read_k",
    "direct_read_s",
    "exponent_sum",
    "generate_words",
    "hyperbolicity_of_form",
    "is_A_adequate",
    "is_connected_closure",
    "is_hyperbolic_closure_3braid",
    "is_nice",
    "jones_bounds",
    "kauffman_bracket",
    "mirror",
    "parse_braid",
    "reduced_graph",
    "render_state_svg",
    "resolve_all_A",
    "s_crossover",
    "satisfies_TELC",
    "schreier_normal_form",
    "stable_penultimate_coefficient",
    "stoimenow_A_adequate_3braid",
    "three_braid_s_bounds",
    "to_xy",
    "turaev_genus_bounds",
    "twist_counts",
    "verify",
    "volume_bounds",
]
