"""Assemble the whole analysis pipeline into one JSON-ready report.

``analyze`` runs every applicable stage for a word and returns a plain dict
with a stable key set: analyses that do not apply (wrong strand count,
failed gate, not requested) are present as ``None``, never missing.
``verify`` re-derives the cross-identities that tie the stages together and
reports them check by check; it is the engine behind the ``verify``
subcommand.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import (
    _jones_bounds,
    _volume_bounds,
    boundary_positive,
    cor_bounds,
    three_braid_s_bounds,
    turaev_genus_bounds,
)
from .bracket import (
    DEFAULT_MAX_CROSSINGS,
    MAX_BRACKET_STRANDS,
    bracket_summary,
    kauffman_bracket,
)
from .errors import PreconditionError
from .families import check_main_lemma, stoimenow_A_adequate_3braid
from .schreier import (
    SchreierForm,
    _read_k,
    hyperbolicity_of_form,
    schreier_normal_form,
)
from .states import (
    AllAState,
    CircleClass,
    is_A_adequate,
    is_connected_closure,
    reduced_graph,
    resolve_all_A,
    satisfies_TELC,
    twist_counts,
)
from .words import SyllableWord

__all__ = [
    "SCHEMA",
    "analyze",
    "circle_detail",
    "schreier_block",
    "verify",
    "VerifyCheck",
    "VerifyResult",
]

SCHEMA = "braidvol/1"


# each circle class's report name, read without the enum's value descriptor
_CLASS_NAMES = {klass: klass.value for klass in CircleClass}


def circle_detail(state: AllAState) -> list[dict]:
    """Per-circle detail of a report: id, class, winding and support."""
    names = _CLASS_NAMES
    return [
        {
            "id": cid,
            "class": names[klass],
            "winding": winding,
            "support": sorted(support),
        }
        for cid, winding, support, klass in state.circles
    ]


def schreier_block(form: SchreierForm) -> dict:
    """The ``schreier`` block of a report: the normal form plus its
    genericity and hyperbolicity verdict."""
    verdict = hyperbolicity_of_form(form)
    block = form.to_json_dict()
    block["generic"] = form.generic
    block["hyperbolic"] = verdict.hyperbolic
    block["reason"] = verdict.reason
    return block


def analyze(
    word: SyllableWord,
    *,
    bracket: bool = False,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
    assume_prime: bool = False,
) -> dict:
    """Full analysis report for one word.

    ``bracket`` opts into the Kauffman-bracket oracle, a Temperley-Lieb
    sweep of cost O(c * Catalan(n) * degree span), refused above
    ``max_crossings`` (default 100) or ``MAX_BRACKET_STRANDS`` (8) strands.
    ``assume_prime`` lets the generic volume bounds run on words outside the
    checked family when the direct diagram checks (adequacy, two-edge-loop,
    connectivity, t >= 2) all hold but primeness has to be taken on faith.
    """
    state = resolve_all_A(word)
    graph = reduced_graph(state)
    t, t_plus, t_minus = twist_counts(word)
    lemma = check_main_lemma(word)
    adequate = is_A_adequate(state)
    telc = satisfies_TELC(state)
    connected = is_connected_closure(word)

    bounds_block = None
    if lemma.passed:
        bounds_block = _volume_bounds(word, state, graph).to_json_dict()
    elif assume_prime and adequate and telc and connected and t >= 2:
        bounds_block = cor_bounds(
            graph.neg_chi, t, assume_hypotheses=True
        ).to_json_dict()

    jones_block = None
    if lemma.passed:
        try:
            jones_block = _jones_bounds(word, state, graph).to_json_dict()
        except PreconditionError:
            jones_block = None  # interior positives with n >= 4

    stoimenow = stoimenow_A_adequate_3braid(word) if word.n == 3 else None

    schreier = None
    s_bounds_block = None
    turaev_block = None
    if word.n == 3:
        form = schreier_normal_form(word)
        schreier = schreier_block(form)
        if lemma.passed and form.generic:
            schreier3, fkp3, sharper = three_braid_s_bounds(form.s)
            s_bounds_block = {
                "schreier3": schreier3.to_json_dict(),
                "fkp3": fkp3.to_json_dict(),
                "sharper": sharper.value,
            }
        genus = turaev_genus_bounds(form.k)
        turaev_block = {
            "k": form.k,
            "lower": None if genus is None else genus[0],
            "upper": None if genus is None else genus[1],
        }

    bracket_block = None
    if bracket and adequate:
        poly = kauffman_bracket(word, max_crossings)
        bracket_block = bracket_summary(poly, state).to_json_dict()

    return {
        "schema": SCHEMA,
        "word": word.as_text(),
        "n": word.n,
        "syllables": [[m, r] for m, r in word.syllables],
        "crossings": word.crossings,
        "twist": {"t": t, "t_plus": t_plus, "t_minus": t_minus},
        "circles": {
            "census": {k.value: v for k, v in state.census.items()},
            "detail": circle_detail(state),
        },
        "m": state.m,
        "adequate": adequate,
        "telc": telc,
        "connected": connected,
        "neg_chi": graph.neg_chi,
        "main_lemma": lemma.to_json_dict(),
        "stoimenow": stoimenow,
        "bounds": bounds_block,
        "jones_bounds": jones_block,
        "s_bounds": s_bounds_block,
        "schreier": schreier,
        "turaev": turaev_block,
        "bracket": bracket_block,
    }


@dataclass(frozen=True)
class VerifyCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerifyResult:
    word: str
    passed: bool
    checks: tuple[VerifyCheck, ...]

    def to_json_dict(self) -> dict:
        return {
            "word": self.word,
            "pass": self.passed,
            "checks": [
                {"name": c.name, "pass": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }


def verify(
    word: SyllableWord, *, max_crossings: int = DEFAULT_MAX_CROSSINGS
) -> VerifyResult:
    """Cross-check every identity the analysis stages promise each other.

    Requires a word that passes the family checker (the identities are
    only guaranteed there); raises PreconditionError otherwise.  The bracket
    oracle is skipped above ``max_crossings`` or ``MAX_BRACKET_STRANDS``.
    """
    lemma = check_main_lemma(word)
    if not lemma.passed:
        raise PreconditionError(
            f"verify needs a family word; {word.as_text()!r} fails the checker"
        )
    state = resolve_all_A(word)
    graph = reduced_graph(state)
    t, t_plus, t_minus = twist_counts(word)
    census = state.census
    small = census[CircleClass.SMALL_INNER]
    medium = census[CircleClass.MEDIUM_INNER]
    essential = census[CircleClass.ESSENTIAL_WANDERING]
    nonessential = census[CircleClass.NON_ESSENTIAL_WANDERING]
    nonwandering = census[CircleClass.NONWANDERING]

    checks: list[VerifyCheck] = []

    def add(name: str, passed: bool, detail: str) -> None:
        checks.append(VerifyCheck(name, passed, detail))

    add("adequate", is_A_adequate(state), "no segment joins a circle to itself")
    add("telc", satisfies_TELC(state), "two-edge loops confined to short regions")
    add("connected", is_connected_closure(word), "closure is a knot or linked link")
    add(
        "no_unclassified",
        census[CircleClass.UNCLASSIFIED] == 0,
        "classification is total on family words",
    )
    expected_small = sum(-r - 1 for _, r in word.syllables if r < 0)
    add(
        "small_count",
        small == expected_small,
        f"small inner circles {small} == sum(|r|-1) = {expected_small}",
    )
    boundary_only = boundary_positive(word)
    medium_ok = t_plus <= medium <= 2 * t_plus
    if boundary_only:
        medium_ok = medium == t_plus
    add(
        "medium_count",
        medium_ok,
        f"medium inner circles {medium} vs t+ = {t_plus}"
        + (" (boundary-only: equality required)" if boundary_only else ""),
    )
    add(
        "strand_budget",
        essential + nonwandering <= word.n - 2,
        f"essential wandering {essential} + nonwandering {nonwandering}"
        f" <= n-2 = {word.n - 2}",
    )
    other = medium + essential + nonessential + nonwandering
    add(
        "circle_count",
        graph.neg_chi == t - other,
        f"neg_chi {graph.neg_chi} == t − #(non-small) = {t} − {other}",
    )
    if word.n == 3:
        add(
            "one_wanderer",
            essential + nonessential + nonwandering == 1,
            "exactly one wandering-or-nonwandering circle",
        )
        form = schreier_normal_form(word)
        k_direct = _read_k(word)
        add(
            "k_direct",
            k_direct == form.k,
            f"direct-read k {k_direct} == normal-form k {form.k}",
        )
        # the direct read of s is the negative twist-region count, t-
        add(
            "s_direct",
            form.s == t_minus,
            f"direct-read s {t_minus} == normal-form s {form.s}"
            f" == t- {t_minus}",
        )
    if word.crossings <= max_crossings and word.n <= MAX_BRACKET_STRANDS:
        summary = bracket_summary(kauffman_bracket(word, max_crossings), state)
        add(
            "bracket_oracle",
            summary.penultimate_abs == 1 + graph.neg_chi,
            f"|penultimate| {summary.penultimate_abs}"
            f" == 1 + neg_chi = {1 + graph.neg_chi}",
        )

    return VerifyResult(
        word=word.as_text(),
        passed=all(c.passed for c in checks),
        checks=tuple(checks),
    )
