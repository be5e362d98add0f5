"""Assemble the whole analysis pipeline into one JSON-ready report.

``analyze`` runs every applicable stage for a word and returns a plain dict
with a stable key set: analyses that do not apply (wrong strand count,
failed gate, not requested) are present as ``None``, never missing.
``analyze_line`` returns the same report as its ``json.dumps`` text, the
``batch`` line.  Both read the circle detail from the state's pieces, a run
of small inner circles at a time, and never build
:attr:`AllAState.circles`: ``analyze`` (through ``circle_detail``) gives
one dict per circle, and ``analyze_line`` writes each run in one piece.
``verify`` re-derives the cross-identities that tie the stages together and
reports them check by check; it is the engine behind the ``verify``
subcommand.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .bounds import (
    _family_bounds,
    boundary_positive,
    cor_bounds,
    three_braid_s_bounds,
    turaev_genus_bounds,
)
from .bracket import MAX_BRACKET_STRANDS, bracket_summary, bracket_top
from .errors import OracleError, PreconditionError
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
    StateCircle,
    is_A_adequate,
    is_connected_closure,
    reduced_graph,
    resolve_all_A,
    satisfies_TELC,
    twist_counts,
)
from .words import SyllableWord, require_input_limits

__all__ = [
    "SCHEMA",
    "analyze",
    "analyze_line",
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
    """Per-circle detail of a report: id, class, winding and support.

    Read from the state's pieces, so :attr:`AllAState.circles` is never
    built: a boundary circle gives one dict, and a run of small inner
    circles one dict per id from a single comprehension, each with its own
    ``[g]`` support list."""
    names = _CLASS_NAMES
    small = names[CircleClass.SMALL_INNER]
    detail: list[dict] = []
    for piece in state.pieces:
        if type(piece) is StateCircle:
            cid, winding, support, klass = piece
            detail.append(
                {
                    "id": cid,
                    "class": names[klass],
                    "winding": winding,
                    "support": sorted(support),
                }
            )
            continue
        first, count, g = piece
        detail += [
            {"id": cid, "class": small, "winding": 0, "support": [g]}
            for cid in range(first, first + count)
        ]
    return detail


def schreier_block(form: SchreierForm) -> dict:
    """The ``schreier`` block of a report: the normal form plus its
    genericity and hyperbolicity verdict."""
    verdict = hyperbolicity_of_form(form)
    block = form.to_json_dict()
    block["generic"] = form.generic
    block["hyperbolic"] = verdict.hyperbolic
    block["reason"] = verdict.reason
    return block


# the text of each circle id, ``str(i)`` at index i, grown to the largest
# circle count seen (see ``_id_texts``)
_ID_TEXTS: list[str] = []


def _id_texts(count: int) -> list[str]:
    """The id text table with at least ``count`` entries.  It grows by a
    copy that is then rebound, so a list already handed out never changes."""
    global _ID_TEXTS
    texts = _ID_TEXTS
    if len(texts) < count:
        texts = _ID_TEXTS = texts + list(map(str, range(len(texts), count)))
    return texts


def _detail_text(state: AllAState) -> str:
    """The text of ``json.dumps(circle_detail(state))`` between its
    brackets, written from the state's pieces.  Every circle after its id
    is one cached tail per (winding, support, class), and a run of small
    inner circles is one join of a slice of the module's id text table
    over its one tail, so the text is assembled per boundary circle and
    per run, never per small circle.  The table grows to the state's
    circle count, which is at most n plus the negative crossings: 10,032
    entries (about 0.6 MB) at the input limits."""
    names = _CLASS_NAMES
    ids = _id_texts(sum(state._counts.values()))
    tails: dict = {}

    def tail(winding: int, support: frozenset[int], klass: CircleClass) -> str:
        body = json.dumps(
            {"class": names[klass], "winding": winding, "support": sorted(support)}
        )
        return ", " + body[1:]

    runs: dict[int, tuple[str, str]] = {}  # per g: the run's tail and separator
    items = []
    for piece in state.pieces:
        if type(piece) is StateCircle:
            cid, winding, support, klass = piece
            key = (winding, support, klass)
            text = tails.get(key)
            if text is None:
                text = tails[key] = tail(*key)
            items.append(f'{{"id": {ids[cid]}{text}')
            continue
        first, count, g = piece
        small = runs.get(g)
        if small is None:
            text = tail(0, frozenset((g,)), CircleClass.SMALL_INNER)
            small = runs[g] = (text, text + ', {"id": ')
        run = small[1].join(ids[first : first + count])
        items.append(f'{{"id": {run}{small[0]}')
    return ", ".join(items)


def analyze(
    word: SyllableWord, *, bracket: bool = False, assume_prime: bool = False
) -> dict:
    """Full analysis report for one word.

    ``bracket`` opts into the Kauffman-bracket oracle, a Temperley-Lieb
    sweep one syllable at a time that keeps only the terms that can reach
    the top five degrees (``bracket_top``), so its cost is set by that
    window of degrees, not by the degree span; it is refused above
    ``MAX_BRACKET_STRANDS`` (8) strands.
    ``assume_prime`` lets the generic volume bounds run on words outside the
    checked family when the direct diagram checks (adequacy, two-edge-loop,
    connectivity, t >= 2) all hold but primeness has to be taken on faith.
    A word past the input limits of ``parse_braid`` (``MAX_WORD_LETTERS``
    letters, ``MAX_STRANDS`` strands) or a word that is not cyclically
    reduced raises PreconditionError before the state is traced.
    """
    report, state = _report(word, bracket, assume_prime)
    report["circles"]["detail"] = circle_detail(state)
    return report


# the circle detail's place in the text of a report whose detail is empty;
# no other block of a report has a "detail" key, and a string value cannot
# hold the unescaped quotes
_DETAIL_SLOT = '"detail": []'


def analyze_line(
    word: SyllableWord, *, bracket: bool = False, assume_prime: bool = False
) -> str:
    """``json.dumps(analyze(word, ...))``, byte for byte: the ``batch`` line.

    The circle detail is written from the state's pieces without a dict per
    circle (see ``_detail_text``); the rest of the report goes through
    ``json.dumps``.  Takes and raises what ``analyze`` does.

    >>> from braidvol.words import parse_braid
    >>> w = parse_braid("s1^-3 s2^-3")
    >>> analyze_line(w) == json.dumps(analyze(w))
    True
    """
    report, state = _report(word, bracket, assume_prime)
    parts = json.dumps(report).split(_DETAIL_SLOT)
    if len(parts) != 2:
        raise OracleError(
            f"the report text holds {len(parts) - 1} empty circle details, not 1"
        )
    return f'{parts[0]}"detail": [{_detail_text(state)}]{parts[1]}'


def _report(
    word: SyllableWord, bracket: bool, assume_prime: bool
) -> tuple[dict, AllAState]:
    """The body of ``analyze``: the report with an empty circle detail, and
    the state it was read from."""
    require_input_limits(word)
    # refuses an unreduced word before the state is traced
    t, t_plus, t_minus = twist_counts(word)
    state = resolve_all_A(word)
    graph = reduced_graph(state)
    lemma = check_main_lemma(word)
    adequate = is_A_adequate(state)
    telc = satisfies_TELC(state)
    connected = is_connected_closure(word)

    bounds_block = jones_block = None
    if lemma.passed:
        volume, jones = _family_bounds(word, state, graph)
        bounds_block = volume.to_json_dict()
        if jones is not None:  # None: interior positives with n >= 4
            jones_block = jones.to_json_dict()
    elif assume_prime and adequate and telc and connected and t >= 2:
        bounds_block = cor_bounds(
            graph.neg_chi, t, assume_hypotheses=True
        ).to_json_dict()

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
        poly = bracket_top(word)
        bracket_block = bracket_summary(poly, state).to_json_dict()

    report = {
        "schema": SCHEMA,
        "word": word.as_text(),
        "n": word.n,
        "syllables": [[m, r] for m, r in word.syllables],
        "crossings": word.crossings,
        "twist": {"t": t, "t_plus": t_plus, "t_minus": t_minus},
        "circles": {
            "census": {k.value: v for k, v in state.census.items()},
            "detail": [],
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
    return report, state


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


def verify(word: SyllableWord) -> VerifyResult:
    """Cross-check every identity the analysis stages promise each other.

    Requires a word that passes the family checker (the identities are
    only guaranteed there); raises PreconditionError otherwise.  The bracket
    oracle, read from the top five degrees (``bracket_top``), runs at every
    crossing count and is skipped only above ``MAX_BRACKET_STRANDS`` (8)
    strands; a word past the input limits raises PreconditionError.
    """
    require_input_limits(word)
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
    if word.n <= MAX_BRACKET_STRANDS:
        summary = bracket_summary(bracket_top(word), state)
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
