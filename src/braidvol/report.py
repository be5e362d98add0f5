"""Assemble the whole analysis pipeline into one JSON-ready report.

``analyze`` and ``verify`` read one staged pipeline, ``_gate`` then
``_stages``, that calls each stage once per word, in this order:

1. the input limits (``MAX_WORD_LETTERS`` letters, ``MAX_STRANDS``
   strands), then the bracket's 8-strand limit when a bracket is asked for;
2. the family gate ``check_main_lemma``;
3. ``twist_counts``, which needs a cyclically reduced word;
4. the all-A state, its reduced graph, A-adequacy, TELC and connectivity;
5. at n = 3, the Schreier form: ``_direct_form`` on a gated word, the
   sweep ``schreier_normal_form`` on any other;
6. the bracket's top and summary, when asked for on an A-adequate diagram.

Each refusal is a PreconditionError raised before the state is traced, in
this order: past the input limits, a bracket above 8 strands, a word that
fails the gate (``verify`` only, right after stage 2), an unreduced word.

``analyze`` returns a plain dict with a stable key set: analyses that do
not apply (wrong strand count, failed gate, not requested) are ``None``,
never missing.  ``analyze_line`` returns its ``json.dumps`` text, the
``batch`` line.  Four lists of a report grow with the word: ``syllables``,
``circles.detail``, ``main_lemma.cond2_failures`` and ``schreier.pairs``.
``_report`` leaves them empty; ``analyze`` fills them, and ``analyze_line``
writes them as text straight from the word's syllables, the state's pieces,
the gate's ``Cond2Failure`` tuples and the form's pairs, with no list per
syllable or pair and no dict per failure or circle.  Neither builds
:attr:`AllAState.circles`.  ``verify`` asks for the bracket at up to 8
strands and reports the cross-identities between the stages check by check;
it is the engine behind the ``verify`` subcommand.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .bounds import (
    _family_bounds,
    boundary_positive,
    cor_bounds,
    three_braid_s_bounds,
    turaev_genus_bounds,
)
from .bracket import MAX_BRACKET_STRANDS, _require_sweepable, bracket_summary, bracket_top
from .errors import OracleError, PreconditionError
from .families import (
    Cond2Failure,
    MainLemmaReport,
    check_main_lemma,
    stoimenow_A_adequate_3braid,
)
from .schreier import (
    EtaKind,
    SchreierForm,
    _direct_form,
    hyperbolicity_of_form,
    schreier_normal_form,
)
from .states import (
    AllAState,
    CircleClass,
    StateCircle,
    is_A_adequate,
    is_connected_closure,
    is_prime_closure,
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
    block = _schreier_head(form)
    block["pairs"] = _pair_lists(form.pairs)
    return block


def _schreier_head(form: SchreierForm) -> dict:
    """``schreier_block(form)`` with its pairs left empty: the fields of
    ``SchreierForm.to_json_dict`` in its order, then the verdict."""
    verdict = hyperbolicity_of_form(form)
    return {
        "k": form.k,
        "s": form.s,
        "eta_kind": form.kind.value,
        "pairs": [],
        "power": form.power if form.kind is EtaKind.POWER_SIGMA1 else None,
        "degenerate_eta": form.degenerate_eta,
        "generic": form.generic,
        "hyperbolic": verdict.hyperbolic,
        "reason": verdict.reason,
    }


def _pair_lists(pairs: tuple[tuple[int, int], ...]) -> list[list[int]]:
    """Each (a, b) as the list ``[a, b]``: a report's syllables and Schreier
    pairs."""
    return list(map(list, pairs))


class _PairTexts(dict):
    """The text ``[a, b]`` of each int pair (a, b), written on first use."""

    def __missing__(self, pair: tuple[int, int]) -> str:
        text = self[pair] = "[%d, %d]" % pair
        return text


def _pairs_text(pairs: tuple[tuple[int, int], ...]) -> str:
    """The text of ``json.dumps(_pair_lists(pairs))`` between its brackets.
    The pairs hold ints, so ``%d`` writes ``json.dumps``'s digits; each
    distinct pair is written once per call and looked up after."""
    return ", ".join(map(_PairTexts().__getitem__, pairs))


def _failures_text(failures: tuple[Cond2Failure, ...]) -> str:
    """The text of the ``cond2_failures`` list that
    ``MainLemmaReport.to_json_dict`` writes, between its brackets.  Every
    clause and reason the gate writes is ASCII without a quote, backslash
    or control character, so it is its own JSON text."""
    return ", ".join(
        [
            f'{{"syllable": {i}, "clause": "{clause}", "reason": "{reason}"}}'
            for i, clause, reason in failures
        ]
    )


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
    brackets, written from the state's pieces without ``json.dumps``.
    Every circle after its id is one cached tail per (winding, support,
    class), written as text: the class names are ASCII enum values and the
    winding and columns ints, so the bytes are ``json.dumps``'s.  A run of
    small inner circles is one join of a slice of the module's id text
    table over its one tail, so the text is assembled per boundary circle
    and per run, never per small circle.  The table grows to the state's
    circle count, which is at most n plus the negative crossings: 10,032
    entries (about 0.6 MB) at the input limits."""
    names = _CLASS_NAMES
    ids = _id_texts(sum(state._counts.values()))
    tails: dict = {}

    def tail(winding: int, support: frozenset[int], klass: CircleClass) -> str:
        columns = ", ".join(map(str, sorted(support)))
        name = names[klass]
        return f', "class": "{name}", "winding": {winding}, "support": [{columns}]}}'

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


def analyze(word: SyllableWord, *, bracket: bool = False) -> dict:
    """Full analysis report for one word; the module docstring gives its
    stages and refusals.  ``bracket`` opts into the Kauffman-bracket oracle,
    the degrees top and top - 4 of a Temperley-Lieb sweep (``bracket_top``).
    A family word gets its family bounds; any other word gets the Cor
    bound (``cor_bounds``) when its diagram is A-adequate, TELC, connected
    and prime (``is_prime_closure``) with t >= 2, and null bounds else.
    """
    report, state, lemma, form = _report(word, bracket)
    report["syllables"] = _pair_lists(word.syllables)
    report["circles"]["detail"] = circle_detail(state)
    report["main_lemma"] = lemma.to_json_dict()
    if form is not None:
        report["schreier"]["pairs"] = _pair_lists(form.pairs)
    return report


# ``json.dumps`` without its cycle check: a report is a fresh tree of dicts,
# lists and scalars, so the text is the same
_encode = json.JSONEncoder(check_circular=False).encode

# the places of the four word-sized lists in the text of a report that
# holds them empty, in report order; no other block of a report has these
# keys, and a string value cannot hold the unescaped quotes
_SLOTS = ('"syllables": []', '"detail": []', '"cond2_failures": []', '"pairs": []')


def _splice(text: str, fills: list[str]) -> str:
    """``text`` with the i-th fill written into the i-th slot's empty list."""
    parts = []
    start = 0
    for slot, fill in zip(_SLOTS, fills):
        at = text.find(slot, start)
        if at < 0:
            raise OracleError(f"the report text has no {slot} after offset {start}")
        at += len(slot) - 1  # before the closing bracket
        parts += (text[start:at], fill)
        start = at
    parts.append(text[start:])
    return "".join(parts)


def analyze_line(word: SyllableWord, *, bracket: bool = False) -> str:
    """``json.dumps(analyze(word, ...))``, byte for byte: the ``batch`` line.

    The report is encoded once with its four word-sized lists empty, by
    ``json.dumps``'s encoder without its cycle check; each list is then
    spliced in as text: the syllables and the Schreier pairs one cached
    ``[a, b]`` per distinct pair (``_pairs_text``), the circle detail from
    the state's pieces (``_detail_text``) and the ``cond2`` failures from
    the gate's tuples (``_failures_text``).  Takes and raises what
    ``analyze`` does.

    >>> from braidvol.words import parse_braid
    >>> w = parse_braid("s1^-3 s2^-3")
    >>> analyze_line(w) == json.dumps(analyze(w))
    True
    """
    report, state, lemma, form = _report(word, bracket)
    fills = [
        _pairs_text(word.syllables),
        _detail_text(state),
        _failures_text(lemma.cond2_failures),
    ]
    if form is not None:
        fills.append(_pairs_text(form.pairs))
    return _splice(_encode(report), fills)


def _gate(word: SyllableWord, bracket: bool) -> MainLemmaReport:
    """Stages 1 and 2: the input limits, the bracket's strand limit when a
    bracket is asked for, then the family gate."""
    if bracket:
        _require_sweepable(word)  # the input limits, then the strand limit
    else:
        require_input_limits(word)
    return check_main_lemma(word)


def _stages(word: SyllableWord, lemma: MainLemmaReport, bracket: bool) -> tuple:
    """Stages 3 to 6: the twist counts, the state, its reduced graph, the
    three predicates, the normal form (None off n = 3) and the bracket
    summary (None unless asked for on an A-adequate diagram)."""
    twist = twist_counts(word)  # refuses an unreduced word before the trace
    state = resolve_all_A(word)
    graph = reduced_graph(state)
    adequate = is_A_adequate(state)
    predicates = adequate, satisfies_TELC(state), is_connected_closure(word)
    form = summary = None
    if word.n == 3:
        # a gated word's form is read off its syllables; the sweep is the
        # oracle that verify's form_direct check compares it with
        form = _direct_form(word) if lemma.passed else schreier_normal_form(word)
    if bracket and adequate:
        summary = bracket_summary(bracket_top(word), state)
    return twist, state, graph, predicates, form, summary


def _report(
    word: SyllableWord, bracket: bool
) -> tuple[dict, AllAState, MainLemmaReport, SchreierForm | None]:
    """The body of ``analyze``: the report with its four word-sized lists
    left empty, and what they are read from besides the word: the state,
    the gate's report and the Schreier form (None off n = 3)."""
    lemma = _gate(word, bracket)
    twist, state, graph, predicates, form, summary = _stages(word, lemma, bracket)
    t, t_plus, t_minus = twist
    adequate, telc, connected = predicates

    bounds_block = jones_block = None
    if lemma.passed:
        volume, jones = _family_bounds(word, state, graph, twist)
        bounds_block = volume.to_json_dict()
        if jones is not None:  # None: interior positives with n >= 4
            jones_block = jones.to_json_dict()
    elif adequate and telc and connected and t >= 2 and is_prime_closure(word):
        bounds_block = cor_bounds(graph.neg_chi, t).to_json_dict()

    stoimenow = schreier = s_bounds_block = turaev_block = None
    if form is not None:
        stoimenow = stoimenow_A_adequate_3braid(word)
        schreier = _schreier_head(form)
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

    report = {
        "schema": SCHEMA,
        "word": word.as_text(),
        "n": word.n,
        "syllables": [],
        "crossings": word.crossings,
        "twist": {"t": t, "t_plus": t_plus, "t_minus": t_minus},
        "circles": {
            "census": {_CLASS_NAMES[k]: v for k, v in state._counts.items()},
            "detail": [],
        },
        "m": state.m,
        "adequate": adequate,
        "telc": telc,
        "connected": connected,
        "neg_chi": graph.neg_chi,
        "main_lemma": lemma._replace(cond2_failures=()).to_json_dict(),
        "stoimenow": stoimenow,
        "bounds": bounds_block,
        "jones_bounds": jones_block,
        "s_bounds": s_bounds_block,
        "schreier": schreier,
        "turaev": turaev_block,
        "bracket": None if summary is None else summary.to_json_dict(),
    }
    return report, state, lemma, form


class VerifyCheck(NamedTuple):
    name: str
    passed: bool
    detail: str


class VerifyResult(NamedTuple):
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

    Runs the stages of the module docstring, with the bracket at up to
    ``MAX_BRACKET_STRANDS`` (8) strands, and refuses a word that fails the
    family gate, where the identities are not guaranteed."""
    bracket = word.n <= MAX_BRACKET_STRANDS
    lemma = _gate(word, bracket)
    if not lemma.passed:
        raise PreconditionError(
            f"verify needs a family word; {word.as_text()!r} fails the checker"
        )
    twist, state, graph, predicates, direct, summary = _stages(word, lemma, bracket)
    t, t_plus, _ = twist
    adequate, telc, connected = predicates
    census = state._counts
    small = census[CircleClass.SMALL_INNER]
    medium = census[CircleClass.MEDIUM_INNER]
    essential = census[CircleClass.ESSENTIAL_WANDERING]
    nonessential = census[CircleClass.NON_ESSENTIAL_WANDERING]
    nonwandering = census[CircleClass.NONWANDERING]

    checks: list[VerifyCheck] = []

    def add(name: str, passed: bool, detail: str) -> None:
        checks.append(VerifyCheck(name, passed, detail))

    add("adequate", adequate, "no segment joins a circle to itself")
    add("telc", telc, "two-edge loops confined to short regions")
    add("connected", connected, "closure is a knot or linked link")
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
    if direct is not None:
        add(
            "one_wanderer",
            essential + nonessential + nonwandering == 1,
            "exactly one wandering-or-nonwandering circle",
        )
        form = schreier_normal_form(word)  # the oracle of the direct form
        pairs_note = "" if direct.pairs == form.pairs else ", pairs differ"
        add(
            "form_direct",
            direct == form,
            f"direct-read k {direct.k}, s {direct.s} =="
            f" normal-form k {form.k}, s {form.s}{pairs_note}",
        )
    if summary is not None:
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
