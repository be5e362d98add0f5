"""Spans around the calls into each braidvol module, for the traced run.

The traced run times each word's real operation (``analyze`` or ``verify``)
in an ``op`` span, then replays the operation's own call order, one span per
call into a module, under a ``replay`` span of the same word.  Both hang off
a ``word`` span.  A layer's ``.ms`` is its mean time per traced word, its
``.share`` that time over the ``op`` span's mean: a faster layer can save at
most its share of latency.  ``self_ms`` is the real ``analyze``/``verify``
span minus the replayed layer spans of the same word.

Spans are kept in memory and written out once, after the measurement.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

from workloads import ORACLE_CROSSINGS

# Layers timed per traced word; each gets a ``.ms`` (mean per word) and a
# ``.share`` (over the per-word operation time) metric.
TIMED_LAYERS = (
    "words.parse_braid",
    "words.cyclically_reduce_into_syllables",
    "states.resolve_all_A",
    "states.classify_circles",
    "states.reduced_graph",
    "states.predicates",
    "families.check_main_lemma",
    "families.stoimenow_A_adequate_3braid",
    "bounds",
    "schreier.schreier_normal_form",
    "schreier.is_hyperbolic_closure_3braid",
    "schreier.direct_read",
    "bracket.stable_penultimate_coefficient",
    "report.analyze",
    "report.verify",
    "cli.json_dumps",
)
# Per-layer metrics of the traced run: (name, unit, better).
PER_LAYER: list[tuple[str, str, str]] = [
    (f"{layer}.{suffix}", unit, "lower")
    for layer in TIMED_LAYERS
    for suffix, unit in (("ms", "ms"), ("share", "ratio"))
]
PER_LAYER += [
    (f"bracket.stable_penultimate_coefficient.ms.c{c}", "ms", "lower")
    for c in ORACLE_CROSSINGS
]
PER_LAYER += [
    ("report.analyze.self_ms", "ms", "lower"),
    ("report.analyze.self_share", "ratio", "lower"),
    ("report.verify.self_ms", "ms", "lower"),
    ("report.verify.self_share", "ratio", "lower"),
    ("trace.op.ms", "ms", "lower"),
    ("cli.batch.ms_per_word", "ms", "lower"),
    ("generate.generate_words.ms", "ms", "lower"),
    ("words.crossings", "count", "lower"),
    ("words.syllables", "count", "lower"),
    ("states.arcs", "count", "lower"),
    ("states.circles", "count", "lower"),
    ("schreier.xy_length", "count", "lower"),
    ("schreier.hyperbolic_ratio", "ratio", "higher"),
    ("families.gate_pass_ratio", "ratio", "higher"),
    ("bounds.applied_ratio", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


class Tracer:
    """In-memory spans ``(name, start_ns, end_ns, parent, word)``; a span's
    id is its index.  Finished spans are tuples of atoms, which the cyclic
    garbage collector stops tracking, so a long trace adds no collection
    work to the code it measures.  ``counts`` holds per-word counts recorded
    at the same boundaries, keyed by metric name; ``crossings`` maps each
    traced word to its crossing count."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.counts: dict[str, list[float]] = defaultdict(list)
        self.crossings: dict[int, int] = {}
        self._open: dict[int, tuple] = {}

    def begin(self, name: str, parent: int | None, word: int | None) -> int:
        self.spans.append(None)
        span = len(self.spans) - 1
        self._open[span] = (name, perf_counter_ns(), parent, word)
        return span

    def end(self, span: int) -> None:
        end = perf_counter_ns()
        name, start, parent, word = self._open.pop(span)
        self.spans[span] = (name, start, end, parent, word)

    def call(self, name, parent, word, fn, *args):
        start = perf_counter_ns()
        result = fn(*args)
        self.spans.append((name, start, perf_counter_ns(), parent, word))
        return result

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, start, end, parent, word) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {"id": i, "name": name, "start_ns": start,
                         "end_ns": end, "parent": parent, "word": word}
                    )
                    + "\n"
                )


def replay_analyze(tr: Tracer, parent: int, wid: int, word) -> None:
    """The calls ``braidvol.report.analyze`` makes, in its order, with the
    defaults ``batch`` uses (no bracket, no assumed primeness)."""
    import braidvol as bv
    from braidvol.errors import PreconditionError

    def span(name, fn, *args):
        return tr.call(name, parent, wid, fn, *args)

    def jones(word, state, graph):
        try:
            return bv.jones_bounds(word, state, graph)
        except PreconditionError:
            return None

    state = span("states.resolve_all_A", bv.resolve_all_A, word)
    state = span("states.classify_circles", bv.classify_circles, state)
    graph = span("states.reduced_graph", bv.reduced_graph, state)
    span("states.predicates", bv.twist_counts, word)
    lemma = span("families.check_main_lemma", bv.check_main_lemma, word)
    span("states.predicates", bv.is_A_adequate, state)
    span("states.predicates", bv.satisfies_TELC, state)
    span("states.predicates", bv.is_connected_closure, word)
    if lemma.passed:
        span("bounds", bv.volume_bounds, word, state, graph)
        span("bounds", jones, word, state, graph)
    if word.n == 3:
        span(
            "families.stoimenow_A_adequate_3braid",
            bv.stoimenow_A_adequate_3braid,
            word,
        )
        form = span("schreier.schreier_normal_form", bv.schreier_normal_form, word)
        verdict = span(
            "schreier.is_hyperbolic_closure_3braid",
            bv.is_hyperbolic_closure_3braid,
            word,
        )
        if lemma.passed and form.generic:
            span("bounds", bv.three_braid_s_bounds, form.s)
        span("bounds", bv.turaev_genus_bounds, form.k)
        tr.counts["schreier.xy_length"].append(bv.to_xy(word).length)
        tr.counts["schreier.hyperbolic_ratio"].append(verdict.hyperbolic)
    tr.counts["bounds.applied_ratio"].append(lemma.passed)
    _count_word(tr, wid, word, state, lemma)


def replay_verify(tr: Tracer, parent: int, wid: int, word) -> None:
    """The calls ``braidvol.report.verify`` makes, in its order."""
    import braidvol as bv

    def span(name, fn, *args):
        return tr.call(name, parent, wid, fn, *args)

    lemma = span("families.check_main_lemma", bv.check_main_lemma, word)
    state = span("states.resolve_all_A", bv.resolve_all_A, word)
    state = span("states.classify_circles", bv.classify_circles, state)
    span("states.reduced_graph", bv.reduced_graph, state)
    span("states.predicates", bv.twist_counts, word)
    span("states.predicates", bv.is_A_adequate, state)
    span("states.predicates", bv.satisfies_TELC, state)
    span("states.predicates", bv.is_connected_closure, word)
    if word.n == 3:
        span("schreier.schreier_normal_form", bv.schreier_normal_form, word)
        span("schreier.direct_read", bv.direct_read_k, word)
        span("schreier.direct_read", bv.direct_read_s, word)
        tr.counts["schreier.xy_length"].append(bv.to_xy(word).length)
    if word.crossings <= bv.DEFAULT_MAX_CROSSINGS:
        span(
            "bracket.stable_penultimate_coefficient",
            bv.stable_penultimate_coefficient,
            word,
        )
    _count_word(tr, wid, word, state, lemma)


def _count_word(tr: Tracer, wid: int, word, state, lemma) -> None:
    tr.crossings[wid] = word.crossings
    tr.counts["words.crossings"].append(word.crossings)
    tr.counts["words.syllables"].append(len(word.syllables))
    tr.counts["states.arcs"].append(len(state.arcs))
    tr.counts["states.circles"].append(len(state.circles))
    tr.counts["families.gate_pass_ratio"].append(lemma.passed)


def layer_metrics(
    tr: Tracer, *, batch_words: int, generated_words: int, overhead: float
) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer metric values and the base (sample count) of each."""
    name_of = [span[0] for span in tr.spans]
    total: dict[str, int] = defaultdict(int)
    replay_ns = 0  # all layer spans under a replay span
    by_crossings: dict[int, int] = defaultdict(int)
    for name, start, end, parent, word in tr.spans:
        total[name] += end - start
        if parent is not None and name_of[parent] == "replay":
            replay_ns += end - start
        if name == "bracket.stable_penultimate_coefficient":
            by_crossings[tr.crossings[word]] += end - start
    words = name_of.count("op")
    op_ns = total["op"]

    def ms(ns: float, base: int) -> float:
        return ns / base / 1e6 if base else 0.0

    # only the workload's own operation has spans; the other self time is 0
    self_ns = {
        layer: total[layer] - replay_ns if total[layer] else 0
        for layer in ("report.analyze", "report.verify")
    }
    values: dict[str, float] = {}
    bases: dict[str, int] = {}
    for name, _, _ in PER_LAYER:
        if name.endswith(".self_ms") or name.endswith(".self_share"):
            layer = name.rsplit(".", 1)[0]
            value = ms(self_ns[layer], words)
            if name.endswith("share"):
                value = self_ns[layer] / op_ns if op_ns else 0.0
            values[name], bases[name] = value, words
        elif ".ms.c" in name:
            c = int(name.rsplit(".c", 1)[1])
            base = sum(1 for x in tr.crossings.values() if x == c)
            values[name], bases[name] = ms(by_crossings[c], base), base
        elif name == "trace.op.ms":
            values[name], bases[name] = ms(op_ns, words), words
        elif name == "cli.batch.ms_per_word":
            values[name] = ms(total["cli.batch"], batch_words)
            bases[name] = batch_words
        elif name == "generate.generate_words.ms":
            values[name] = ms(total["generate.generate_words"], generated_words)
            bases[name] = generated_words
        elif name == "trace.overhead_ratio":
            values[name], bases[name] = overhead, words
        elif name.endswith(".ms"):
            values[name], bases[name] = ms(total[name[:-3]], words), words
        elif name.endswith(".share"):
            layer = name[: -len(".share")]
            values[name] = total[layer] / op_ns if op_ns else 0.0
            bases[name] = words
        else:
            counts = tr.counts[name]
            values[name] = sum(counts) / len(counts) if counts else 0.0
            bases[name] = len(counts)
    return values, bases
