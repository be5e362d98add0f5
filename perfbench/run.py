"""Benchmark of braidvol over seeded corpora, one workload per run.

    python3 perfbench/run.py --workload family3 --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: it imports braidvol from ``src/`` of that
checkout and nowhere else.  Load shape: closed loop, one caller, a single
process and a single thread; ``batch`` is called without ``--jobs``.

A run sets up ``SETUPS`` times (fresh import of braidvol, corpus generation,
warm-up) and keeps the last set-up's corpus.  It then repeats rounds until
``--seconds`` have passed and at least ``MIN_SAMPLES`` per-word latencies
are taken.  On the analyze workloads a round is one in-process
``braidvol.cli.main(["batch", file, "--n", n])`` call per strand count and
chunk of ``BATCH_CHUNK`` words (for ``words_per_s``), followed by one
library pass over the corpus that does what ``batch`` does per line (for
the latencies).  On ``oracle_verify`` a
round is one ``verify()`` loop, which gives both.  Correctness checks run
afterwards on the first round's output.

Every end-to-end time is calibrated (see ``clock.py``): a fixed loop that
does not touch braidvol is timed beside it, and the time is reported as if
that loop had taken 1 ms.  The measured times are printed beside them.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
traced variant (see ``spans.py``) and reports the per-layer metrics.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it repeat the metrics with
their units, sample counts, the failure ratio and the SHA-256 digests of
the corpus and of the output rows.  Everything, spans included, is also
written under ``perfbench/out/``.

Exit status: 0 when every check passed, 1 when one failed, 2 when braidvol
cannot be imported from this checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter, perf_counter_ns

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import spans  # noqa: E402
from clock import Clock  # noqa: E402
import workloads  # noqa: E402

# (name, unit, better) of the untraced run's metrics
END_TO_END = [
    ("words_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p95_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
SETUPS = 3
MIN_SAMPLES = 200  # p95 then has at least ten samples beyond it
WARMUP_WORDS = 4
# Words per `batch` call.  Calibration loops run between calls, so a call
# must be short next to the host's speed regimes (seconds): 8 words keep
# the longest call, on the largest family3 words, under one second.
BATCH_CHUNK = 8


def import_braidvol():
    """Import braidvol afresh from this checkout's ``src/``."""
    for name in [m for m in sys.modules if m.split(".")[0] == "braidvol"]:
        del sys.modules[name]
    module = importlib.import_module("braidvol")
    importlib.import_module("braidvol.cli")
    if not Path(module.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"braidvol came from {module.__file__}, not {SRC}")
    return module


def make_op(kind: str):
    """The timed per-word operation, bound to the braidvol now imported."""
    bv = sys.modules["braidvol"]
    if kind == workloads.ANALYZE:
        # what `batch` does per line, without its per-line error capture
        def op(item):
            n, text = item
            word = bv.cyclically_reduce_into_syllables(bv.parse_braid(text, n))
            return json.dumps(bv.analyze(word))

        return op
    return bv.verify


def set_up(workload: str, seed: int, generate=None):
    """Import, build the corpus and warm up; return the time it took, the
    corpus lines, the operation's inputs and the operation."""
    start = perf_counter()
    bv = import_braidvol()
    kind = workloads.operation(workload)
    lines = workloads.build(workload, seed, generate)
    if kind == workloads.ANALYZE:
        items = lines
    else:
        items = [
            bv.cyclically_reduce_into_syllables(bv.parse_braid(text, n))
            for n, text in lines
        ]
    op = make_op(kind)
    for item in items[:: max(1, len(items) // WARMUP_WORDS)][:WARMUP_WORDS]:
        op(item)
    # free the package copies of earlier set-ups now, not inside a timed call
    gc.collect()
    return perf_counter() - start, lines, items, op


def timed_call(op, item, i: int, failed: dict):
    """``op(item)`` and its time in nanoseconds; ``(None, None)`` when it
    raised, and word ``i`` is then marked in ``failed``."""
    start = perf_counter_ns()
    try:
        out = op(item)
    except Exception as exc:  # a failure is counted, not fatal
        failed[i] = f"raised {exc!r}"
        return None, None
    return perf_counter_ns() - start, out


def run_batch(files: list[tuple[int, Path]], clock: Clock | None = None):
    """One ``batch`` call per input file.  Returns the total wall time in
    seconds twice, measured and calibrated against loops timed just before
    and after each call (without a ``clock``, the measured time twice), and
    the JSONL lines in file order."""
    main = sys.modules["braidvol.cli"].main
    measured = calibrated = 0.0
    out: list[str] = []
    for n, path in files:
        loops = [clock.tick() for _ in range(3)] if clock else []
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            start = perf_counter()
            code = main(["batch", str(path), "--n", str(n)])
            elapsed = perf_counter() - start
        if clock:
            loops += [clock.tick() for _ in range(3)]
        measured += elapsed
        calibrated += clock.scale(elapsed, loops) if clock else elapsed
        out += buffer.getvalue().splitlines()
        if code != 0:
            out.append(f"batch exit code {code}")
    return measured, calibrated, out


def write_batch_files(lines, directory: Path) -> list[tuple[int, Path]]:
    """The corpus as ``batch`` input files, one per strand count and chunk
    of at most ``BATCH_CHUNK`` words, in corpus order."""
    files = []
    for n in dict.fromkeys(n for n, _ in lines):
        texts = [text for m, text in lines if m == n]
        for k in range(0, len(texts), BATCH_CHUNK):
            path = directory / f"n{n}-{k}.txt"
            path.write_text(
                "".join(text + "\n" for text in texts[k : k + BATCH_CHUNK]),
                encoding="utf-8",
            )
            files.append((n, path))
    return files


def measure(kind, items, op, files, seconds, clock: Clock):
    """Untraced rounds.  Returns the per-round rates and per-word latencies
    (ns), each as ``{"calibrated": [...], "measured": [...]}``, the first
    round's library rows and batch lines, and failures by word index."""
    rates = {"calibrated": [], "measured": []}
    samples = {"calibrated": [], "measured": []}
    failed: dict = {}
    rows = batch = None
    start = perf_counter()
    while True:
        if kind == workloads.ANALYZE:
            measured_s, calibrated_s, out = run_batch(files, clock)
            batch = out if batch is None else batch
        outputs = []
        loop_ns = {"calibrated": 0.0, "measured": 0}
        for i, item in enumerate(items):
            clock.tick()
            ns, out = timed_call(op, item, i, failed)
            outputs.append(out)
            if ns is not None:
                for key, value in (("measured", ns), ("calibrated", clock.scale(ns))):
                    samples[key].append(value)
                    loop_ns[key] += value
        rows = outputs if rows is None else rows
        if kind == workloads.VERIFY:  # the verify() loop itself
            measured_s = loop_ns["measured"] / 1e9
            calibrated_s = loop_ns["calibrated"] / 1e9
        rates["measured"].append(len(items) / measured_s)
        rates["calibrated"].append(len(items) / calibrated_s)
        if perf_counter() - start >= seconds and len(samples["measured"]) >= MIN_SAMPLES:
            return rates, samples, rows, batch, failed


def measure_traced(kind, items, op, files, seconds, tr: spans.Tracer):
    """Traced rounds: the batch calls, then for each word the untraced
    operation (the overhead baseline), the traced operation and the layer
    replay.  Returns the overhead ratio, the number of words given to
    batch, the first round's rows and batch lines, and failures by word
    index."""
    bv = sys.modules["braidvol"]
    replay = spans.replay_analyze if kind == workloads.ANALYZE else spans.replay_verify
    untraced_ns = traced_ns = batch_words = wid = 0
    failed: dict = {}
    rows = batch = None
    start = perf_counter()
    while True:
        if kind == workloads.ANALYZE:
            _, _, out = tr.call("cli.batch", None, None, run_batch, files)
            batch = out if batch is None else batch
            batch_words += len(items)
        outputs = []
        for i, item in enumerate(items):
            ns, out = timed_call(op, item, i, failed)
            outputs.append(out)
            if ns is None:
                continue
            untraced_ns += ns
            root = tr.begin("word", None, wid)
            span = tr.begin("op", root, wid)
            if kind == workloads.ANALYZE:
                n, text = item
                word = tr.call("words.parse_braid", span, wid, bv.parse_braid, text, n)
                word = tr.call(
                    "words.cyclically_reduce_into_syllables",
                    span, wid, bv.cyclically_reduce_into_syllables, word,
                )
                report = tr.call("report.analyze", span, wid, bv.analyze, word)
                tr.call("cli.json_dumps", span, wid, json.dumps, report)
            else:
                word = item
                tr.call("report.verify", span, wid, bv.verify, word)
            tr.end(span)
            traced_ns += tr.spans[span][2] - tr.spans[span][1]
            span = tr.begin("replay", root, wid)
            replay(tr, span, wid, word)
            tr.end(span)
            tr.end(root)
            wid += 1
        rows = outputs if rows is None else rows
        if perf_counter() - start >= seconds:
            break
    overhead = traced_ns / untraced_ns if untraced_ns else 0.0
    return overhead, batch_words, rows, batch, failed


def check_rows(workload, kind, rows, batch, failed) -> list[str]:
    """Run the correctness checks, marking failed words; returns the output
    rows as text, in corpus order, for the digest."""
    texts = []
    for i, row in enumerate(rows):
        if row is None:
            texts.append("")
            continue
        if kind == workloads.ANALYZE:
            texts.append(row)
            problems = checks.check_analyze_row(
                json.loads(row), family=workload != "random_words"
            )
            if i >= len(batch) or batch[i] != row:
                problems.append("batch line differs from the library line")
        else:
            texts.append(json.dumps(row.to_json_dict()))
            problems = checks.check_verify_row(row.to_json_dict())
        if problems:
            failed[i] = "; ".join(problems)
    if kind == workloads.ANALYZE and len(batch) > len(rows):
        failed[len(rows) - 1] = f"batch gave {len(batch)} lines for {len(rows)} words"
    return texts


def sha256(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    kind = workloads.operation(workload)
    tr = spans.Tracer() if trace else None

    def traced_generate(spec):
        gen = sys.modules["braidvol"].generate_words
        return tr.call("generate.generate_words", None, None, gen, spec)

    generate = traced_generate if trace else None
    clock = Clock()
    for _ in range(5):  # the loop's own first runs are slower
        clock.tick()
    setups = {"calibrated": [], "measured": []}
    for _ in range(SETUPS):
        loops = [clock.tick() for _ in range(3)]
        setup_s, lines, items, op = set_up(workload, seed, generate)
        loops += [clock.tick() for _ in range(3)]
        setups["measured"].append(setup_s)
        setups["calibrated"].append(clock.scale(setup_s, loops))

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{workload}-") as tmp:
        files = write_batch_files(lines, Path(tmp))
        if trace:
            overhead, batch_words, rows, batch, failed = measure_traced(
                kind, items, op, files, seconds, tr
            )
        else:
            rates, samples, rows, batch, failed = measure(
                kind, items, op, files, seconds, clock
            )
    texts = check_rows(workload, kind, rows, batch, failed)

    result = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "words": len(lines),
        "failed_ratio": len(failed) / len(lines),
        "failures": {str(i): why for i, why in sorted(failed.items())},
        "input_sha256": sha256(f"{n} {text}" for n, text in lines),
        "output_sha256": sha256(texts),
        "setup_runs": setups,
        "calibration_loop_ms": statistics.median(clock.loops) / 1e6,
    }
    if trace:
        values, bases = spans.layer_metrics(
            tr,
            batch_words=batch_words,
            generated_words=SETUPS * len(lines),
            overhead=overhead,
        )
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
        tr.write(OUT / f"{workload}-seed{seed}-spans.jsonl")
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values, measured = (
            {
                "words_per_s": statistics.median(rates[key]),
                "latency_p50_ms": statistics.median(samples[key]) / 1e6,
                "latency_p95_ms": statistics.quantiles(samples[key], n=20)[-1] / 1e6,
                "setup_s": statistics.median(setups[key]),
                "peak_rss_mb": peak_rss_mb,
            }
            for key in ("calibrated", "measured")
        )
        result["measured"] = measured
        n = len(samples["measured"])
        bases = {
            "words_per_s": len(rates["measured"]),
            "latency_p50_ms": n,
            "latency_p95_ms": n,
            "setup_s": SETUPS,
            "peak_rss_mb": 1,
        }
        units = {name: unit for name, unit, _ in END_TO_END}
    result["metrics"] = {
        name: {"value": value, "unit": units[name], "samples": bases[name]}
        for name, value in values.items()
    }
    with open(OUT / f"{workload}-seed{seed}-trace{int(trace)}.json", "w") as f:
        json.dump(result, f, indent=2)
    return result


def report(result: dict) -> None:
    """Human-readable lines, then the one-line JSON result."""
    words = result["words"]
    failed = len(result["failures"])
    print(
        f"workload {result['workload']}  seed {result['seed']}"
        f"  trace {result['trace']}  words {words}"
    )
    measured = result.get("measured", {})
    for name, m in result["metrics"].items():
        line = f"  {name:<48} {m['value']:>14.6g} {m['unit']:<6} (n={m['samples']})"
        if name in measured and name != "peak_rss_mb":
            line += f"  measured {measured[name]:.6g}"
        print(line)
    print(f"  {'calibration loop':<48} {result['calibration_loop_ms']:>14.6g} ms     (median)")
    print(f"  {'failed_ratio':<48} {result['failed_ratio']:>14.6g} ratio  ({failed} of {words} words)")
    print(f"  input_sha256  {result['input_sha256']}")
    print(f"  output_sha256 {result['output_sha256']}")
    for i, why in list(result["failures"].items())[:5]:
        print(f"  FAILED word {i}: {why}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": words,
                "failed": failed,
                "metrics": {
                    name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result["metrics"].items()
                },
            }
        )
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_braidvol()
    except ImportError as exc:
        print(f"error: cannot import braidvol from {SRC}: {exc}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    report(result)
    return 0 if not result["failures"] else 1


if __name__ == "__main__":
    sys.exit(main())
