"""Command-line interface.

Subcommands::

    analyze   full report for one word (text or --json)
    batch     JSONL report stream for a file of words, order-preserving
    gen       seeded family-word generation
    verify    cross-check the pipeline identities on a family word
    schreier  normal form, genericity, hyperbolicity for a 3-braid
    bracket   exact Kauffman bracket polynomial and degree-end summary
    state     circle census and per-circle detail, optional SVG
    check     family-membership gate query (exit 0 pass / 3 fail)

Exit codes: 0 success; 1 an identity check failed, an internal check
failed (``OracleError``: a bug, not bad input) or a file could not be read;
2 parse or usage error (a ``batch`` file that is not UTF-8 text included);
3 precondition gate (family checker, the bracket's 8-strand limit and the
crossing cap it derives from the strand count, strand count, input
limits).  ``batch`` reports a failed line as an error row whose
``error_kind`` is syntax, precondition, oracle or internal.  When the
reader of stdout goes away (``braidvol batch words.txt | head``), the run
stops quietly with exit 1: no ``error:`` line and no traceback.
"""

from __future__ import annotations

import argparse
import codecs
import functools
import json
import os
import sys

from .bracket import bracket_summary, kauffman_bracket
from .errors import BraidSyntaxError, OracleError, PreconditionError
from .families import check_main_lemma, stoimenow_A_adequate_3braid
from .generate import GeneratorSpec, generate_words
from .render import render_state_svg
from .report import (
    SCHEMA,
    analyze,
    analyze_line,
    circle_detail,
    schreier_block,
    verify,
)
from .schreier import schreier_normal_form
from .states import is_A_adequate, resolve_all_A
from .words import SyllableWord, cyclically_reduce_into_syllables, parse_braid

__all__ = ["main", "entry"]


def _parse_word(text: str, n: int | None) -> SyllableWord:
    return cyclically_reduce_into_syllables(parse_braid(text, n))


def _emit(payload: dict, as_json: bool, lines: list[str]) -> None:
    """Print the payload as JSON led by the schema tag, or else the lines."""
    if as_json:
        print(json.dumps({"schema": SCHEMA, **payload}, indent=2))
    else:
        print("\n".join(lines))


def cmd_analyze(args: argparse.Namespace) -> int:
    report = analyze(_parse_word(args.word, args.n), bracket=args.bracket)
    census = report["circles"]["census"]
    lines = [
        f"word        {report['word'] or '(empty)'}   n={report['n']}",
        f"twist       t={report['twist']['t']}"
        f" t+={report['twist']['t_plus']} t-={report['twist']['t_minus']}"
        f"   crossings={report['crossings']}",
        "circles     "
        + " ".join(f"{k}={v}" for k, v in census.items() if v),
        f"flags       adequate={report['adequate']} telc={report['telc']}"
        f" connected={report['connected']}   neg_chi={report['neg_chi']}",
        f"family      pass={report['main_lemma']['pass']}",
    ]
    if report["bounds"] is not None:
        b = report["bounds"]
        lines.append(
            f"volume      {b['case']}: {b['effective_lower']:.6f}"
            f" <= vol <= {b['upper']:.6f}"
        )
    if report["jones_bounds"] is not None:
        b = report["jones_bounds"]
        lines.append(
            f"jones       beta'={b['inputs']['beta_prime']}:"
            f" {b['effective_lower']:.6f} <= vol <= {b['upper']:.6f}"
        )
    if report["schreier"] is not None:
        s = report["schreier"]
        lines.append(
            f"schreier    k={s['k']} s={s['s']} eta={s['eta_kind']}"
            f" hyperbolic={s['hyperbolic']}"
        )
    if report["bracket"] is not None:
        b = report["bracket"]
        lines.append(
            f"bracket     top {b['top_coefficient']}*A^{b['top_degree']},"
            f" |penultimate|={b['penultimate_abs']}"
        )
    _emit(report, args.json, lines)
    return 0


# exception class -> (exit code, batch error_kind, stderr prefix): main
# reports these, and batch names each failed line by them, so that a library
# bug ("oracle", "internal") never passes as bad input
_FAILURES: dict[type[Exception], tuple[int, str, str]] = {
    BraidSyntaxError: (2, "syntax", "error: "),
    PreconditionError: (3, "precondition", "error: "),
    OracleError: (1, "oracle", "error: internal check failed: "),
    OSError: (1, "internal", "error: "),
}


def _failure(exc: Exception) -> tuple[int, str, str]:
    for cls, row in _FAILURES.items():
        if isinstance(exc, cls):
            return row
    return 1, "internal", "error: "  # main lets these propagate


def _batch_line(raw: str, n: int | None, bracket: bool) -> str:
    try:
        return analyze_line(_parse_word(raw, n), bracket=bracket)
    except Exception as exc:  # per-line isolation by contract
        return json.dumps(
            {
                "schema": SCHEMA,
                "word": raw,
                "error": str(exc),
                "error_kind": _failure(exc)[1],
            }
        )


# bytes per read of the UTF-8 check that precedes a batch run
_CHECK_CHUNK = 1 << 16


def _check_utf8(path: str) -> None:
    """Decode the file in fixed-size chunks and keep nothing: raises
    ``UnicodeDecodeError`` if it is not UTF-8 text, before ``batch`` writes
    any row."""
    decoder = codecs.getincrementaldecoder("utf-8-sig")()
    with open(path, "rb") as handle:
        while chunk := handle.read(_CHECK_CHUNK):
            decoder.decode(chunk)
    decoder.decode(b"", final=True)


def cmd_batch(args: argparse.Namespace) -> int:
    """Check the file is UTF-8 text, then read it a line at a time and
    write each row as it is made."""
    try:
        _check_utf8(args.path)
        # utf-8-sig: a byte order mark is dropped, not read into line 1
        with open(args.path, encoding="utf-8-sig") as handle:
            for line in handle:
                row = line.strip()
                if row and not row.startswith("#"):
                    print(_batch_line(row, args.n, args.bracket))
    except UnicodeDecodeError as exc:  # also a file changed since the check
        raise BraidSyntaxError(f"{args.path} is not UTF-8 text: {exc}") from exc
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    spec = GeneratorSpec(
        n=args.n,
        syllable_count=args.syllables,
        negative_cap=args.negative_cap,
        positive_cap=args.positive_cap,
        seed=args.seed,
        count=args.count,
    )
    words = [word.as_text() for word in generate_words(spec)]
    _emit({"words": words}, args.json, words)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    word = _parse_word(args.word, args.n)
    result = verify(word)
    # the details start in one column, after the longest check name
    width = max(len(check.name) for check in result.checks)
    lines = [
        f"{'ok  ' if check.passed else 'FAIL'} {check.name:<{width}} {check.detail}"
        for check in result.checks
    ]
    lines.append(("pass" if result.passed else "FAIL") + f"  {result.word}")
    _emit(result.to_json_dict(), args.json, lines)
    return 0 if result.passed else 1


def cmd_schreier(args: argparse.Namespace) -> int:
    word = _parse_word(args.word, args.n)
    block = schreier_block(schreier_normal_form(word))
    text = word.as_text()
    payload = {"word": text, "schreier": block}
    _emit(
        payload,
        args.json,
        [
            f"word        {text or '(empty)'}",
            f"normal form k={block['k']} eta={block['eta_kind']}"
            f" pairs={block['pairs']} s={block['s']}",
            f"generic     {block['generic']}",
            f"hyperbolic  {block['hyperbolic']}"
            + (f" ({block['reason']})" if block["reason"] else ""),
        ],
    )
    return 0


def cmd_bracket(args: argparse.Namespace) -> int:
    word = _parse_word(args.word, args.n)
    poly = kauffman_bracket(word)
    state = resolve_all_A(word)
    summary = None
    if is_A_adequate(state):
        summary = bracket_summary(poly, state).to_json_dict()
    payload = {
        "word": word.as_text(),
        "polynomial": str(poly),
        "summary": summary,
    }
    _emit(
        payload,
        args.json,
        [str(poly), json.dumps(summary)],
    )
    return 0


def cmd_state(args: argparse.Namespace) -> int:
    word = _parse_word(args.word, args.n)
    state = resolve_all_A(word)
    if args.svg is not None:
        # render before opening, so a failed render leaves the file alone
        svg = render_state_svg(state)
        with open(args.svg, "w", encoding="utf-8") as handle:
            handle.write(svg)
    census = {k.value: v for k, v in state.census.items()}
    detail = circle_detail(state)
    payload = {
        "word": word.as_text(),
        "census": census,
        "m": state.m,
        "circles": detail,
    }
    lines = ["census      " + " ".join(f"{k}={v}" for k, v in census.items() if v)]
    lines += [
        f"circle {d['id']:<3} {d['class']:<24} winding={d['winding']}"
        f" support={d['support']}"
        for d in detail
    ]
    if args.svg is not None:
        lines.append(f"svg written to {args.svg}")
    _emit(payload, args.json, lines)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    word = _parse_word(args.word, args.n)
    lemma = check_main_lemma(word)
    payload: dict = {"word": word.as_text(), "main_lemma": lemma.to_json_dict()}
    if word.n == 3:
        payload["stoimenow"] = stoimenow_A_adequate_3braid(word)
    lines = [
        f"word        {word.as_text() or '(empty)'}   n={word.n}",
        f"nice        {lemma.nice}",
        f"cond1       {lemma.cond1}",
        f"cond2       {not lemma.cond2_failures}"
        + (
            "  " + "; ".join(
                f"syllable {f.syllable} ({f.clause}): {f.reason}"
                for f in lemma.cond2_failures
            )
            if lemma.cond2_failures
            else ""
        ),
        f"twist_ok    {lemma.twist_ok}",
        f"pass        {lemma.passed}",
    ]
    if word.n == 3:
        lines.append(f"stoimenow   {payload['stoimenow']}")
    _emit(payload, args.json, lines)
    return 0 if lemma.passed else 3


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidvol",
        description="All-A state analysis and volume bounds for closed braids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the option sets that several subcommands share, each declared once
    word = argparse.ArgumentParser(add_help=False)
    word.add_argument("word", help="braid word, e.g. 's1^-3 s2^-3' or '1 1 -2'")
    word.add_argument(
        "--n", type=int, default=None, help="strand count (default: inferred)"
    )
    word.add_argument("--json", action="store_true", help="JSON output")
    analysis = argparse.ArgumentParser(add_help=False)
    analysis.add_argument(
        "--bracket", action="store_true", help="run the bracket oracle"
    )

    def add(name, func, help_text, *parents) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, parents=list(parents))
        p.set_defaults(func=func)
        return p

    add("analyze", cmd_analyze, "Full report for one word.", word, analysis)

    p = add("batch", cmd_batch, "JSONL reports for a file of words.", analysis)
    p.add_argument("path", help="input file, one word per line, # comments")
    p.add_argument("--n", type=int, default=None)

    p = add("gen", cmd_gen, "Generate family words.")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--syllables", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--negative-cap", type=int, default=8)
    p.add_argument("--positive-cap", type=int, default=4)
    p.add_argument("--json", action="store_true")

    add("verify", cmd_verify, "Cross-check pipeline identities.", word)
    add("schreier", cmd_schreier, "3-braid normal form and hyperbolicity.", word)
    add("bracket", cmd_bracket, "Exact Kauffman bracket.", word)
    p = add("state", cmd_state, "Circle census and optional SVG.", word)
    p.add_argument("--svg", default=None, metavar="PATH", help="write SVG here")
    add("check", cmd_check, "Family gate query (exit 0/3).", word)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and return its exit code.  The argument parser
    is built once per process and shared by every call: parsing fills a
    fresh namespace each time, so no option carries from one call to the
    next."""
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout: end quietly, with stdout on the null
        # device so that the interpreter's final flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except tuple(_FAILURES) as exc:
        code, _, prefix = _failure(exc)
        print(f"{prefix}{exc}", file=sys.stderr)
        return code


def entry() -> None:
    sys.exit(main())
