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
3 precondition gate (family checker, crossing cap, strand count, input
limits).  ``batch`` reports a failed line as an error row whose
``error_kind`` is syntax, precondition, oracle or internal.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bracket import DEFAULT_MAX_CROSSINGS, bracket_summary, kauffman_bracket
from .errors import BraidSyntaxError, OracleError, PreconditionError
from .families import check_main_lemma, stoimenow_A_adequate_3braid
from .generate import GeneratorSpec, generate_words
from .render import render_state_svg
from .report import SCHEMA, analyze, circle_detail, schreier_block, verify
from .schreier import schreier_normal_form
from .states import classify_circles, is_A_adequate, resolve_all_A
from .words import SyllableWord, cyclically_reduce_into_syllables, parse_braid

__all__ = ["main", "entry"]


def _parse_word(text: str, n: int | None) -> SyllableWord:
    return cyclically_reduce_into_syllables(parse_braid(text, n))


def _emit(payload: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(lines))


def cmd_analyze(args: argparse.Namespace) -> int:
    word = _parse_word(args.word, args.n)
    report = analyze(
        word,
        bracket=args.bracket,
        max_crossings=args.max_crossings,
        assume_prime=args.unsafe_assume_prime,
    )
    if args.json:
        print(json.dumps(report, indent=2))
        return 0
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
    print("\n".join(lines))
    return 0


def _error_kind(exc: Exception) -> str:
    """Name the kind of a batch line's failure, so that a library bug
    ("oracle", "internal") never passes as bad input."""
    if isinstance(exc, BraidSyntaxError):
        return "syntax"
    if isinstance(exc, PreconditionError):
        return "precondition"
    if isinstance(exc, OracleError):
        return "oracle"
    return "internal"


def _batch_line(raw: str, args: argparse.Namespace) -> dict:
    try:
        word = _parse_word(raw, args.n)
        return analyze(
            word,
            bracket=args.bracket,
            max_crossings=args.max_crossings,
            assume_prime=args.unsafe_assume_prime,
        )
    except Exception as exc:  # per-line isolation by contract
        return {
            "schema": SCHEMA,
            "word": raw,
            "error": str(exc),
            "error_kind": _error_kind(exc),
        }


def cmd_batch(args: argparse.Namespace) -> int:
    try:
        with open(args.path, encoding="utf-8") as handle:
            rows = [
                line.strip()
                for line in handle
                if line.strip() and not line.lstrip().startswith("#")
            ]
    except UnicodeDecodeError as exc:
        raise BraidSyntaxError(f"{args.path} is not UTF-8 text: {exc}") from exc
    for row in rows:
        print(json.dumps(_batch_line(row, args)))
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
    if args.json:
        print(json.dumps({"schema": SCHEMA, "words": words}, indent=2))
    else:
        print("\n".join(words))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    word = _parse_word(args.word, args.n)
    result = verify(word, max_crossings=args.max_crossings)
    if args.json:
        print(json.dumps(result.to_json_dict(), indent=2))
    else:
        for check in result.checks:
            mark = "ok  " if check.passed else "FAIL"
            print(f"{mark} {check.name:<14} {check.detail}")
        print(("pass" if result.passed else "FAIL") + f"  {result.word}")
    return 0 if result.passed else 1


def cmd_schreier(args: argparse.Namespace) -> int:
    word = _parse_word(args.word, args.n)
    if word.n != 3:
        raise PreconditionError("schreier normal forms need n = 3")
    block = schreier_block(schreier_normal_form(word))
    text = word.as_text()
    payload = {"schema": SCHEMA, "word": text, "schreier": block}
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
    poly = kauffman_bracket(word, max_crossings=args.max_crossings)
    state = resolve_all_A(word)
    summary = None
    if is_A_adequate(state):
        summary = bracket_summary(poly, state).to_json_dict()
    payload = {
        "schema": SCHEMA,
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
    state = classify_circles(resolve_all_A(word))
    if args.svg is not None:
        with open(args.svg, "w", encoding="utf-8") as handle:
            handle.write(render_state_svg(state))
    census = {k.value: v for k, v in state.census.items()}
    detail = circle_detail(state)
    payload = {
        "schema": SCHEMA,
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
    payload: dict = {
        "schema": SCHEMA,
        "word": word.as_text(),
        "main_lemma": lemma.to_json_dict(),
    }
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


def _word_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("word", help="braid word, e.g. 's1^-3 s2^-3' or '1 1 -2'")
    sub.add_argument(
        "--n", type=int, default=None, help="strand count (default: inferred)"
    )
    sub.add_argument("--json", action="store_true", help="JSON output")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidvol",
        description="All-A state analysis and volume bounds for closed braids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="Full report for one word.")
    _word_arguments(p)
    p.add_argument("--bracket", action="store_true", help="run the bracket oracle")
    p.add_argument("--max-crossings", type=int, default=DEFAULT_MAX_CROSSINGS)
    p.add_argument("--unsafe-assume-prime", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("batch", help="JSONL reports for a file of words.")
    p.add_argument("path", help="input file, one word per line, # comments")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--bracket", action="store_true")
    p.add_argument("--max-crossings", type=int, default=DEFAULT_MAX_CROSSINGS)
    p.add_argument("--unsafe-assume-prime", action="store_true")
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("gen", help="Generate family words.")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--syllables", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--negative-cap", type=int, default=8)
    p.add_argument("--positive-cap", type=int, default=4)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="Cross-check pipeline identities.")
    _word_arguments(p)
    p.add_argument("--max-crossings", type=int, default=DEFAULT_MAX_CROSSINGS)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("schreier", help="3-braid normal form and hyperbolicity.")
    _word_arguments(p)
    p.set_defaults(func=cmd_schreier)

    p = sub.add_parser("bracket", help="Exact Kauffman bracket.")
    _word_arguments(p)
    p.add_argument("--max-crossings", type=int, default=DEFAULT_MAX_CROSSINGS)
    p.set_defaults(func=cmd_bracket)

    p = sub.add_parser("state", help="Circle census and optional SVG.")
    _word_arguments(p)
    p.add_argument("--svg", default=None, metavar="PATH", help="write SVG here")
    p.set_defaults(func=cmd_state)

    p = sub.add_parser("check", help="Family gate query (exit 0/3).")
    _word_arguments(p)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BraidSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OracleError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
