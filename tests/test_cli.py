"""CLI contract: golden reports, exit codes, batch behavior, determinism."""

import contextlib
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import braidvol
from braidvol import bracket, cli, states
from braidvol.errors import OracleError
from braidvol.generate import (
    MAX_COUNT,
    MAX_WIDE_SYLLABLES,
    GeneratorSpec,
    generate_words,
)
from braidvol.report import VerifyCheck, VerifyResult, verify
from braidvol.words import MAX_STRANDS, MAX_WORD_LETTERS

from conftest import count_calls

GOLDENS = Path(__file__).parent / "goldens"

GOLDEN_CASES = [
    ("ladder2.json", ["analyze", "s1^-3 s2^-3 s1^-3 s2^-3", "--n", "3", "--bracket"]),
    ("mixed3.json", ["analyze", "s1^3 s2^-3 s1^2 s2^-4", "--n", "3"]),
    ("wide4.json", ["analyze", "s2^2 s1^-3 s3^-3 s2^-4 s1^-3 s3^-4", "--n", "4"]),
]


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("golden,argv", GOLDEN_CASES)
def test_analyze_matches_golden(capsys, golden, argv):
    code, out, _ = run(capsys, argv + ["--json"])
    assert code == 0
    assert out == (GOLDENS / golden).read_text(encoding="utf-8")


def test_analyze_text_output(capsys):
    code, out, _ = run(capsys, ["analyze", "s1^-3 s2^-3 s1^-3 s2^-3", "--n", "3"])
    assert code == 0
    assert "t-=4" in out
    assert "neg_chi=3" in out
    assert "N3: 10.991587 <= vol <= 30.448248" in out
    assert "k=-2 s=4" in out


TEXT_LINES = [
    (
        ["analyze", "s1^-3 s2^-3 s1^-3 s2^-3", "--bracket"],
        0,
        "bracket     top 1*A^28, |penultimate|=4",
    ),
    (
        ["check", "s1^2 s2^-2 s1^-3 s2^-3", "--n", "3"],
        3,
        "cond2       False  syllable 0 (2a): neighbor exponent -2 > -3",
    ),
    (
        ["analyze", "s1 s2^-2 s1 s2^-2"],
        0,
        "volume      Cor: 3.663862 <= vol <= 30.448248",
    ),
]


@pytest.mark.parametrize("argv,code,line", TEXT_LINES)
def test_text_output_lines(capsys, argv, code, line):
    got, out, err = run(capsys, argv)
    assert got == code
    assert line in out.splitlines()
    assert err == ""


def test_exit_code_2_on_parse_error(capsys):
    code, out, err = run(capsys, ["analyze", "sX^banana"])
    assert code == 2
    assert not out
    assert "error:" in err


def test_exit_code_3_on_gate_failures(capsys):
    # family gate
    code, _, _ = run(capsys, ["check", "s1^-2 s2^-3", "--n", "3"])
    assert code == 3
    # infeasible generator spec
    code, _, err = run(capsys, ["gen", "--n", "3", "--syllables", "2"])
    assert code == 3
    assert "error:" in err
    # strand-count gate
    code, _, _ = run(capsys, ["schreier", "s1^2 s3^-3", "--n", "4"])
    assert code == 3
    # crossing cap: 1,692 crossings on 3 strands, one above its cap
    code, _, err = run(capsys, ["bracket", "s1^-846 s2^846", "--n", "3"])
    assert code == 3
    assert "1691" in err  # the cap is echoed
    # verify outside the family
    code, _, _ = run(capsys, ["verify", "s1^-2 s2^-3", "--n", "3"])
    assert code == 3


LADDER = ["s1^-3 s2^-3 s1^-3 s2^-3", "--n", "3"]


@pytest.mark.parametrize(
    "command,extra",
    [
        ("analyze", ["--bracket"]),
        ("batch", []),
        ("verify", []),
        ("bracket", []),
        ("gen", []),
        ("schreier", []),
        ("state", []),
        ("check", []),
    ],
)
def test_negative_crossing_cap_is_a_usage_error(capsys, tmp_path, command, extra):
    # no subcommand takes --max-crossings (bracket derives its cap from the
    # strand count), so a cap of any value is a usage error everywhere
    words = tmp_path / "words.txt"
    words.write_text(LADDER[0] + "\n")
    target = {
        "batch": [str(words), "--n", "3"],
        "gen": ["--n", "3", "--syllables", "4"],
    }.get(command, LADDER)
    for cap in ["-5", "0", "100"]:
        with pytest.raises(SystemExit) as exc:
            cli.main([command, *target, *extra, "--max-crossings", cap])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --max-crossings" in captured.err


def test_check_prints_each_cond2_failure(capsys):
    code, out, _ = run(capsys, ["check", "s1^-3 s2^2 s1^-2 s2^-3", "--n", "3"])
    assert code == 3
    assert "cond2       False  syllable 1 (2c): neighbor exponent -2 > -3\n" in out


def test_check_passes_family_word(capsys):
    code, out, _ = run(capsys, ["check", "s1^-3 s2^-3 s1^-3 s2^-3", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["main_lemma"]["pass"] is True
    assert payload["stoimenow"] is True


def test_verify_passes_and_prints_checks(capsys):
    code, out, _ = run(capsys, ["verify", "s1^-3 s2^-3 s1^-3 s2^-3", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    names = [c["name"] for c in payload["checks"]]
    assert "bracket_oracle" in names
    assert "one_wanderer" in names


FAMILY_WORD = "s1^-3 s2^-3 s1^-3 s2^-3"


def test_verify_text_starts_every_detail_in_one_column(capsys):
    # no_unclassified (15 characters) is the longest check name of a 3-braid
    code, out, _ = run(capsys, ["verify", FAMILY_WORD])
    assert code == 0
    _, blob, _ = run(capsys, ["verify", FAMILY_WORD, "--json"])
    checks = json.loads(blob)["checks"]
    lines = out.splitlines()
    assert len(lines) == len(checks) + 1
    width = max(len(check["name"]) for check in checks)
    assert width == len("no_unclassified")
    for line, check in zip(lines, checks):
        assert line[5:].startswith(check["name"])
        assert line[5 + width :] == " " + check["detail"]



@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", FAMILY_WORD],
        ["gen", "--n", "3", "--syllables", "4"],
        ["verify", FAMILY_WORD],
        ["schreier", FAMILY_WORD],
        ["bracket", FAMILY_WORD],
        ["state", FAMILY_WORD],
        ["check", FAMILY_WORD],
    ],
)
def test_json_payload_starts_with_the_schema_tag(capsys, argv):
    code, out, _ = run(capsys, argv + ["--json"])
    assert code == 0
    payload = json.loads(out)
    assert next(iter(payload)) == "schema"
    assert payload["schema"] == "braidvol/1"


def test_verify_json_carries_the_schema_tag(capsys):
    code, out, _ = run(capsys, ["verify", FAMILY_WORD, "--json"])
    assert code == 0
    payload = json.loads(out)
    # the tag is the CLI's: the library dict keeps its three keys
    library = verify(cli._parse_word(FAMILY_WORD, None)).to_json_dict()
    assert payload == {"schema": "braidvol/1", **library}
    assert list(library) == ["word", "pass", "checks"]


def test_verify_exit_code_1_when_an_identity_fails(capsys, monkeypatch):
    # a genuine identity failure would be a bug, so fake one to pin the exit code
    broken = VerifyResult(
        word="w",
        passed=False,
        checks=(VerifyCheck("circle_count", False, "forced"),),
    )
    monkeypatch.setattr(cli, "verify", lambda word: broken)
    code, out, _ = run(capsys, ["verify", "s1^-3 s2^-3 s1^-3 s2^-3"])
    assert code == 1
    assert "FAIL" in out


def test_internal_check_failure_exits_1_without_traceback(capsys, monkeypatch):
    # a library bug must not look like bad input (2) or a gate (3)
    def broken(word):
        raise OracleError("forced")

    monkeypatch.setattr(cli, "verify", broken)
    code, out, err = run(capsys, ["verify", "s1^-3 s2^-3 s1^-3 s2^-3"])
    assert code == 1
    assert out == ""
    assert err == "error: internal check failed: forced\n"


def test_batch_processes_comments_blanks_and_errors(capsys, tmp_path):
    path = tmp_path / "words.txt"
    path.write_text(
        "# family ladder\n"
        "s1^-3 s2^-3 s1^-3 s2^-3\n"
        "\n"
        "s1^3 s2^-3 s1^2 s2^-4\n"
        "not a braid\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, ["batch", str(path), "--n", "3"])
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 3  # comment and blank skipped
    assert rows[0]["word"] == "s1^-3 s2^-3 s1^-3 s2^-3"
    assert rows[1]["neg_chi"] == 1
    assert "error" in rows[2] and rows[2]["word"] == "not a braid"


def test_batch_refuses_undecodable_input(capsys, tmp_path):
    path = tmp_path / "words.bin"
    path.write_bytes(b"s1^-3 s2^-3\n\xff bad\n")
    code, out, err = run(capsys, ["batch", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path} is not UTF-8 text")
    assert err.count("\n") == 1


def test_batch_reads_past_a_byte_order_mark(capsys, tmp_path):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    text = "s1^-3 s2^-3 s1^-3 s2^-3\n# comment\ns1^3 s2^-3\n"
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    code, out, _ = run(capsys, ["batch", str(marked), "--n", "3"])
    assert code == 0
    assert "error" not in out
    assert out == run(capsys, ["batch", str(plain), "--n", "3"])[1]
    assert len(out.splitlines()) == 2


def test_batch_refuses_a_file_that_turns_undecodable_after_the_check(
    capsys, tmp_path, monkeypatch
):
    # the rows stream, so a file that fails to decode only after the check
    # has had its first rows written; the refusal is the same
    monkeypatch.setattr(cli, "_check_utf8", lambda path: None)
    path = tmp_path / "words.bin"
    path.write_bytes(b"s1^-3 s2^-3\n\xff bad\n")
    code, out, err = run(capsys, ["batch", str(path)])
    assert code == 2
    assert err.startswith(f"error: {path} is not UTF-8 text")


def batch_peak_bytes(path):
    """The tracemalloc peak of one ``batch`` call, its rows sent to
    os.devnull."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = cli.main(["batch", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    return peak


def test_batch_memory_does_not_grow_with_the_file(tmp_path):
    # every line is an error row; the rows are written as the lines are
    # read, so ten times the lines costs no more than a few buffers
    peaks = []
    for lines in (2_000, 2_000, 20_000):
        path = tmp_path / f"words-{lines}.txt"
        path.write_text("sX\n" * lines, encoding="utf-8")
        peaks.append(batch_peak_bytes(path))
    assert peaks[2] - peaks[1] < 200_000, peaks


def read_one_line_and_close(argv):
    """Run ``python -m braidvol`` on ``argv`` in a child process, read one
    line of its stdout, close the pipe and return the exit status and
    everything the child wrote to stderr."""
    src = str(Path(braidvol.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else f"{src}{os.pathsep}{path}"}
    command = [sys.executable, "-m", "braidvol", *argv]
    with subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    ) as child:
        assert child.stdout.readline()
        child.stdout.close()
        err = child.stderr.read()
        code = child.wait(timeout=120)
    return code, err.decode()


def test_a_closed_stdout_pipe_ends_the_run_quietly(tmp_path):
    # braidvol batch words.txt | head -1: the lines after the first meet a
    # closed pipe, far past its buffer, and the run stops with exit 1 and
    # nothing on stderr, neither an error line nor a traceback
    words = generate_words(GeneratorSpec(n=3, syllable_count=200, seed=1, count=50))
    path = tmp_path / "words.txt"
    path.write_text("".join(w.as_text() + "\n" for w in words), encoding="utf-8")
    assert read_one_line_and_close(["batch", str(path), "--n", "3"]) == (1, "")
    # analyze --json | head -1, on a report of many lines
    code, err = read_one_line_and_close(["analyze", words[0].as_text(), "--json"])
    assert code in (0, 1) and err == ""


def test_batch_calls_share_a_parser_and_leak_no_option(capsys, tmp_path):
    path = tmp_path / "words.txt"
    words = ["s1^-3 s2^-3 s1^-3 s2^-3", "s1^-4 s2^-3", "s1^-3 s2^-5"]
    path.write_text("\n".join(words) + "\n", encoding="utf-8")
    assert cli._build_parser() is cli._build_parser()

    code, out, _ = run(capsys, ["batch", str(path), "--bracket"])
    assert code == 0
    assert all(json.loads(row)["bracket"] is not None for row in out.splitlines())
    code, out, _ = run(capsys, ["batch", str(path)])
    assert code == 0
    assert [json.loads(row)["bracket"] for row in out.splitlines()] == [None] * 3

    # a usage error leaves the parser as it was
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["batch", str(path), "--n", "three"])
    assert exit_info.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
    assert run(capsys, ["batch", str(path)])[:2] == (0, out)

    # --n from one call does not carry into the next
    code, wide, _ = run(capsys, ["batch", str(path), "--n", "5"])
    assert code == 0
    assert [json.loads(row)["n"] for row in wide.splitlines()] == [5] * 3
    assert run(capsys, ["batch", str(path)])[:2] == (0, out)
    assert [json.loads(row)["n"] for row in out.splitlines()] == [3] * 3


@pytest.mark.parametrize(
    "argv",
    [
        ["batch", "{tmp}/missing.txt"],
        ["state", "s1^-3 s2^-3", "--svg", "{tmp}/missing/state.svg"],
    ],
)
def test_unreadable_or_unwritable_path_exits_1(capsys, tmp_path, argv):
    code, out, err = run(capsys, [arg.format(tmp=tmp_path) for arg in argv])
    assert code == 1
    assert out == ""
    assert err.startswith("error: [Errno 2] ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


BATCH_ERROR_KINDS = [
    ("not a braid", "syntax"),
    (f"s1^-{MAX_WORD_LETTERS + 1}", "precondition"),
    ("s1^-4 s2^-4", "oracle"),
    ("s1^-5 s2^-5", "internal"),
]


@pytest.mark.parametrize("line,kind", BATCH_ERROR_KINDS)
def test_batch_error_rows_name_their_kind(capsys, tmp_path, monkeypatch, line, kind):
    # library bugs are faked in the function batch calls: a real one would
    # be fixed
    real = cli.analyze_line

    def analyze_line(word, **kwargs):
        if word.as_text() == "s1^-4 s2^-4":
            raise OracleError("forced")
        if word.as_text() == "s1^-5 s2^-5":
            raise ZeroDivisionError("forced")
        return real(word, **kwargs)

    monkeypatch.setattr(cli, "analyze_line", analyze_line)
    path = tmp_path / "words.txt"
    path.write_text(f"s1^-3 s2^-3 s1^-3 s2^-3\n{line}\n", encoding="utf-8")
    code, out, _ = run(capsys, ["batch", str(path), "--n", "3"])
    assert code == 0
    ok, failed = [json.loads(row) for row in out.splitlines()]
    golden = json.loads((GOLDENS / "ladder2.json").read_text(encoding="utf-8"))
    assert set(ok) == set(golden)  # success rows keep the braidvol/1 key set
    assert set(failed) == {"schema", "word", "error", "error_kind"}
    assert failed["word"] == line
    assert failed["error_kind"] == kind
    assert out.splitlines()[1] == json.dumps(failed)  # the row's dict, as is


# tokens of the grammar on generators 1 to 8, mixed with a few odd ones:
# tokens at and past the limits and near misses of the grammar
word_token_st = st.one_of(
    st.builds(
        lambda g, r: f"s{g}^{r}",
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=-12, max_value=12),
    ),
    st.builds(str, st.integers(min_value=-8, max_value=8).filter(bool)),
)
odd_token_st = st.sampled_from(
    [
        "0", "s0", "S2", "s9", "s31", "s32", "s40", f"s1^-{MAX_WORD_LETTERS + 1}",
        "s2^999999999999", "9" * 19, "s1^", "^2", "s", "s-1", "s1^+2", "s1^2^3",
        "1e3", "0x2", "s\u0661", "\u0662", "x", "#", "\ufeff",
    ]
)


@st.composite
def batch_lines(draw):
    tokens = draw(st.lists(word_token_st, min_size=1, max_size=40))
    for odd in draw(st.lists(odd_token_st, max_size=2)):
        tokens.insert(draw(st.integers(min_value=0, max_value=len(tokens))), odd)
    return " ".join(tokens)


@given(
    batch_lines(),
    st.sampled_from([None, 2, 3, 4, 8]),
    st.booleans(),
)
@settings(max_examples=400, deadline=None)
def test_batch_lines_of_token_soup_are_rows_or_user_errors(line, n, bracket):
    # a line the library cannot read is the user's error, never an oracle
    # failure or a crash, and no line of at most 40 short tokens is slow
    start = time.perf_counter()
    row = json.loads(cli._batch_line(line, n, bracket))
    assert time.perf_counter() - start < 0.1, line
    assert row["schema"] == "braidvol/1"
    if "error" in row:
        assert row["error_kind"] in ("syntax", "precondition"), row
        assert row["word"] == line
    else:
        assert row["main_lemma"]["nice_cyclic_near_miss"] is False


def test_batch_bracket_above_the_strand_limit_gives_precondition_rows(
    capsys, tmp_path
):
    # the A-adequate word used to be refused only after its analysis, and
    # the non-adequate one not at all
    path = tmp_path / "words.txt"
    path.write_text("s1^-3 s2^-3 s1^-3 s2^-3\ns1^-1 s2^-3\n", encoding="utf-8")
    code, out, _ = run(capsys, ["batch", str(path), "--n", "9", "--bracket"])
    assert code == 0
    rows = [json.loads(row) for row in out.splitlines()]
    assert [row["error_kind"] for row in rows] == ["precondition"] * 2
    assert all("above the bracket limit of 8" in row["error"] for row in rows)
    code, out, err = run(capsys, ["analyze", "s1^-1 s2^-3", "--n", "9", "--bracket"])
    assert code == 3
    assert not out
    assert "above the bracket limit of 8" in err


def test_exit_code_3_on_input_limits(capsys):
    for argv in (
        ["analyze", f"s1^-{MAX_WORD_LETTERS + 1}"],
        ["analyze", "s1", "--n", str(MAX_STRANDS + 1)],
        ["state", f"s{MAX_STRANDS}"],
        ["bracket", "s1", "--n", "9"],
        ["gen", "--n", "3", "--syllables", "4", "--count", str(MAX_COUNT + 1)],
        [
            "gen", "--n", "4", "--syllables", "1000",
            "--count", str(MAX_WIDE_SYLLABLES // 1000 + 1),
        ],
    ):
        code, out, err = run(capsys, argv)
        assert code == 3, argv
        assert not out
        assert "limit" in err


def test_gen_is_deterministic(capsys):
    argv = ["gen", "--n", "4", "--syllables", "9", "--seed", "11", "--count", "3"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second
    assert len(first.splitlines()) == 3
    code, out, _ = run(capsys, argv + ["--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["words"] == first.splitlines()


def test_gen_output_feeds_back_through_check(capsys):
    _, out, _ = run(capsys, ["gen", "--n", "3", "--syllables", "6", "--seed", "5"])
    word = out.strip()
    code, _, _ = run(capsys, ["check", word, "--n", "3"])
    assert code == 0


def test_state_writes_svg(capsys, tmp_path):
    target = tmp_path / "state.svg"
    code, out, _ = run(
        capsys,
        ["state", "s1^-3 s2^-3", "--n", "3", "--svg", str(target)],
    )
    assert code == 0
    assert str(target) in out
    root = ET.fromstring(target.read_text(encoding="utf-8"))
    assert len(root.findall("{http://www.w3.org/2000/svg}path")) == 5


def test_state_keeps_the_old_svg_when_rendering_fails(capsys, tmp_path, monkeypatch):
    target = tmp_path / "state.svg"
    target.write_text("<svg>old</svg>", encoding="utf-8")

    def broken(state):
        raise OracleError("forced")

    monkeypatch.setattr(cli, "render_state_svg", broken)
    code, out, err = run(
        capsys, ["state", "s1^-3 s2^-3", "--n", "3", "--svg", str(target)]
    )
    assert code == 1
    assert out == ""
    assert err == "error: internal check failed: forced\n"
    assert target.read_text(encoding="utf-8") == "<svg>old</svg>"


def test_state_census_json(capsys):
    code, out, _ = run(capsys, ["state", "s1^-3 s2^-3", "--n", "3", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["census"]["small_inner"] == 4
    assert payload["census"]["essential_wandering"] == 1
    assert len(payload["circles"]) == 5


def test_bracket_prints_polynomial_and_summary(capsys):
    code, out, _ = run(capsys, ["bracket", "s1^2", "--n", "2", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["polynomial"] == "-4:-1 4:-1"
    assert payload["summary"]["top_coefficient"] == -1


def test_bracket_sweeps_and_traces_once(capsys, monkeypatch):
    sweeps = count_calls(monkeypatch, bracket, "_sweep")
    traces = count_calls(monkeypatch, states, "resolve_all_A")
    classified = count_calls(monkeypatch, states, "classify_circles")
    code, out, _ = run(capsys, ["bracket", "s1^-3 s2^-3 s1^-3 s2^-3", "--json"])
    assert code == 0
    assert json.loads(out)["summary"]["penultimate_abs"] == 4
    assert (len(sweeps), len(traces), len(classified)) == (1, 1, 0)


def subcommand_words():
    """Seeded random-letter words at n = 2 ... 5 and generated family words
    at n = 3 and 4, as ``(n, text)``."""
    rng = random.Random(5)
    words = [
        (n, " ".join(str(rng.choice((-1, 1)) * rng.randint(1, n - 1)) for _ in range(k)))
        for n in (2, 3, 4, 5)
        for k in rng.choices(range(1, 25), k=20)
    ]
    for n in (3, 4):
        for syllables in (6, 8, 12, 20):
            spec = GeneratorSpec(n=n, syllable_count=syllables, seed=syllables, count=3)
            words += [(n, word.as_text()) for word in generate_words(spec)]
    return words


def test_each_subcommand_writes_the_analyze_block(capsys):
    # check, state, bracket and schreier print the blocks of the report
    # that analyze prints for the same word, key for key and in its order
    def same(block, want):
        return json.dumps(block) == json.dumps(want)

    checked = {"failures": 0, "passed": 0, "bracket": 0}
    for n, text in subcommand_words():
        argv = [text, "--n", str(n), "--json"]

        def payload(command, *extra):
            code, out, _ = run(capsys, [command, *argv, *extra])
            return code, json.loads(out)

        _, report = payload("analyze")
        code, check = payload("check")
        assert same(check["main_lemma"], report["main_lemma"]), text
        assert code == (0 if report["main_lemma"]["pass"] else 3)
        assert check.get("stoimenow", "absent") == (
            report["stoimenow"] if n == 3 else "absent"
        )
        checked["failures"] += bool(report["main_lemma"]["cond2_failures"])
        checked["passed"] += report["main_lemma"]["pass"]
        _, state = payload("state")
        assert same(state["census"], report["circles"]["census"]), text
        assert state["m"] == report["m"]
        assert same(state["circles"], report["circles"]["detail"]), text
        if report["crossings"] <= bracket._crossing_cap(n):
            _, summary = payload("bracket")
            _, with_bracket = payload("analyze", "--bracket")
            assert same(summary["summary"], with_bracket["bracket"]), text
            checked["bracket"] += with_bracket["bracket"] is not None
        if n == 3:
            _, form = payload("schreier")
            assert same(form["schreier"], report["schreier"]), text
    assert min(checked.values()) >= 20, checked


def test_schreier_subcommand(capsys):
    code, out, _ = run(capsys, ["schreier", "s1^-3 s2^-3 s1^-3 s2^-3", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schreier"]["k"] == -2
    assert payload["schreier"]["hyperbolic"] is True


def test_schreier_subcommand_skips_the_full_report(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("schreier must not build the analyze report")

    monkeypatch.setattr(cli, "analyze", refuse)
    code, out, _ = run(capsys, ["schreier", "s1^-3 s2^-3 s1^-3 s2^-3", "--json"])
    assert code == 0
    golden = json.loads((GOLDENS / "ladder2.json").read_text(encoding="utf-8"))
    assert json.loads(out) == {
        "schema": "braidvol/1",
        "word": golden["word"],
        "schreier": golden["schreier"],
    }
    code, out, _ = run(capsys, ["schreier", "s1^2 s2^3"])
    assert code == 0
    assert out.splitlines()[-1] == (
        "hyperbolic  False (conjugate to sigma1^2 sigma2^3)"
    )
    code, out, err = run(capsys, ["schreier", "s1^2 s3^-3", "--n", "4"])
    assert code == 3
    assert not out
    assert err == "error: Schreier forms need n = 3, got n = 4\n"


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
