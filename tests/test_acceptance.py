"""End-to-end acceptance suite.

One test per headline guarantee, each with its runtime budget asserted
alongside the mathematical content, so `pytest -v` reads as a checklist.
"""

import json
import random
import time
from itertools import product
from pathlib import Path

import pytest

from braidvol import cli
from braidvol.bounds import (
    V3,
    V8,
    BoundCase,
    jones_bounds,
    three_braid_s_bounds,
    volume_bounds,
)
from braidvol.bracket import stable_penultimate_coefficient
from braidvol.families import check_main_lemma, stoimenow_A_adequate_3braid
from braidvol.generate import GeneratorSpec, generate_words
from braidvol.report import verify
from braidvol.schreier import (
    EtaKind,
    direct_read_k,
    direct_read_s,
    is_hyperbolic_closure_3braid,
    schreier_normal_form,
)
from braidvol.states import (
    CircleClass,
    is_A_adequate,
    is_connected_closure,
    reduced_graph,
    resolve_all_A,
    satisfies_TELC,
    twist_counts,
)
from braidvol.words import SyllableWord

from conftest import ORACLE_CORPUS, ladder, word_from_letters, word_of

TOL = 1e-9
GOLDENS = Path(__file__).parent / "goldens"


def test_criterion_1_ladder_family():
    start = time.monotonic()
    for m in range(2, 6):
        word = ladder(m)
        assert check_main_lemma(word).passed
        state = resolve_all_A(word)
        census = {k.value: v for k, v in state.census.items() if v}
        assert census == {"small_inner": 4 * m, "essential_wandering": 1}
        graph = reduced_graph(state)
        t, _, t_minus = twist_counts(word)
        assert graph.neg_chi == 2 * m - 1 == t_minus - 1
        form = schreier_normal_form(word)
        assert form.k == -m
        assert form.s == 2 * m
        assert form.kind is EtaKind.GENERIC
        assert form.pairs == ((1, 1),) * (2 * m)
        assert direct_read_k(word) == form.k
        assert direct_read_s(word) == form.s
        vol = volume_bounds(word, state, graph)
        jon = jones_bounds(word, state, graph)
        assert abs(vol.lower - V8 * (2 * m - 1)) < TOL
        assert abs(vol.upper - 10 * V3 * (t - 1)) < TOL
        assert abs(jon.lower - V8 * (2 * m - 1)) < TOL
        assert abs(jon.upper - 10 * V3 * (4 * m - 1)) < TOL
    assert time.monotonic() - start < 1.0


def test_criterion_2_stoimenow_equivalence():
    start = time.monotonic()
    exponents = [e for e in range(-4, 5) if e != 0]
    checked = 0
    for p1, p2, p3, p4 in product(exponents, repeat=4):
        word = SyllableWord(3, ((1, p1), (2, p2), (1, p3), (2, p4)))
        assert stoimenow_A_adequate_3braid(word) == is_A_adequate(
            resolve_all_A(word)
        )
        checked += 1
    assert checked == 4096
    assert time.monotonic() - start < 10.0


def _mutate(letters, rng):
    move = rng.randrange(3)
    if move == 0 and letters:
        cut = rng.randrange(len(letters))
        return letters[cut:] + letters[:cut]
    if move == 1:
        pos = rng.randrange(len(letters) + 1)
        g = rng.choice([1, -1, 2, -2])
        return letters[:pos] + [g, -g] + letters[pos:]
    spots = [
        i
        for i in range(len(letters) - 2)
        if letters[i] == letters[i + 2]
        and abs(letters[i]) != abs(letters[i + 1])
        and (letters[i] > 0) == (letters[i + 1] > 0)
    ]
    if not spots:
        return letters
    i = rng.choice(spots)
    a, b = letters[i], letters[i + 1]
    return letters[:i] + [b, a, b] + letters[i + 3 :]


def test_criterion_3_normal_form_invariance():
    start = time.monotonic()
    rng = random.Random(2026)
    for _ in range(500):
        letters = [
            rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 12))
        ]
        base = schreier_normal_form(word_from_letters(letters, 3))
        assert schreier_normal_form(base.to_braid_word()) == base
        current = letters
        for _ in range(20):
            current = _mutate(current, rng)
            assert schreier_normal_form(word_from_letters(current, 3)) == base
    assert time.monotonic() - start < 10.0


def test_criterion_4_direct_reads():
    start = time.monotonic()
    for i in range(200):
        spec = GeneratorSpec(
            n=3, syllable_count=4 + 2 * (i % 4), seed=10_000 + i
        )
        word = generate_words(spec)[0]
        form = schreier_normal_form(word)
        _, _, t_minus = twist_counts(word)
        assert direct_read_k(word) == form.k
        assert direct_read_s(word) == form.s == t_minus
    assert time.monotonic() - start < 5.0


def test_criterion_5_structural_suite():
    start = time.monotonic()
    for n in (3, 4, 5, 6):
        for i in range(200):
            spec = GeneratorSpec(
                n=n,
                syllable_count=2 * (n - 1) + 2 * (i % 4),
                seed=1000 * n + i,
            )
            word = generate_words(spec)[0]
            state = resolve_all_A(word)
            graph = reduced_graph(state)
            t, t_plus, _ = twist_counts(word)
            census = state.census
            assert is_A_adequate(state)
            assert satisfies_TELC(state)
            assert is_connected_closure(word)
            assert t >= 2 * (n - 1)
            assert census[CircleClass.UNCLASSIFIED] == 0
            assert all(c.winding in (0, 1) for c in state.circles)
            small = census[CircleClass.SMALL_INNER]
            assert small == sum(-r - 1 for _, r in word.syllables if r < 0)
            medium = census[CircleClass.MEDIUM_INNER]
            boundary_only = all(
                g in (1, n - 1) for g, r in word.syllables if r > 0
            )
            assert t_plus <= medium <= 2 * t_plus
            if boundary_only:
                assert medium == t_plus
            essential = census[CircleClass.ESSENTIAL_WANDERING]
            nonwandering = census[CircleClass.NONWANDERING]
            assert essential + nonwandering <= n - 2
            nonsmall = len(state.circles) - small
            assert graph.neg_chi == t - nonsmall
            if n == 3:
                wanderers = (
                    essential
                    + nonwandering
                    + census[CircleClass.NON_ESSENTIAL_WANDERING]
                )
                assert wanderers == 1
    assert time.monotonic() - start < 30.0


def test_criterion_6_bracket_oracle_identity():
    start = time.monotonic()
    assert len(ORACLE_CORPUS) >= 40
    for n, text in ORACLE_CORPUS:
        word = word_of(text, n)
        assert word.crossings <= 18
        state = resolve_all_A(word)
        assert is_A_adequate(state)
        graph = reduced_graph(state)
        summary = stable_penultimate_coefficient(word)
        assert abs(summary.top_coefficient) == 1
        assert summary.penultimate_abs == 1 + graph.neg_chi
    assert time.monotonic() - start < 120.0


@pytest.mark.parametrize(
    "n, syllable_counts", [(3, (4, 6, 10, 16, 20)), (4, (6, 10, 16)), (5, (8, 12))]
)
def test_criterion_6_bracket_identity_at_generator_sizes(n, syllable_counts):
    start = time.monotonic()
    crossings = []
    for syllables in syllable_counts:
        spec = GeneratorSpec(n=n, syllable_count=syllables, seed=syllables, count=6)
        for word in generate_words(spec):
            if not 21 <= word.crossings <= 100:
                continue
            crossings.append(word.crossings)
            graph = reduced_graph(resolve_all_A(word))
            summary = stable_penultimate_coefficient(word)
            assert abs(summary.top_coefficient) == 1
            assert summary.penultimate_abs == 1 + graph.neg_chi
    assert len(crossings) >= 10
    assert min(crossings) < 40 and max(crossings) > 60
    assert time.monotonic() - start < 30.0


def test_criterion_6_bracket_identity_at_200_syllables():
    # the generator's largest words, 894 to 1,119 crossings: the top of the
    # bracket is swept within the window of degrees that can reach top - 4
    start = time.monotonic()
    crossings = []
    for n in (3, 4, 5, 8):
        for seed in (1, 2):
            spec = GeneratorSpec(n=n, syllable_count=200, seed=seed, count=2)
            for word in generate_words(spec):
                crossings.append(word.crossings)
                result = verify(word)
                checks = {c.name: c.passed for c in result.checks}
                assert checks.get("bracket_oracle") is True, word.as_text()
                assert result.passed, word.as_text()
    assert min(crossings) > 800
    assert time.monotonic() - start < 30.0


def test_criterion_7_constants_and_crossover():
    start = time.monotonic()
    assert int(V8 * 10**4) == 36638
    assert int(V3 * 10**4) == 10149
    assert abs(V8 - 3.663862376708876) < 1e-12
    assert abs(V3 - 1.014941606409654) < 1e-12
    threshold = (276.6 - V8) / (4.0 * V3 - V8)
    assert abs(threshold - 690) < 1  # the approximate crossover near 690
    assert three_braid_s_bounds(689)[2] is BoundCase.SCHREIER3
    assert three_braid_s_bounds(690)[2] is BoundCase.FKP3
    assert time.monotonic() - start < 0.001


def test_criterion_8_hyperbolicity_dichotomy():
    start = time.monotonic()
    exponents = [e for e in range(-5, 6) if e != 0]
    for p, q in product(exponents, repeat=2):
        word = SyllableWord(3, ((1, p), (2, q)))
        verdict = is_hyperbolic_closure_3braid(word)
        assert verdict.hyperbolic is False
    for i in range(100):
        spec = GeneratorSpec(n=3, syllable_count=4 + 2 * (i % 3), seed=i)
        word = generate_words(spec)[0]
        assert is_hyperbolic_closure_3braid(word).hyperbolic is True
    assert time.monotonic() - start < 5.0


def test_criterion_9_cli_contract(capsys, monkeypatch, tmp_path):
    start = time.monotonic()

    def run(argv):
        code = cli.main(argv)
        return code, capsys.readouterr().out

    # golden reports for three fixed words
    for golden, argv in (
        ("ladder2.json", ["analyze", "s1^-3 s2^-3 s1^-3 s2^-3", "--n", "3", "--bracket"]),
        ("mixed3.json", ["analyze", "s1^3 s2^-3 s1^2 s2^-4", "--n", "3"]),
        ("wide4.json", ["analyze", "s2^2 s1^-3 s3^-3 s2^-4 s1^-3 s3^-4", "--n", "4"]),
    ):
        code, out = run(argv + ["--json"])
        assert code == 0
        assert out == (GOLDENS / golden).read_text(encoding="utf-8")

    # batch keeps the input order
    path = tmp_path / "batch.txt"
    words = [f"s1^-{3 + i % 4} s2^-3 s1^-3 s2^-{3 + i % 3}" for i in range(16)]
    path.write_text("\n".join(words) + "\n", encoding="utf-8")
    _, out = run(["batch", str(path), "--n", "3"])
    assert [json.loads(row)["word"] for row in out.splitlines()] == words

    # deterministic generation
    argv = ["gen", "--n", "4", "--syllables", "8", "--seed", "9", "--count", "4"]
    _, first = run(argv)
    _, second = run(argv)
    assert first == second

    # exit-code matrix: 0 success, 1 identity failure, 2 parse, 3 gate
    assert run(["analyze", "s1^-3 s2^-3", "--n", "3"])[0] == 0
    assert run(["verify", "s1^-3 s2^-3 s1^-3 s2^-3", "--n", "3"])[0] == 0
    assert run(["analyze", "zzz"])[0] == 2
    assert run(["check", "s1^-2 s2^-3", "--n", "3"])[0] == 3
    assert run(["gen", "--n", "3", "--syllables", "2"])[0] == 3
    from braidvol.report import VerifyCheck, VerifyResult

    monkeypatch.setattr(
        cli,
        "verify",
        lambda word: VerifyResult(
            word="w", passed=False, checks=(VerifyCheck("forced", False, ""),)
        ),
    )
    assert run(["verify", "s1^-3 s2^-3 s1^-3 s2^-3", "--n", "3"])[0] == 1

    assert time.monotonic() - start < 5.0


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
