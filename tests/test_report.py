"""The analyze/verify pipeline: schema stability and identity checks."""

import hashlib
import itertools
import json
import random
import re
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from braidvol import bracket, families, report, schreier, states
from braidvol.bounds import jones_bounds, volume_bounds
from braidvol.errors import PreconditionError
from braidvol.generate import GeneratorSpec, generate_words
from braidvol.report import (
    SCHEMA,
    analyze,
    analyze_line,
    circle_detail,
    schreier_block,
    verify,
)
from braidvol.schreier import (
    EtaKind,
    _direct_form,
    direct_read_k,
    direct_read_s,
    schreier_normal_form,
)
from braidvol.states import (
    StateCircle,
    is_A_adequate,
    reduced_graph,
    resolve_all_A,
    satisfies_TELC,
)
from braidvol.render import render_state_svg
from braidvol.words import (
    MAX_STRANDS,
    SyllableWord,
    cyclically_reduce_into_syllables,
    parse_braid,
)

from conftest import (
    any_n_words,
    capture_returns,
    count_calls,
    gated_3braids,
    label_sweep_words,
    ladder,
    word_of,
    word_st,
)

# family words at n = 3 and n = 4, both under the bracket's caps
ONCE_WORDS = [ladder(2), word_of("s2^2 s1^-3 s3^-3 s2^-4 s1^-3 s3^-4", 4)]

REPORT_KEYS = [
    "schema",
    "word",
    "n",
    "syllables",
    "crossings",
    "twist",
    "circles",
    "m",
    "adequate",
    "telc",
    "connected",
    "neg_chi",
    "main_lemma",
    "stoimenow",
    "bounds",
    "jones_bounds",
    "s_bounds",
    "schreier",
    "turaev",
    "bracket",
]


def test_schema_tag():
    assert SCHEMA == "braidvol/1"
    assert analyze(ladder(1))["schema"] == SCHEMA


def test_report_key_set_is_frozen():
    # absent analyses are null, never missing keys: the key list is the schema
    for word in (ladder(2), word_of("s1^-2 s2^-3"), SyllableWord(4, ())):
        report = analyze(word)
        assert list(report.keys()) == REPORT_KEYS


def test_report_serializes_to_json():
    report = analyze(ladder(2), bracket=True)
    assert json.loads(json.dumps(report)) == report


def test_full_pipeline_on_family_word():
    report = analyze(ladder(2), bracket=True)
    assert report["word"] == "s1^-3 s2^-3 s1^-3 s2^-3"
    assert report["twist"] == {"t": 4, "t_plus": 0, "t_minus": 4}
    assert report["neg_chi"] == 3
    assert report["adequate"] and report["telc"] and report["connected"]
    assert report["main_lemma"]["pass"] is True
    assert report["stoimenow"] is True
    assert report["schreier"]["k"] == -2
    assert report["schreier"]["s"] == 4
    assert report["schreier"]["hyperbolic"] is True
    assert report["s_bounds"]["sharper"] == "Schreier3"
    assert report["s_bounds"]["schreier3"]["inputs"]["s"] == 4
    assert report["turaev"] == {"k": -2, "lower": 1, "upper": 2}
    assert report["bounds"]["case"] == "N3"
    assert report["jones_bounds"]["inputs"]["beta_prime"] == 4
    assert report["bracket"]["penultimate_abs"] == 4
    assert report["bracket"]["top_coefficient"] == 1


def test_gate_failure_nulls_the_bound_blocks():
    report = analyze(word_of("s1^-2 s2^-3"))
    assert report["main_lemma"]["pass"] is False
    assert report["bounds"] is None
    assert report["jones_bounds"] is None
    assert report["s_bounds"] is None
    # schreier still runs on any 3-braid
    assert report["schreier"] is not None


def test_wide_words_null_the_three_strand_blocks():
    w = SyllableWord(4, ((2, 2), (1, -3), (3, -3), (2, -4), (1, -3), (3, -4)))
    report = analyze(w)
    assert report["stoimenow"] is None
    assert report["schreier"] is None
    assert report["s_bounds"] is None
    assert report["turaev"] is None
    assert report["bounds"]["case"] == "N4General"
    assert report["jones_bounds"] is None  # interior positives are refused


def test_bracket_block_is_opt_in():
    assert analyze(ladder(1))["bracket"] is None
    report = analyze(ladder(1), bracket=True)
    assert report["bracket"]["crossings"] == 6
    assert report["bracket"]["penultimate_abs"] == 2
    # the top sweep takes no crossing cap
    assert analyze(ladder(17), bracket=True)["bracket"]["crossings"] == 102


def test_bracket_block_skipped_when_inadequate():
    w = word_of("s1^-1 s2^-3")
    report = analyze(w, bracket=True)
    assert report["adequate"] is False
    assert report["bracket"] is None


def test_analyze_with_bracket_traces_the_state_once(monkeypatch):
    traces = count_calls(monkeypatch, states, "resolve_all_A")
    for w in ONCE_WORDS:
        traces.clear()
        assert analyze(w, bracket=True)["bracket"] is not None
        assert traces == [w], w.as_text()


def test_analyze_batch_line_verify_and_bracket_summary_leave_the_circles_unbuilt(
    monkeypatch,
):
    # the census, the reduced graph, analyze's circle detail, the batch line
    # and the bracket summary all read the state's runs
    word = generate_words(GeneratorSpec(n=4, syllable_count=60, seed=1))[0]
    made = capture_returns(monkeypatch, states, "resolve_all_A")
    line = analyze_line(word)
    result = verify(word)
    assert result.passed
    assert "bracket_oracle" in {check.name for check in result.checks}
    summary = bracket.stable_penultimate_coefficient(word)
    state = states.resolve_all_A(word)
    assert bracket.bracket_summary(bracket.bracket_top(word), state) == summary
    assert len(made) == 4
    assert all("circles" not in vars(made_state) for made_state in made)
    assert json.dumps(analyze(word)) == line
    assert len(made) == 5
    assert "circles" not in vars(made[-1])
    assert summary.num_all_A_circles == sum(made[-1].census.values())


def test_cor_bound_needs_a_prime_diagram_off_the_family():
    # adequate, TELC and connected with t >= 2, but composite: the closure
    # is a connected sum of two trefoils
    composite = analyze(word_of("s1^-3 s2^-3"))
    assert composite["main_lemma"]["pass"] is False
    assert composite["adequate"] and composite["telc"] and composite["connected"]
    assert composite["bounds"] is None
    # the same checks and prime: the Cor bound, off the family
    prime = analyze(word_of("s1 s2^-2 s1 s2^-2"))
    assert prime["main_lemma"]["pass"] is False
    assert prime["bounds"]["case"] == "Cor"
    assert abs(prime["bounds"]["lower"] - 3.663862376708876) < 1e-9
    assert abs(prime["bounds"]["upper"] - 30.448248192289615) < 1e-9
    # a word failing a direct check stays null
    assert analyze(word_of("s1^-1 s2^-3"))["bounds"] is None
    # a family word keeps its family case
    assert analyze(ladder(2))["bounds"]["case"] == "N3"


def test_cor_bound_is_given_only_on_hyperbolic_three_braids():
    # seeded n = 3 words of 2 to 12 alternating syllables: wherever the
    # Cor bound is given, the Schreier test finds the closure hyperbolic
    rng = random.Random(32)
    cor = 0
    for _ in range(3_000):
        count = 2 * rng.randint(1, 6)
        exponents = [rng.choice((-4, -3, -2, -2, -1, 1, 1, 2)) for _ in range(count)]
        word = SyllableWord(3, tuple((1 + i % 2, r) for i, r in enumerate(exponents)))
        report = analyze(word)
        if report["bounds"] is not None and report["bounds"]["case"] == "Cor":
            cor += 1
            assert report["schreier"]["hyperbolic"] is True, word.as_text()
    assert cor >= 100


def test_verify_runs_all_checks_on_three_strands():
    result = verify(ladder(2))
    assert result.passed is True
    assert [c.name for c in result.checks] == [
        "adequate",
        "telc",
        "connected",
        "no_unclassified",
        "small_count",
        "medium_count",
        "strand_budget",
        "circle_count",
        "one_wanderer",
        "form_direct",
        "bracket_oracle",
    ]
    assert all(c.passed for c in result.checks)


def test_verify_on_wide_word_drops_three_strand_checks():
    w = SyllableWord(4, ((2, 2), (1, -3), (3, -3), (2, -4), (1, -3), (3, -4)))
    result = verify(w)
    names = [c.name for c in result.checks]
    assert "one_wanderer" not in names
    assert "form_direct" not in names
    assert result.passed is True


def test_verify_checks_bracket_above_100_crossings():
    # 102 crossings, above the whole polynomial's default cap, which the
    # top sweep does not take
    result = verify(ladder(17))
    checks = {c.name: c.passed for c in result.checks}
    assert checks["bracket_oracle"] is True
    assert result.passed is True


def test_bracket_block_at_the_input_limit():
    # a generated family word of 6,786 crossings, close to the 10,000-letter
    # input limit at n = 8
    spec = GeneratorSpec(n=8, syllable_count=1250, negative_cap=8, seed=1)
    word = generate_words(spec)[0]
    assert word.crossings == 6786
    report = analyze(word, bracket=True)
    assert report["bracket"]["penultimate_abs"] == 1 + report["neg_chi"]


def test_verify_skips_bracket_above_the_strand_bound():
    spec = GeneratorSpec(n=14, syllable_count=26, negative_cap=3, seed=1)
    (word,) = generate_words(spec)
    assert word.crossings == 78
    start = time.perf_counter()
    result = verify(word)
    assert time.perf_counter() - start < 2.0
    assert "bracket_oracle" not in [c.name for c in result.checks]
    assert result.passed is True


def test_verify_traces_and_sweeps_once(monkeypatch):
    traces = count_calls(monkeypatch, states, "resolve_all_A")
    sweeps = count_calls(monkeypatch, bracket, "_sweep")
    for w in ONCE_WORDS:
        traces.clear()
        sweeps.clear()
        assert "bracket_oracle" in [c.name for c in verify(w).checks]
        assert traces == [w] and sweeps == [w], w.as_text()


def test_analyze_reads_the_twist_counts_once(monkeypatch):
    twists = count_calls(monkeypatch, states, "twist_counts")
    for w in ONCE_WORDS:
        twists.clear()
        assert analyze(w)["bounds"] is not None
        assert twists == [w], w.as_text()
    # the public bound functions read them on their own
    w = ONCE_WORDS[0]
    state = resolve_all_A(w)
    graph = reduced_graph(state)
    twists.clear()
    volume_bounds(w, state, graph)
    jones_bounds(w, state, graph)
    assert twists == [w] * 2


def test_analyze_and_verify_gate_a_family_word_once(monkeypatch):
    gates = count_calls(monkeypatch, families, "check_main_lemma")
    for w in ONCE_WORDS:
        for run in (analyze, verify):
            gates.clear()
            run(w)
            assert gates == [w], (run.__name__, w.as_text())
    # the public bound and direct-read functions still gate on their own
    w = ONCE_WORDS[0]
    state = resolve_all_A(w)
    graph = reduced_graph(state)
    gates.clear()
    volume_bounds(w, state, graph)
    jones_bounds(w, state, graph)
    direct_read_k(w)
    direct_read_s(w)
    assert gates == [w] * 4


def test_hot_paths_build_no_per_crossing_objects(monkeypatch):
    # analyze, verify and the predicates read the twist-region records; the
    # segments and arcs are left for the SVG renderer to build
    kept = []

    def keeping(word):
        kept.append(resolve_all_A(word))
        return kept[-1]

    monkeypatch.setattr("braidvol.report.resolve_all_A", keeping)
    for w in ONCE_WORDS:
        analyze(w, bracket=True)
        verify(w)
    state = resolve_all_A(ONCE_WORDS[1])
    is_A_adequate(state)
    satisfies_TELC(state)
    reduced_graph(state)
    assert len(kept) == 2 * len(ONCE_WORDS)
    for state in [*kept, state]:
        assert "segments" not in vars(state) and "arcs" not in vars(state)


def symmetry_summary(word):
    """What a symmetry of the closed braid's diagram must leave unchanged.

    The bracket block reads the top of the bracket on adequate words.
    Niceness is read on the closed braid, so the gate's verdict and its
    bounds are the same on every rotation.
    """
    report = analyze(word, bracket=word.n <= bracket.MAX_BRACKET_STRANDS)
    lemma = report["main_lemma"]
    return {
        "census": report["circles"]["census"],
        "neg_chi": report["neg_chi"],
        "adequate": report["adequate"],
        "telc": report["telc"],
        "bracket": report["bracket"],
        "gate": (
            lemma["nice"],
            lemma["cond1"],
            len(lemma["cond2_failures"]),
            lemma["twist_ok"],
            lemma["pass"],
        ),
        "bounds": report["bounds"],
    }


@st.composite
def near_family_words(draw):
    """Generated family words at n = 4, 5 and 8, some with one syllable
    moved to another generator (then reduced), so that a one-sided slip in
    the gate reads differently on the word and on its reversal."""
    n = draw(st.sampled_from([4, 5, 8]))
    spec = GeneratorSpec(
        n=n,
        syllable_count=4 * (n - 1),
        seed=draw(st.integers(min_value=0, max_value=2**32)),
    )
    syllables = list(generate_words(spec)[0].syllables)
    if draw(st.booleans()):
        i = draw(st.integers(min_value=0, max_value=len(syllables) - 1))
        g = draw(st.integers(min_value=1, max_value=n - 1))
        syllables[i] = (g, syllables[i][1])
    return cyclically_reduce_into_syllables(SyllableWord(n, tuple(syllables)))


@st.composite
def symmetry_words(draw):
    """Reduced words on 1 to 8 strands, gated 3-braids and near-family words
    at n = 4, 5 and 8, with a rotation amount."""
    word = draw(
        st.one_of(
            any_n_words(8).map(cyclically_reduce_into_syllables),
            gated_3braids(),
            near_family_words(),
        )
    )
    return word, draw(st.integers(min_value=0, max_value=200))


@given(symmetry_words())
@settings(max_examples=200, deadline=None)
@example((ladder(2), 1))
@example((word_of("s1^3 s2^-3 s1^-3 s2^-4 s1^-3 s2^-3"), 3))
@example((word_of("s1^2 s2^-4 s3^2", 4), 1))
# fails clause 2c on the neighbour after its s3^2 only
@example((word_of("s1^-6 s2^-6 s3^2 s1^-3 s3^-6 s1^-3 s2^-6 s3 s2^-8 s3^-6", 4), 0))
# nice only across the closure seam as written: every rotation passes
@example(
    (
        word_of(
            "s1^-5 s2^-5 s3^-6 s4^-4 s3^-4 s1^-3 s4^-4 s2^-5 s3^2 s2^-8 s4^-6"
            " s6^-7 s7^-5 s6^-4 s1^-8 s3^-6 s7^-6 s2^-5 s4^-8 s3^-5 s5^-8"
            " s6^-3 s4^-5 s5^-8 s6^-6 s2^-3 s7^-8 s3^-5",
            8,
        ),
        1,
    )
)
def test_analysis_is_invariant_under_rotation_flip_and_reversal(drawn):
    # rotating the syllables, flipping g -> n - g and reversing the word
    # give the same diagram up to a symmetry of the plane or the sphere; at
    # n = 3 rotation and the flip (conjugation by the half twist) are
    # conjugations, so they also keep the normal form
    word, shift = drawn
    n, syl = word.n, word.syllables
    shift %= max(len(syl), 1)
    rotated = SyllableWord(n, syl[shift:] + syl[:shift])
    flipped = SyllableWord(n, tuple((n - g, r) for g, r in syl))
    reversed_ = SyllableWord(n, syl[::-1])
    base = symmetry_summary(word)
    for image in (rotated, flipped, reversed_):
        assert symmetry_summary(image) == base, image.as_text()
    if n == 3:
        form = schreier_normal_form(word)
        gated = families.check_main_lemma(word).passed
        for image in (rotated, flipped):
            assert schreier_normal_form(image) == form, image.as_text()
            if gated:
                assert _direct_form(image) == form, image.as_text()


def test_verify_rejects_non_family_words():
    with pytest.raises(PreconditionError):
        verify(word_of("s1^-2 s2^-3"))


def test_verify_result_serializes():
    result = verify(ladder(2))
    d = result.to_json_dict()
    assert d["pass"] is True
    assert d["word"] == "s1^-3 s2^-3 s1^-3 s2^-3"
    assert all(set(c) == {"name", "pass", "detail"} for c in d["checks"])
    json.dumps(d)


@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_bounds_on_the_traced_state_match_analyze(n):
    # both bounds come from one body; the public functions must give the
    # report's blocks, and the beta' form is null exactly where it is refused
    with_m = 0
    for seed in range(12):
        word = generate_words(GeneratorSpec(n=n, syllable_count=30, seed=seed))[0]
        report = analyze(word)
        state = resolve_all_A(word)
        graph = reduced_graph(state)
        assert volume_bounds(word, state, graph).to_json_dict() == report["bounds"]
        interior = n >= 4 and any(
            r > 0 and m not in (1, n - 1) for m, r in word.syllables
        )
        assert (report["jones_bounds"] is None) == interior
        if interior:
            with pytest.raises(PreconditionError, match="interior positive"):
                jones_bounds(word, state, graph)
        else:
            jones = jones_bounds(word, state, graph).to_json_dict()
            assert jones == report["jones_bounds"]
        with_m += report["m"] != 0
    # m, the count of non-essential wandering circles, enters every volume
    # bound; a state whose circles were left unclassified would read m = 0
    # and give a larger, unsound lower bound
    if n >= 4:
        assert with_m >= 6


def test_unreduced_word_is_refused_before_the_state_is_traced(monkeypatch):
    # s1^2 ... s1^-1 shares generator 1 across the cyclic seam
    syllables = ((1, 2),) + tuple((g, -3) for g in range(2, 8)) + ((1, -1),)
    word = SyllableWord(8, syllables)
    assert not word.cyclically_reduced
    traces = count_calls(monkeypatch, states, "resolve_all_A")
    message = "twist counts need a cyclically reduced word"
    for run in (analyze, analyze_line):
        with pytest.raises(PreconditionError, match=f"^{message}$"):
            run(word)
    assert traces == []


# an A-adequate and a non-adequate word, both on 9 strands
WIDE_BRACKET_WORDS = [
    word_of("s1^-3 s2^-3 s1^-3 s2^-3", 9),
    word_of("s1^-1 s2^-3", 9),
]


def test_bracket_above_the_strand_limit_is_refused_before_the_trace(monkeypatch):
    # the bracket's strand limit comes right after the input limits, so a
    # non-adequate word is refused too, and no word is traced or gated
    traces = count_calls(monkeypatch, states, "resolve_all_A")
    gates = count_calls(monkeypatch, families, "check_main_lemma")
    message = "^9 strands are above the bracket limit of 8$"
    for word in WIDE_BRACKET_WORDS:
        for run in (analyze, analyze_line):
            with pytest.raises(PreconditionError, match=message):
                run(word, bracket=True)
    assert traces == [] and gates == []
    assert analyze(WIDE_BRACKET_WORDS[1])["bracket"] is None  # not asked for


def test_verify_refuses_a_non_family_word_before_the_trace(monkeypatch):
    unreduced = SyllableWord(3, ((1, 2), (2, -3), (1, -1)))
    assert not unreduced.cyclically_reduced
    traces = count_calls(monkeypatch, states, "resolve_all_A")
    sweeps = count_calls(monkeypatch, bracket, "_sweep")
    for word in (word_of("s1^-2 s2^-3"), unreduced):
        message = f"verify needs a family word; {word.as_text()!r} fails the checker"
        with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
            verify(word)
    assert traces == [] and sweeps == []


def test_library_entry_points_refuse_words_past_the_input_limits(monkeypatch):
    # built directly, these words skip parse_braid's limits; a million
    # letters once took analyze 26 s and 392 MB before it answered
    huge = SyllableWord(3, ((1, -10**6), (2, -3)))
    wide = SyllableWord(MAX_STRANDS + 1, tuple((g, -3) for g in range(1, MAX_STRANDS + 1)))
    traces = count_calls(monkeypatch, states, "resolve_all_A")
    entry_points = (
        analyze,
        analyze_line,
        verify,
        bracket.kauffman_bracket,
        bracket.bracket_top,
        bracket.stable_penultimate_coefficient,
    )
    for word, message in ((huge, "letters, the limit"), (wide, "strand count")):
        for run in entry_points:
            start = time.perf_counter()
            with pytest.raises(PreconditionError, match=message):
                run(word)
            assert time.perf_counter() - start < 0.1, run.__name__
    assert traces == []
    # the renderer takes a state; one of a word on too many strands is
    # cheap to trace and still refused
    with pytest.raises(PreconditionError, match="strand count"):
        render_state_svg(resolve_all_A(wide))


def digest_corpus():
    """Generated family words at n = 3, 4, 5 and 8 with up to 60 syllables,
    then 50 seeded random words on 2 to 6 strands with exponents up to 12."""
    words = []
    for n in (3, 4, 5, 8):
        for syllables in (2 * n, 30, 60):
            spec = GeneratorSpec(n=n, syllable_count=syllables, seed=n, count=2)
            words += generate_words(spec)
    rng = random.Random("analyze-digest")
    for _ in range(50):
        n = rng.randint(2, 6)
        syllables = tuple(
            (rng.randint(1, n - 1), rng.choice((-1, 1)) * rng.randint(1, 12))
            for _ in range(rng.randint(0, 14))
        )
        words.append(cyclically_reduce_into_syllables(SyllableWord(n, syllables)))
    return words


def test_analyze_output_bytes_are_pinned():
    # one digest over every report: a change to analyze, or to the words the
    # generator draws, shows up here
    lines = "\n".join(json.dumps(analyze(word)) for word in digest_corpus())
    digest = hashlib.sha256(lines.encode()).hexdigest()
    assert digest == "708c900ee651fdb68fbba6b267a01f292633727970709d4bee390596e44e69d3"


def test_analyze_output_bytes_are_pinned_at_benchmark_sizes():
    # family words of 200 syllables (about 900 to 1,100 crossings), the
    # largest the benchmark corpora hold, two seeds per strand count, with
    # their circle detail; the batch line is the same text
    digest = hashlib.sha256()
    for n in (3, 4, 5, 8):
        for seed in (1, 2):
            spec = GeneratorSpec(n=n, syllable_count=200, seed=seed, count=1)
            for word in generate_words(spec):
                text = json.dumps(analyze(word))
                assert analyze_line(word) == text
                digest.update(text.encode())
                digest.update(json.dumps(circle_detail(resolve_all_A(word))).encode())
    assert (
        digest.hexdigest()
        == "58ed92ac8567ef02822a9d569e68e24c80404a6ae5de73daa61d64bfb59f64e4"
    )


# generated family words at n = 3..8 reach the bound, Schreier and
# Turaev blocks that random words seldom do
family_word_st = st.builds(
    lambda n, extra, seed: generate_words(
        GeneratorSpec(n=n, syllable_count=2 * (n - 1) + 2 * extra, seed=seed)
    )[0],
    st.integers(3, 8),
    st.integers(0, 6),
    st.integers(0, 10_000),
)

LINE_OPTIONS = [
    {},
    {"bracket": True},
]


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        any_n_words(8),
        any_n_words(8).map(cyclically_reduce_into_syllables),
        word_st,
        family_word_st,
        st.just(SyllableWord(1, ())),
    ),
    st.sampled_from(LINE_OPTIONS),
)
def test_analyze_line_is_the_dumped_report(word, options):
    # n = 1..8 and the empty word included; analyze refuses an unreduced
    # word, and the line must refuse it alike
    try:
        expected = json.dumps(analyze(word, **options))
    except PreconditionError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            analyze_line(word, **options)
        return
    assert analyze_line(word, **options) == expected


def seeded_long_word():
    """The seeded 10,000-letter n = 32 random word, reduced: the largest
    circle ids a report writes within the input limits."""
    rng = random.Random(1)
    text = " ".join(
        str(rng.choice((-1, 1)) * rng.randint(1, 31)) for _ in range(10_000)
    )
    return cyclically_reduce_into_syllables(parse_braid(text, 32))


@pytest.mark.parametrize("long_first", [True, False])
def test_analyze_line_is_the_dumped_report_in_either_order(monkeypatch, long_first):
    # the id text table starts empty, and grows once for the long word:
    # after it, or before it, the short word's line is still its report
    monkeypatch.setattr(report, "_ID_TEXTS", [])
    words = [seeded_long_word(), ladder(2)]
    for word in words if long_first else words[::-1]:
        assert analyze_line(word) == json.dumps(analyze(word))


def random_letter_word(n, letters, seed):
    """A seeded uniform random-letter word on ``n`` strands, reduced, as
    the ``random_words`` benchmark corpus draws them."""
    rng = random.Random(seed)
    text = " ".join(
        str(rng.choice((-1, 1)) * rng.randint(1, n - 1)) for _ in range(letters)
    )
    return cyclically_reduce_into_syllables(parse_braid(text, n))


def test_analyze_line_calls_no_json_dumps(monkeypatch):
    # the four word-sized lists are written as text and the rest of the
    # report goes through the encoder, so json.dumps is never called, and
    # neither is any builder analyze uses for those lists: no list per
    # syllable or Schreier pair, no dict per cond2 failure or circle
    spec = GeneratorSpec(n=8, syllable_count=60, seed=1)
    family3 = generate_words(GeneratorSpec(n=3, syllable_count=60, seed=1))[0]
    words = [
        ladder(2),
        family3,
        generate_words(spec)[0],
        seeded_long_word(),
        random_letter_word(4, 300, seed=1),
        random_letter_word(3, 300, seed=2),
    ]
    reports = [analyze(word) for word in words]
    want = [json.dumps(r) for r in reports]
    assert all(r["main_lemma"]["cond2_failures"] for r in reports[-2:])
    assert all(reports[i]["schreier"]["pairs"] for i in (0, 1, 5))

    def refuse(name):
        def refused(*args, **kwargs):
            raise AssertionError(f"analyze_line called {name}")

        return refused

    real_lemma_dict = families.MainLemmaReport.to_json_dict

    def lemma_dict(lemma):
        if lemma.cond2_failures:
            raise AssertionError("analyze_line built a dict per cond2 failure")
        return real_lemma_dict(lemma)

    monkeypatch.setattr(report.json, "dumps", refuse("json.dumps"))
    for name in ("_pair_lists", "circle_detail"):
        monkeypatch.setattr(report, name, refuse(name))
    monkeypatch.setattr(
        schreier.SchreierForm, "to_json_dict", refuse("SchreierForm.to_json_dict")
    )
    monkeypatch.setattr(families.MainLemmaReport, "to_json_dict", lemma_dict)
    assert [analyze_line(word) for word in words] == want


def test_schreier_block_is_the_form_dict_and_its_verdict():
    # the report writes the form's fields itself, so that its pairs can be
    # left empty: they must stay SchreierForm.to_json_dict's, in its order,
    # on every kind of form (every 3-braid letter word of length <= 5)
    kinds = set()
    for length in range(6):
        for letters in itertools.product([1, -1, 2, -2], repeat=length):
            form = schreier_normal_form(parse_braid(" ".join(map(str, letters)), 3))
            block = schreier_block(form)
            verdict = schreier.hyperbolicity_of_form(form)
            assert list(block.items()) == [
                *form.to_json_dict().items(),
                ("generic", form.generic),
                ("hyperbolic", verdict.hyperbolic),
                ("reason", verdict.reason),
            ]
            kinds.add(form.kind)
    assert kinds == set(EtaKind)


def test_id_text_table_grows_to_the_largest_circle_count(monkeypatch):
    # the table never holds more ids than the largest state needs, and every
    # state's circle count is at most its n plus its negative crossings
    monkeypatch.setattr(report, "_ID_TEXTS", [])
    circles = bound = 0
    spec = GeneratorSpec(n=4, syllable_count=60, seed=3, count=2)
    for word in [ladder(1), *generate_words(spec), seeded_long_word(), ladder(3)]:
        analyze_line(word)
        negative = sum(-r for _, r in word.syllables if r < 0)
        circles = max(circles, sum(resolve_all_A(word).census.values()))
        bound = max(bound, word.n + negative)
        assert len(report._ID_TEXTS) == circles <= bound
        assert report._ID_TEXTS == [str(i) for i in range(circles)]


def detail_from_circles(state):
    """The circle detail read from the expanded circles, one dict per
    ``StateCircle`` of ``state.circles``: the reference ``circle_detail``,
    which walks the runs, must equal."""
    return [
        {
            "id": cid,
            "class": klass.value,
            "winding": winding,
            "support": sorted(support),
        }
        for cid, winding, support, klass in state.circles
    ]


def assert_detail_matches_the_circles(word):
    state = resolve_all_A(word)
    detail = circle_detail(state)
    assert "circles" not in vars(state)
    reference = detail_from_circles(state)
    assert detail == reference
    assert json.dumps(detail) == json.dumps(reference)
    # every support list is its own object
    assert len({id(entry["support"]) for entry in detail}) == len(detail)


@given(label_sweep_words())
@example(SyllableWord(2, ()))
@example(SyllableWord(32, ()))
# the run of s2^-4 splits around the boundary circles 2 and 3
@example(SyllableWord(4, ((2, -4), (3, 2))))
@settings(max_examples=300)
def test_circle_detail_matches_the_expanded_circles(word):
    assert_detail_matches_the_circles(word)
    assert_detail_matches_the_circles(cyclically_reduce_into_syllables(word))


@pytest.mark.parametrize("n", [3, 4, 5, 8, 16, 32])
def test_circle_detail_matches_the_expanded_circles_on_generated_words(n):
    spec = GeneratorSpec(n=n, syllable_count=200, seed=1, count=3)
    for word in generate_words(spec):
        assert_detail_matches_the_circles(word)


def test_circle_detail_matches_the_expanded_circles_on_the_long_word():
    assert_detail_matches_the_circles(seeded_long_word())


def test_circle_detail_support_lists_are_not_shared():
    word = generate_words(GeneratorSpec(n=4, syllable_count=60, seed=1))[0]
    pieces = resolve_all_A(word).pieces
    first, _, g = next(
        piece for piece in pieces if type(piece) is not StateCircle and piece[1] > 1
    )
    detail = analyze(word)["circles"]["detail"]
    expected = json.dumps(analyze(word))
    # mutate the support of the first circle of a run of several: no other
    # circle of the run, of this report or of the next report changes
    detail[first]["support"].append(-1)
    fresh = json.loads(expected)["circles"]["detail"]
    assert detail[first]["support"] == [g, -1]
    assert detail[:first] + detail[first + 1 :] == fresh[:first] + fresh[first + 1 :]
    assert json.dumps(analyze(word)) == expected


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
