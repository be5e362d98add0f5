"""The record types are immutable named tuples.

The plain records are ``typing.NamedTuple`` classes.  The validated ones
subclass a named-tuple field base with a checking ``__new__``, and every copy
route (``_make``, ``_replace`` and, from Python 3.13, ``copy.replace``) builds
through it, so no route gives a record the constructor refuses.  Importing
the package and its CLI loads neither ``dataclasses`` nor ``inspect``.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import braidvol
from braidvol.bounds import BoundCase, VolumeBounds
from braidvol.bracket import BracketSummary, LaurentPolynomial
from braidvol.errors import BraidSyntaxError, OracleError, PreconditionError
from braidvol.families import MainLemmaReport, check_main_lemma
from braidvol.generate import GeneratorSpec
from braidvol.report import VerifyCheck, VerifyResult
from braidvol.schreier import EtaKind, SchreierForm, XYWord
from braidvol.states import (
    AllAState,
    ReducedStateGraph,
    reduced_graph,
    resolve_all_A,
)
from braidvol.words import SyllableWord, parse_braid

WORD = SyllableWord(3, ((1, -3), (2, 2), (1, -4), (2, -3)))
STATE = resolve_all_A(WORD)

# (positional build, keyword build with every default spelled out)
BUILDS = {
    "SyllableWord": (
        lambda: SyllableWord(3, ((1, -3), (2, 2))),
        lambda: SyllableWord(n=3, syllables=((1, -3), (2, 2))),
    ),
    "AllAState": (
        lambda: AllAState(WORD, STATE.pieces, STATE.regions),
        lambda: AllAState(word=WORD, pieces=STATE.pieces, regions=STATE.regions),
    ),
    "ReducedStateGraph": (
        lambda: ReducedStateGraph(3, 5, 2, 12),
        lambda: ReducedStateGraph(
            vertices=3, edges=5, neg_chi=2, unreduced_edges=12
        ),
    ),
    "MainLemmaReport": (
        lambda: MainLemmaReport(True, True, (), True, True),
        lambda: MainLemmaReport(
            nice=True,
            cond1=True,
            cond2_failures=(),
            twist_ok=True,
            passed=True,
        ),
    ),
    "BracketSummary": (
        lambda: BracketSummary(12, 9, 21, -1, 3),
        lambda: BracketSummary(
            c=12,
            num_all_A_circles=9,
            top_degree=21,
            top_coefficient=-1,
            penultimate_abs=3,
        ),
    ),
    "VerifyCheck": (
        lambda: VerifyCheck("neg_chi", True, "2 == 2"),
        lambda: VerifyCheck(name="neg_chi", passed=True, detail="2 == 2"),
    ),
    "VerifyResult": (
        lambda: VerifyResult("s1^-3", False, (VerifyCheck("a", False, "d"),)),
        lambda: VerifyResult(
            word="s1^-3", passed=False, checks=(VerifyCheck("a", False, "d"),)
        ),
    ),
    "VolumeBounds": (
        lambda: VolumeBounds(BoundCase.COR, 1.0, 2.0),
        lambda: VolumeBounds(
            case=BoundCase.COR, lower=1.0, upper=2.0, lower_weak=None, inputs={}
        ),
    ),
    "LaurentPolynomial": (
        lambda: LaurentPolynomial(),
        lambda: LaurentPolynomial(terms=()),
    ),
    "SchreierForm": (
        lambda: SchreierForm(1, EtaKind.EMPTY),
        lambda: SchreierForm(k=1, kind=EtaKind.EMPTY, pairs=(), power=0),
    ),
    "XYWord": (
        lambda: XYWord((("x", 2), ("y", 1))),
        lambda: XYWord(runs=(("x", 2), ("y", 1)), j=0),
    ),
    "GeneratorSpec": (
        lambda: GeneratorSpec(3, 8),
        lambda: GeneratorSpec(
            n=3, syllable_count=8, negative_cap=8, positive_cap=4, seed=0, count=1
        ),
    ),
}

RECORDS = sorted(BUILDS)


@pytest.mark.parametrize("name", RECORDS)
def test_positional_and_keyword_builds_agree(name):
    positional, keyword = BUILDS[name]
    record = positional()
    assert type(record).__name__ == name
    assert record == keyword() and type(keyword()) is type(record)
    assert isinstance(record, tuple) and tuple(record) == tuple(keyword())
    # the repr names every field, as the frozen dataclasses' did
    assert repr(record) == (
        f"{name}("
        + ", ".join(f"{f}={v!r}" for f, v in zip(record._fields, record))
        + ")"
    )


@pytest.mark.parametrize("name", RECORDS)
def test_equality_and_hash_are_by_field_values(name):
    positional, _ = BUILDS[name]
    one, two = positional(), positional()
    assert one == two and not one != two
    assert one == tuple(two)  # a named tuple equals the plain tuple of its fields
    if name == "VolumeBounds":
        # its inputs echo is a dict, so it never hashed
        with pytest.raises(TypeError):
            hash(one)
    else:
        assert hash(one) == hash(two) == hash(tuple(two))
    assert pickle.loads(pickle.dumps(one)) == one
    for clone in (copy.copy(one), copy.deepcopy(one), one._replace()):
        assert clone == one and type(clone) is type(one)


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned(name):
    record = BUILDS[name][0]()
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    assert tuple(record) == tuple(BUILDS[name][0]())


def test_cached_properties_cannot_be_overwritten():
    # the two records with a __dict__ keep their cached values in it, and no
    # attribute can be set or deleted: a word's crossings feed the input limits,
    # and a traced state's census and graph values, which the trace stores
    # there, feed every bound
    word, state = SyllableWord(3, ((1, -3), (2, 2))), resolve_all_A(WORD)
    circles = state.circles
    cached = dict(vars(state))
    assert cached.keys() == {"_graph", "_counts", "circles"}
    assert word.crossings == 5 and vars(word) == {"crossings": 5}
    names = ("circles", "_graph", "_counts", "other")
    for record, name in ((word, "crossings"), *((state, name) for name in names)):
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(record, name, 0)
        with pytest.raises(AttributeError, match="is immutable"):
            delattr(record, name)
    assert vars(word) == {"crossings": 5} and state.circles is circles
    assert all(vars(state)[name] is value for name, value in cached.items())


def test_trusted_words_match_public_words():
    parsed = parse_braid("s1^-3 s2^2 s1^-3 s2^2", 3)
    public = SyllableWord(3, ((1, -3), (2, 2), (1, -3), (2, 2)))
    assert parsed == public and hash(parsed) == hash(public)
    assert repr(parsed) == repr(public) and vars(parsed) == vars(public) == {}
    assert parsed.cyclically_reduced is public.cyclically_reduced is True


def _routes(good, changes):
    """Each way to build ``good`` with ``changes`` applied, by name."""
    fields = [changes.get(f, v) for f, v in zip(good._fields, good)]
    keywords = {**good._asdict(), **changes}
    keywords.pop("cyclically_reduced", None)  # a word's derived field
    routes = {
        "constructor": lambda: type(good)(**keywords),
        "_replace": lambda: good._replace(**changes),
        "_make": lambda: type(good)._make(fields),
    }
    if hasattr(copy, "replace"):  # Python 3.13+
        routes["copy.replace"] = lambda: copy.replace(good, **changes)
    return routes


BOUNDS = VolumeBounds(BoundCase.N3, 2.0, 3.0, 1.0)
POLY = LaurentPolynomial(((1, 2),))
FORM = SchreierForm(0, EtaKind.GENERIC, ((1, 2),))
POWER = SchreierForm(0, EtaKind.POWER_SIGMA1, power=3)
XY = XYWord((("x", 1),))
SPEC = GeneratorSpec(3, 8)
REFUSALS = [
    (WORD, {"n": 0}, BraidSyntaxError, "strand count must be >= 1, got 0"),
    (
        WORD,
        {"n": 2},
        BraidSyntaxError,
        "syllable generator 2 is not a generator of B_2",
    ),
    (
        WORD,
        {"syllables": [(1, 0)]},
        BraidSyntaxError,
        "syllable exponent must be nonzero",
    ),
    (
        WORD,
        {"syllables": [(1, 2.7)]},
        BraidSyntaxError,
        "syllable exponent 2.7 is not an integer",
    ),
    (BOUNDS, {"lower": 3.5}, OracleError, "lower bound 3.5 > upper 3.0"),
    (BOUNDS, {"lower_weak": 2.5}, OracleError, "weak lower bound 2.5 > lower 2.0"),
    (POLY, {"terms": ((1, 2), (1, 3))}, ValueError, "duplicate degrees"),
    (FORM, {"pairs": ()}, ValueError, "generic form needs pairs with p, q >= 1"),
    (FORM, {"pairs": ((0, 2),)}, ValueError, "generic form needs pairs with p, q >= 1"),
    (FORM, {"kind": EtaKind.EMPTY}, ValueError, "pairs only apply to the generic form"),
    (FORM, {"power": 2}, ValueError, "power only applies to the power form"),
    (POWER, {"power": 0}, ValueError, "sigma_1 power must be nonzero"),
    (XY, {"runs": (("z", 1),)}, ValueError, "bad run ('z', 1)"),
    (XY, {"runs": (("y", 0),)}, ValueError, "bad run ('y', 0)"),
    (SPEC, {"n": 2}, PreconditionError, "generation needs n >= 3"),
    (
        SPEC,
        {"syllable_count": 5},
        PreconditionError,
        "infeasible: 3-strand words alternate two generators, so the cyclic"
        " syllable count must be even",
    ),
    (
        SPEC,
        {"n": 4, "syllable_count": 4},
        PreconditionError,
        "infeasible: 4 syllables is below the minimum 2(n-1) = 6",
    ),
    (SPEC, {"negative_cap": 2}, PreconditionError, "negative_cap must be at least 3"),
    (SPEC, {"positive_cap": 0}, PreconditionError, "positive_cap must be at least 1"),
    (SPEC, {"count": 0}, PreconditionError, "count must be at least 1"),
    (SPEC, {"count": 1001}, PreconditionError, "count 1001 is above the limit of 1000"),
    (
        SPEC,
        {"n": 33, "syllable_count": 64},
        PreconditionError,
        "strand count 33 is above the limit of 32",
    ),
    (
        SPEC,
        {"syllable_count": 2000},
        PreconditionError,
        "words of up to 16000 letters are above the limit of 10000",
    ),
]


@pytest.mark.parametrize(
    "good,changes,error,message",
    REFUSALS,
    ids=[f"{type(good).__name__}-{i}" for i, (good, *_) in enumerate(REFUSALS)],
)
def test_every_copy_route_refuses_what_the_constructor_refuses(
    good, changes, error, message
):
    for route, build in _routes(good, changes).items():
        with pytest.raises(error) as refused:
            build()
        assert type(refused.value) is error, route
        assert str(refused.value) == message, route


@pytest.mark.parametrize(
    "good,changes,fields",
    [
        (WORD, {"syllables": [[1, 2.0], (2, True)]}, (3, ((1, 2), (2, 1)), True)),
        (POLY, {"terms": [(3, 1), (0, 0), (-1, 4)]}, (((-1, 4), (3, 1)),)),
        (FORM, {"pairs": ((2, 1), (1, 1))}, (0, EtaKind.GENERIC, ((1, 1), (2, 1)), 0)),
        (
            BOUNDS,
            {"inputs": {"t": 4, "x": 1}},
            (*BOUNDS[:4], {**dict.fromkeys(BOUNDS.inputs), "t": 4}),
        ),
    ],
)
def test_every_copy_route_normalizes_as_the_constructor_does(good, changes, fields):
    for route, build in _routes(good, changes).items():
        built = build()
        assert type(built) is type(good) and tuple(built) == fields, route


def test_a_words_derived_field_is_not_set_by_a_copy_route():
    with pytest.raises(ValueError, match="only n and syllables are replaced"):
        WORD._replace(cyclically_reduced=False)
    with pytest.raises(ValueError, match="only n and syllables are replaced"):
        WORD._replace(letters=())
    with pytest.raises(ValueError, match="derived from the syllables"):
        SyllableWord._make((3, ((1, 1), (1, 1)), True))
    with pytest.raises(TypeError):
        SyllableWord(3, (), True)


def test_records_built_by_the_pipeline_are_named_tuples():
    lemma = check_main_lemma(WORD)
    graph = reduced_graph(STATE)
    assert type(lemma) is MainLemmaReport and lemma == MainLemmaReport(*lemma)
    assert type(graph) is ReducedStateGraph
    assert graph.neg_chi == graph.edges - graph.vertices


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    src = Path(braidvol.__file__).resolve().parents[1]
    code = (
        "import sys, braidvol.cli; "
        "print(*(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
