"""Volume-bound formulas: constants, case dispatch, and gating."""

import math

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from braidvol.bounds import (
    V3,
    V8,
    BoundCase,
    VolumeBounds,
    cor_bounds,
    jones_bounds,
    three_braid_s_bounds,
    turaev_genus_bounds,
    volume_bounds,
)
from braidvol.errors import OracleError, PreconditionError
from braidvol.generate import GeneratorSpec, generate_words
from braidvol.states import reduced_graph, resolve_all_A
from braidvol.words import SyllableWord

from conftest import ladder, word_of

TOL = 1e-9


def bound_inputs(word):
    state = resolve_all_A(word)
    return word, state, reduced_graph(state)


# ---------------------------------------------------------------------------
# constants


def test_constants_match_lobachevsky_values():
    # v8 = 8 * Lambda(pi/4) = 4 * Catalan; v3 = 2 * Lambda(pi/6) = Cl2(pi/3)
    mpmath.mp.dps = 30
    assert abs(V8 - float(4 * mpmath.catalan)) < 1e-12
    assert abs(V3 - float(mpmath.clsin(2, mpmath.pi / 3))) < 1e-12


def test_constants_leading_decimals():
    assert f"{V8:.4f}" == "3.6639"  # 3.6638... rounds up at 4 places
    assert math.floor(V8 * 10**4) == 36638
    assert math.floor(V3 * 10**4) == 10149


# ---------------------------------------------------------------------------
# cor_bounds


def test_cor_bounds_arithmetic():
    b = cor_bounds(1, 2)
    assert b.case is BoundCase.COR
    assert abs(b.lower - V8) < TOL
    assert abs(b.upper - 10.0 * V3) < TOL

    b = cor_bounds(3, 4)
    assert abs(b.lower - 3 * V8) < TOL
    assert abs(b.lower - 10.991587130126629) < TOL
    assert abs(b.upper - 30 * V3) < TOL
    assert abs(b.upper - 30.448248192289615) < TOL


def test_cor_bounds_requires_twist_two():
    with pytest.raises(PreconditionError):
        cor_bounds(1, 1)


# ---------------------------------------------------------------------------
# volume_bounds case dispatch


def test_volume_bounds_three_strand_ladder():
    b = volume_bounds(*bound_inputs(ladder(2)))
    assert b.case is BoundCase.N3
    assert abs(b.lower - 3 * V8) < TOL
    assert abs(b.lower_weak - V8) < TOL  # (v8/2) * (t - 2) with t = 4
    assert abs(b.upper - 30 * V3) < TOL
    assert b.inputs["t_minus"] == 4
    assert b.inputs["neg_chi"] == 3
    assert b.effective_lower == b.lower


def test_volume_bounds_three_strand_mixed():
    w = SyllableWord(3, ((1, 3), (2, -3), (1, 2), (2, -4)))
    b = volume_bounds(*bound_inputs(w))
    assert b.case is BoundCase.N3
    assert abs(b.lower - V8) < TOL
    assert abs(b.lower_weak - V8) < TOL
    assert abs(b.upper - 30 * V3) < TOL


def test_volume_bounds_wide_interior_positive():
    w = SyllableWord(4, ((2, 2), (1, -3), (3, -3), (2, -4), (1, -3), (3, -4)))
    word, state, graph = bound_inputs(w)
    b = volume_bounds(word, state, graph)
    assert b.case is BoundCase.N4_GENERAL
    assert state.m == 1
    # t- = 5, t+ = 1, n + m - 2 = 3
    assert abs(b.lower - V8 * (5 - 1 - (4 + state.m - 2))) < TOL
    assert b.lower_weak is None
    assert abs(b.upper - 10 * V3 * 5) < TOL


def test_volume_bounds_wide_boundary_positives():
    w = SyllableWord(
        4,
        (
            (1, 2), (2, -3), (3, -3), (2, -3), (1, -3),
            (2, -3), (3, 2), (2, -3), (1, -3), (2, -3),
        ),
    )
    word, state, graph = bound_inputs(w)
    b = volume_bounds(word, state, graph)
    assert b.case is BoundCase.N4_BOUNDARY
    assert state.m == 0
    assert abs(b.lower - 6 * V8) < TOL  # t- = 8, overhead n + m - 2 = 2
    assert abs(b.lower_weak - 3 * V8) < TOL  # (v8/2) * (10 - 4)
    assert abs(b.upper - 10 * V3 * 9) < TOL


def test_volume_bounds_reports_raw_nonpositive_values():
    # all-negative words are vacuously in the boundary case; this one has a
    # weak lower bound of exactly zero, which must be reported, not hidden
    w = SyllableWord(4, ((1, -3), (2, -3), (3, -3), (2, -3), (1, -3), (3, -3)))
    b = volume_bounds(*bound_inputs(w))
    assert b.case is BoundCase.N4_BOUNDARY
    assert abs(b.lower - 3 * V8) < TOL
    assert b.lower_weak == 0.0
    assert b.effective_lower == b.lower


def test_volume_bounds_ordering_is_checked_by_raising():
    # an explicit raise, not an assert, so the check survives python -O
    with pytest.raises(OracleError):
        VolumeBounds(BoundCase.N3, lower=2.0, upper=1.0)
    with pytest.raises(OracleError):
        VolumeBounds(BoundCase.N3, lower=1.0, upper=2.0, lower_weak=1.5)
    assert VolumeBounds(BoundCase.N3, lower=-1.0, upper=-2.0).effective_lower == 0.0


def test_volume_bounds_gate_failure():
    for bounds in (volume_bounds, jones_bounds):
        with pytest.raises(PreconditionError, match="family checker"):
            bounds(*bound_inputs(word_of("s1^-2 s2^-3")))


# ---------------------------------------------------------------------------
# jones_bounds


def test_jones_bounds_ladder():
    b = jones_bounds(*bound_inputs(ladder(2)))
    assert b.case is BoundCase.JONES
    assert b.inputs["beta_prime"] == 4
    assert abs(b.lower - 3 * V8) < TOL
    assert abs(b.upper - 70 * V3) < TOL  # 20 * v3 * (4 + 3 + 0 - 3.5)


def test_jones_bounds_mixed():
    w = SyllableWord(3, ((1, 3), (2, -3), (1, 2), (2, -4)))
    b = jones_bounds(*bound_inputs(w))
    assert b.inputs["beta_prime"] == 2
    assert abs(b.lower - V8) < TOL
    assert abs(b.upper - 20 * V3 * 1.5) < TOL


def test_jones_bounds_refuses_interior_positives():
    w = SyllableWord(4, ((2, 2), (1, -3), (3, -3), (2, -4), (1, -3), (3, -4)))
    with pytest.raises(PreconditionError):
        jones_bounds(*bound_inputs(w))


def test_jones_bounds_beta_prime_is_one_plus_neg_chi():
    for w in (ladder(2), ladder(3), SyllableWord(3, ((1, 3), (2, -3), (1, 2), (2, -4)))):
        word, state, graph = bound_inputs(w)
        b = jones_bounds(word, state, graph)
        assert b.inputs["beta_prime"] == 1 + graph.neg_chi


# ---------------------------------------------------------------------------
# s-parameter bounds for 3-braids


def test_s_bounds_small_s():
    schreier, fkp, sharper = three_braid_s_bounds(4)
    assert schreier.case is BoundCase.SCHREIER3
    assert fkp.case is BoundCase.FKP3
    assert abs(schreier.lower - 3 * V8) < TOL
    assert abs(fkp.lower - (16 * V3 - 276.6)) < TOL
    assert fkp.lower < 0
    assert fkp.effective_lower == 0.0
    assert abs(schreier.upper - 16 * V8) < TOL
    assert abs(fkp.upper - schreier.upper) < TOL
    assert sharper is BoundCase.SCHREIER3


def test_s_bounds_degenerate_and_invalid():
    schreier, _, _ = three_braid_s_bounds(1)
    assert schreier.lower == 0.0
    with pytest.raises(PreconditionError):
        three_braid_s_bounds(0)


def test_s_bounds_crossover():
    # the exact crossover sits at (276.6 - v8)/(4*v3 - v8) = 689.39...,
    # so the schreier-form lower bound is sharper through s = 689 and the
    # twist-number form takes over at s = 690
    threshold = (276.6 - V8) / (4.0 * V3 - V8)
    assert 689 < threshold < 690
    _, _, pick = three_braid_s_bounds(689)
    assert pick is BoundCase.SCHREIER3
    _, _, pick = three_braid_s_bounds(690)
    assert pick is BoundCase.FKP3
    _, _, pick = three_braid_s_bounds(691)
    assert pick is BoundCase.FKP3
    first = min(
        s for s in range(1, 2000)
        if three_braid_s_bounds(s)[1].lower > three_braid_s_bounds(s)[0].lower
    )
    assert first == 690


# ---------------------------------------------------------------------------
# turaev genus


def test_turaev_genus_pins():
    assert turaev_genus_bounds(-2) == (1, 2)
    assert turaev_genus_bounds(0) is None
    assert turaev_genus_bounds(5) == (4, 5)


@given(st.integers(-50, 50))
def test_turaev_genus_window(k):
    got = turaev_genus_bounds(k)
    if k == 0:
        assert got is None
    else:
        assert got == (abs(k) - 1, abs(k))


# ---------------------------------------------------------------------------
# cross-formula invariants on generated family words


def family_word(n, seed):
    count = 2 * (n - 1) + 2 * (seed % 3)
    return generate_words(GeneratorSpec(n=n, syllable_count=count, seed=seed))[0]


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 6), st.integers(0, 10_000))
def test_bounds_are_ordered(n, seed):
    word, state, graph = bound_inputs(family_word(n, seed))
    b = volume_bounds(word, state, graph)
    assert b.effective_lower <= b.upper + TOL
    assert b.effective_lower == max(b.lower, 0.0)
    if b.lower_weak is not None:
        assert b.lower_weak <= b.lower + TOL


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_three_strand_lower_matches_corollary(seed):
    word, state, graph = bound_inputs(family_word(3, seed))
    b = volume_bounds(word, state, graph)
    t = b.inputs["t"]
    c = cor_bounds(graph.neg_chi, t)
    assert abs(b.lower - c.lower) < TOL
    assert abs(b.upper - c.upper) < TOL


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_jones_lower_matches_s_form_at_s_equals_t_minus(seed):
    word, state, graph = bound_inputs(family_word(3, seed))
    b = jones_bounds(word, state, graph)
    schreier, _, _ = three_braid_s_bounds(b.inputs["t_minus"])
    assert abs(b.lower - schreier.lower) < TOL


def test_to_json_dict_round_trips_fields():
    b = volume_bounds(*bound_inputs(ladder(2)))
    d = b.to_json_dict()
    assert d["case"] == "N3"
    assert d["lower"] == b.lower
    assert d["lower_weak"] == b.lower_weak
    assert d["upper"] == b.upper
    assert d["effective_lower"] == b.effective_lower
    assert d["inputs"]["t_minus"] == 4


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
