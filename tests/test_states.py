"""All-A state resolution, circle taxonomy, and the reduced state graph.

The census pins below were worked out by hand on the flat diagrams: a
positive letter contributes two pass arcs and a horizontal segment, a
negative letter a cap/cup pair and a vertical segment; circles are read off
by walking arc endpoints, then sorted into the five classes by support and
winding.
"""

import pytest
from hypothesis import given, settings, strategies as st

from braidvol.states import (
    CircleClass,
    check_oc_identity,
    classify_circles,
    is_A_adequate,
    is_connected_closure,
    reduced_graph,
    resolve_all_A,
    satisfies_TELC,
    twist_counts,
)
from braidvol.words import SyllableWord, cyclically_reduce_into_syllables

from conftest import ladder, word_of

syllable_st = st.tuples(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=-6, max_value=6).filter(lambda r: r != 0),
)
word_st = st.builds(
    lambda syls: cyclically_reduce_into_syllables(SyllableWord(5, tuple(syls))),
    st.lists(syllable_st, max_size=10),
)


def census_by_name(state):
    return {k.value: v for k, v in state.census.items() if v}


def test_ladder_census():
    state = classify_circles(resolve_all_A(ladder(2)))
    assert census_by_name(state) == {
        "small_inner": 8,
        "essential_wandering": 1,
    }
    assert state.m == 0


def test_mixed_word_census():
    state = classify_circles(resolve_all_A(word_of("s1^3 s2^-3 s1^2 s2^-4")))
    assert census_by_name(state) == {
        "small_inner": 5,
        "medium_inner": 2,
        "nonwandering": 1,
    }


def test_empty_word_is_all_nonwandering():
    state = classify_circles(resolve_all_A(SyllableWord(3, ())))
    assert census_by_name(state) == {"nonwandering": 3}


def test_single_negative_crossing_closes_to_a_medium():
    # cap and cup of one lone crossing close up through both closure arcs,
    # which are traversed in opposite senses: support {1}, winding 0, and no
    # consecutive-crossing pattern, so the circle lands in the medium bin
    state = classify_circles(resolve_all_A(SyllableWord(2, ((1, -1),))))
    assert census_by_name(state) == {"medium_inner": 1}


def test_circle_support_and_winding_detail():
    state = classify_circles(resolve_all_A(ladder(1)))
    wanderers = [c for c in state.circles if c.klass is CircleClass.ESSENTIAL_WANDERING]
    assert len(wanderers) == 1
    assert wanderers[0].winding == 1
    assert wanderers[0].support == frozenset({1, 2})
    smalls = [c for c in state.circles if c.klass is CircleClass.SMALL_INNER]
    assert all(c.winding == 0 and len(c.support) == 1 for c in smalls)


def test_adequacy_pins():
    assert is_A_adequate(resolve_all_A(ladder(1)))
    assert is_A_adequate(resolve_all_A(word_of("s1^3", 2)))
    # a length-one negative syllable glues a circle to itself
    assert not is_A_adequate(resolve_all_A(word_of("s1^-1 s2^-3")))


def test_telc_pins():
    assert satisfies_TELC(resolve_all_A(ladder(2)))
    # two crossings joining the same pair of circles in one twist region is
    # fine; the failing shape needs them from different twist regions
    assert satisfies_TELC(resolve_all_A(word_of("s1^-3 s2^-3")))
    assert not satisfies_TELC(resolve_all_A(word_of("s1^-2 s2^-2 s1^-2 s2^-2")))


def test_twist_counts():
    assert twist_counts(word_of("s1^3 s2^-3 s1^2 s2^-4")) == (4, 2, 2)
    assert twist_counts(ladder(3)) == (6, 0, 6)
    assert twist_counts(SyllableWord(3, ())) == (0, 0, 0)


def test_connectivity():
    assert is_connected_closure(ladder(1))
    assert not is_connected_closure(word_of("s1^3", 3))  # strand 3 splits off
    assert not is_connected_closure(SyllableWord(2, ()))


def test_reduced_graph_on_the_ladder():
    state = resolve_all_A(ladder(2))
    graph = reduced_graph(state)
    assert graph.neg_chi == 3
    assert graph.vertices - graph.edges == -3
    assert graph.unreduced_edges == 12


def test_reduced_graph_collapses_parallel_edges():
    # all three crossings of a positive twist region join the same two
    # circles, so the reduced graph keeps a single edge
    graph = reduced_graph(resolve_all_A(word_of("s1^3", 2)))
    assert graph.unreduced_edges == 3
    assert graph.edges == 1
    assert graph.neg_chi == -1
    # a negative region chains distinct circles instead: nothing collapses
    graph = reduced_graph(resolve_all_A(word_of("s1^-3", 2)))
    assert graph.unreduced_edges == 3
    assert graph.edges == 3
    assert graph.neg_chi == 0


def test_oc_identity_on_family_words():
    for m in (1, 2, 3):
        state = classify_circles(resolve_all_A(ladder(m)))
        assert check_oc_identity(state) is True


def test_oc_identity_not_applicable_off_family():
    state = classify_circles(resolve_all_A(word_of("s1^-1 s2^-3")))
    assert check_oc_identity(state) is None


@given(word_st)
@settings(max_examples=120)
def test_circles_partition_the_arcs(word):
    state = resolve_all_A(word)
    seen = [arc_id for circle in state.circles for arc_id in circle.arcs]
    assert sorted(seen) == sorted(a.id for a in state.arcs)


@given(word_st)
@settings(max_examples=120)
def test_census_counts_every_circle(word):
    state = classify_circles(resolve_all_A(word))
    assert sum(state.census.values()) == len(state.circles)
    assert state.crossings == word.crossings
    assert all(circle.winding >= 0 for circle in state.circles)


@given(word_st)
@settings(max_examples=120)
def test_small_circles_count_internal_adjacencies(word):
    # each negative syllable of length r yields at least r - 1 small circles
    # (consecutive crossings of one syllable always bound one); an isolated
    # length-2 syllable can add a wraparound small on top of that
    state = classify_circles(resolve_all_A(word))
    internal = sum(-r - 1 for _, r in word.syllables if r < 0)
    assert state.census[CircleClass.SMALL_INNER] >= internal


@given(word_st)
@settings(max_examples=120)
def test_segment_bookkeeping(word):
    state = resolve_all_A(word)
    assert len(state.segments) == word.crossings


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
