"""All-A state resolution, circle taxonomy, and the reduced state graph.

The census pins below were worked out by hand on the flat diagrams: a
positive letter contributes two pass arcs and a horizontal segment, a
negative letter a cap/cup pair and a vertical segment; circles are read off
by one union-find sweep down the braid, which sorts each into the five
classes by support and winding as it is traced.  The walk over arc endpoints
and the separate classifying pass that the sweep replaced are kept here as
oracles, and the two must agree on every word.
"""

from collections import defaultdict
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from braidvol.errors import OracleError, PreconditionError
from braidvol.generate import GeneratorSpec, generate_words
from braidvol.report import verify
from braidvol.states import (
    AllAState,
    Arc,
    ArcKind,
    CircleClass,
    Segment,
    SegmentOrientation,
    StateCircle,
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
    state = resolve_all_A(ladder(2))
    assert census_by_name(state) == {
        "small_inner": 8,
        "essential_wandering": 1,
    }
    assert state.m == 0


def test_mixed_word_census():
    state = resolve_all_A(word_of("s1^3 s2^-3 s1^2 s2^-4"))
    assert census_by_name(state) == {
        "small_inner": 5,
        "medium_inner": 2,
        "nonwandering": 1,
    }


def test_empty_word_is_all_nonwandering():
    state = resolve_all_A(SyllableWord(3, ()))
    assert census_by_name(state) == {"nonwandering": 3}


def test_single_negative_crossing_closes_to_a_medium():
    # cap and cup of one lone crossing close up through both closure arcs,
    # which are traversed in opposite senses: support {1}, winding 0, and no
    # consecutive-crossing pattern, so the circle lands in the medium bin
    state = resolve_all_A(SyllableWord(2, ((1, -1),)))
    assert census_by_name(state) == {"medium_inner": 1}


def test_circle_support_and_winding_detail():
    state = resolve_all_A(ladder(1))
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
    # e - v of the reduced graph is t minus the circles other than small
    # inner: verify's circle_count check (ladder(1) fails the family
    # checker, so verify refuses it)
    for m in (2, 3, 4):
        checks = {c.name: c for c in verify(ladder(m)).checks}
        assert checks["circle_count"].passed


def test_oc_identity_not_applicable_off_family():
    with pytest.raises(PreconditionError):
        verify(word_of("s1^-1 s2^-3"))


def test_wraparound_circle_of_a_length_two_syllable_is_small():
    # s1^-2 closes two circles, each met by both vertical segments: circle 1
    # between the first cup and the second cap, and circle 0, which leaves
    # the second cup through both closure arcs to reach the first cap
    state = resolve_all_A(SyllableWord(2, ((1, -2),)))
    assert census_by_name(state) == {"small_inner": 2}
    # a vertical segment's endpoints are (cap circle, cup circle)
    assert [s.endpoints for s in state.segments] == [(0, 1), (1, 0)]


def test_classify_circles_returns_its_argument():
    state = resolve_all_A(ladder(2))
    assert classify_circles(state) is state


def walk_oracle(word):
    """The arc-walking tracer the sweep replaced, as an independent oracle.

    Builds one arc per pass, cap, cup and closure, joins arcs at shared grid
    points, and walks each circle from its smallest unvisited arc, summing
    signed closure crossings.  Returns the arcs and a state whose circles
    are all ``UNCLASSIFIED`` (see :func:`classify_oracle`).
    """
    n = word.n
    letters = [
        (m, 1 if r > 0 else -1, si)
        for si, (m, r) in enumerate(word.syllables)
        for _ in range(abs(r))
    ]
    c = len(letters)

    def point(level, col):
        return level * n + (col - 1)

    arcs = []
    pass_at, cap_at, cup_at = {}, {}, {}

    def add(kind, column, level, ends):
        arcs.append(Arc(len(arcs), kind, column, level, ends))
        return len(arcs) - 1

    for idx, (g, sign, _) in enumerate(letters):
        smoothed = ()
        if sign < 0:
            cap_at[idx] = add(ArcKind.CAP, g, idx, (point(idx, g), point(idx, g + 1)))
            cup_at[idx] = add(
                ArcKind.CUP, g, idx, (point(idx + 1, g), point(idx + 1, g + 1))
            )
            smoothed = (g, g + 1)
        for col in range(1, n + 1):
            if col not in smoothed:
                pass_at[(idx, col)] = add(
                    ArcKind.PASS, col, idx, (point(idx, col), point(idx + 1, col))
                )
    for col in range(1, n + 1):
        add(ArcKind.CLOSURE, col, -1, (point(c, col), point(0, col)))

    incident = defaultdict(list)
    for arc in arcs:
        incident[arc.ends[0]].append((arc.id, 0))
        incident[arc.ends[1]].append((arc.id, 1))
    circle_of = [-1] * len(arcs)
    circles = []
    for start in range(len(arcs)):
        if circle_of[start] != -1:
            continue
        cid = len(circles)
        winding, support = 0, set()
        ai, from_end = start, 0
        while True:
            circle_of[ai] = cid
            arc = arcs[ai]
            if arc.kind is ArcKind.CLOSURE:
                # bottom-to-top traversal counts +1 around the annulus
                winding += 1 if from_end == 0 else -1
            elif arc.kind is not ArcKind.PASS:
                support.add(arc.column)
            # leave by the other end, into the other arc end at that point
            first, second = incident[arc.ends[1 - from_end]]
            ai, from_end = second if first == (ai, 1 - from_end) else first
            if ai == start and from_end == 0:
                break
        if abs(winding) > 1:
            raise OracleError(f"embedded state circle traced with winding {winding}")
        circles.append(
            StateCircle(cid, abs(winding), frozenset(support), CircleClass.UNCLASSIFIED)
        )

    segments = []
    for idx, (g, sign, si) in enumerate(letters):
        if sign > 0:
            ends = (circle_of[pass_at[(idx, g)]], circle_of[pass_at[(idx, g + 1)]])
            orientation = SegmentOrientation.HORIZONTAL
        else:
            ends = (circle_of[cap_at[idx]], circle_of[cup_at[idx]])
            orientation = SegmentOrientation.VERTICAL
        segments.append(Segment(idx, si, orientation, ends))
    return tuple(arcs), AllAState(word, tuple(circles), tuple(segments))


def classify_oracle(state):
    """The classifying pass the sweep absorbed, as an independent oracle.

    Rules, in order: empty support is nonwandering; support meeting two or
    more columns wanders (essential iff winding 1); single-column support is
    a small inner circle when its only two incident segments are the vertical
    segments of consecutive crossings in one negative syllable, else medium
    inner when contractible, else unclassified.
    """
    incident = defaultdict(list)
    for seg in state.segments:
        for cid in set(seg.endpoints):
            incident[cid].append(seg)

    def klass_of(circle):
        if not circle.support:
            return CircleClass.NONWANDERING
        if len(circle.support) >= 2:
            if circle.winding == 1:
                return CircleClass.ESSENTIAL_WANDERING
            return CircleClass.NON_ESSENTIAL_WANDERING
        segs = incident[circle.id]
        if (
            len(segs) == 2
            and all(s.orientation is SegmentOrientation.VERTICAL for s in segs)
            and segs[0].syllable == segs[1].syllable
            and abs(segs[0].crossing - segs[1].crossing) == 1
        ):
            return CircleClass.SMALL_INNER
        if circle.winding == 0:
            return CircleClass.MEDIUM_INNER
        return CircleClass.UNCLASSIFIED

    circles = tuple(replace(c, klass=klass_of(c)) for c in state.circles)
    return replace(state, circles=circles)


def assert_sweep_matches_oracle(word):
    arcs, expected = walk_oracle(word)
    expected = classify_oracle(expected)
    state = resolve_all_A(word)
    assert state.circles == expected.circles
    assert state.census == expected.census
    assert state.segments == expected.segments
    assert state.arcs == arcs


any_n_word_st = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.builds(
        SyllableWord,
        st.just(n),
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=max(n - 1, 1)),
                st.integers(min_value=-6, max_value=6).filter(lambda r: r != 0),
            ),
            max_size=12 if n > 1 else 0,
        ).map(tuple),
    )
)


@given(any_n_word_st)
@settings(max_examples=300)
def test_sweep_matches_the_walk_oracle(word):
    # unreduced words keep adjacent syllables of one generator and letters
    # that cancel across the closure; the reduced form is checked as well
    assert_sweep_matches_oracle(word)
    assert_sweep_matches_oracle(cyclically_reduce_into_syllables(word))


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_sweep_matches_the_walk_oracle_on_the_empty_word(n):
    assert_sweep_matches_oracle(SyllableWord(n, ()))


@pytest.mark.parametrize("n", [3, 4, 5, 8])
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    half=st.integers(min_value=7, max_value=100),
)
@settings(max_examples=8, deadline=None)
def test_sweep_matches_the_walk_oracle_on_generated_words(n, seed, half):
    spec = GeneratorSpec(n=n, syllable_count=2 * half, seed=seed)
    assert_sweep_matches_oracle(generate_words(spec)[0])


@given(word_st)
@settings(max_examples=120)
def test_arcs_are_numbered_n_per_letter(word):
    state = resolve_all_A(word)
    n, c = word.n, word.crossings
    assert [arc.id for arc in state.arcs] == list(range((c + 1) * n))
    for i in range(c):
        assert {arc.level for arc in state.arcs[i * n : (i + 1) * n]} == {i}
    closure = state.arcs[c * n :]
    assert all(arc.kind is ArcKind.CLOSURE and arc.level == -1 for arc in closure)


@given(word_st)
@settings(max_examples=120)
def test_census_counts_every_circle(word):
    state = resolve_all_A(word)
    assert sum(state.census.values()) == len(state.circles)
    assert state.crossings == word.crossings
    assert all(circle.winding >= 0 for circle in state.circles)


@given(word_st)
@settings(max_examples=120)
def test_small_circles_count_internal_adjacencies(word):
    # each negative syllable of length r yields at least r - 1 small circles
    # (consecutive crossings of one syllable always bound one); an isolated
    # length-2 syllable can add a wraparound small on top of that
    state = resolve_all_A(word)
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
