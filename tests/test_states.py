"""All-A state resolution, circle taxonomy, and the reduced state graph.

The census pins below were worked out by hand on the flat diagrams: a
positive letter contributes two pass arcs and a horizontal segment, a
negative letter a cap/cup pair and a vertical segment; circles are read off
by one union-find sweep down the braid, one syllable at a time, which sorts
each into the five classes by support and winding as it is traced.  The
walk over arc endpoints and the separate classifying pass that the sweep
replaced are kept here as oracles, and the two must agree on every word.
So are the per-segment definitions of A-adequacy, the two-edge loop
condition and the reduced graph, which the state now reads per twist
region.  The oracle's arcs and segments are its own frozen types, defined
here: the state builds neither, and the SVG renderer walks plain arc ids,
which must visit the oracle's arcs in the oracle's order.  The label-dict
sweep that the flat-list sweep replaced is kept as a reference too
(:func:`resolve_by_labels`): both must give equal pieces and regions.
"""

import itertools
import json
import random
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum

import pytest
from hypothesis import example, given, settings, strategies as st

from braidvol.errors import OracleError, PreconditionError
from braidvol.generate import GeneratorSpec, generate_words
from braidvol.render import _walk_circles
from braidvol.report import _detail_text, circle_detail, verify
from braidvol.states import (
    CAP,
    CLOSURE,
    CUP,
    PASS,
    AllAState,
    CircleClass,
    ReducedStateGraph,
    StateCircle,
    _klass,
    arc_table,
    classify_circles,
    is_A_adequate,
    is_connected_closure,
    is_prime_closure,
    reduced_graph,
    resolve_all_A,
    satisfies_TELC,
    twist_counts,
)
from braidvol.words import SyllableWord, cyclically_reduce_into_syllables

from conftest import (
    any_n_words,
    label_sweep_words,
    ladder,
    word_of,
    word_st,
)

class ArcKind(str, Enum):
    PASS = "pass"
    CAP = "cap"
    CUP = "cup"
    CLOSURE = "closure"


class SegmentOrientation(str, Enum):
    HORIZONTAL = "horizontal"  # A-segment of a positive crossing
    VERTICAL = "vertical"  # A-segment of a negative crossing


@dataclass(frozen=True)
class Arc:
    """One smooth piece of the state: pass, cap, cup, or closure arc.

    ``column`` is the generator index for caps and cups and the strand
    position for pass and closure arcs.  ``level`` is the letter index, or -1
    for closure arcs.  ``ends`` are grid-point ids, level * n + column - 1;
    for closure arcs the pair is (bottom point, top point).
    """

    id: int
    kind: ArcKind
    column: int
    level: int
    ends: tuple[int, int]


@dataclass(frozen=True)
class Segment:
    """An A-segment: crossing id, owning syllable, orientation, endpoints.

    Endpoints are circle ids; they coincide exactly when the segment joins a
    circle to itself, the obstruction to A-adequacy.
    """

    crossing: int
    syllable: int
    orientation: SegmentOrientation
    endpoints: tuple[int, int]


def segments_of(state):
    """Every A-segment of ``state`` in crossing order, expanded from its
    twist-region records: a pair region's segments all join its pair, and a
    chain's i-th segment joins the i-th and (i + 1)-th circles of
    ``a, inner..., b``, its inner circles read from its runs.  The runs
    must come in region order, each of its region's generator, and make up
    exactly |r| - 1 inner circles per chain."""
    runs = iter([piece for piece in state.pieces if type(piece) is not StateCircle])
    segments = []
    for si, (first, r, (a, b)) in enumerate(state.regions):
        if r > 0:
            segments += [
                Segment(i, si, SegmentOrientation.HORIZONTAL, (a, b))
                for i in range(first, first + r)
            ]
            continue
        inner = []
        while len(inner) < -r - 1:
            start, count, g = next(runs)
            assert g == state.word.syllables[si][0]
            inner += range(start, start + count)
        assert len(inner) == -r - 1
        ids = (a, *inner, b)
        segments += [
            Segment(i, si, SegmentOrientation.VERTICAL, pair)
            for i, pair in enumerate(zip(ids, ids[1:]), first)
        ]
    assert next(runs, None) is None
    return tuple(segments)


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


def test_state_circle_is_an_immutable_value():
    assert StateCircle._fields == ("id", "winding", "support", "klass")
    # the circles of a run are built without the constructor; they are
    # still StateCircles, equal to and hashing like constructed ones
    state = resolve_all_A(ladder(1))
    circle = next(c for c in state.circles if c.klass is CircleClass.SMALL_INNER)
    assert type(circle) is StateCircle
    cid, winding, support, klass = circle
    built = StateCircle(cid, winding, frozenset(support), klass)
    assert circle == built and hash(circle) == hash(built)
    assert repr(circle) == (
        f"StateCircle(id={cid}, winding=0, support=frozenset({{1}}), klass={klass!r})"
    )
    with pytest.raises(AttributeError):
        circle.winding = 1
    moved = circle._replace(klass=CircleClass.MEDIUM_INNER)
    assert type(moved) is StateCircle and moved is not circle
    assert moved == (cid, winding, support, CircleClass.MEDIUM_INNER)
    assert circle.klass is CircleClass.SMALL_INNER


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
    with pytest.raises(PreconditionError, match="need a cyclically reduced word"):
        twist_counts(SyllableWord(3, ((1, -3), (1, -2), (2, -3))))


def test_connectivity():
    assert is_connected_closure(ladder(1))
    assert not is_connected_closure(word_of("s1^3", 3))  # strand 3 splits off
    assert not is_connected_closure(SyllableWord(2, ()))


def prime_by_edge_cuts(generators, n):
    """The brute-force primeness oracle.  The closed-braid diagram is a
    4-valent multigraph: its crossings are the vertices, and the strand
    pieces between consecutive crossings of a strand position, closure
    included, are the edges.  A connected diagram is prime iff no two
    edges disconnect that graph."""
    edges = []
    for column in range(1, n + 1):
        levels = [i for i, g in enumerate(generators) if column in (g, g + 1)]
        edges += zip(levels, levels[1:] + levels[:1])

    def connected_without(cut):
        parent = list(range(len(generators)))
        components = len(generators)
        for k, (a, b) in enumerate(edges):
            if k in cut:
                continue
            while parent[a] != a:
                a = parent[a]
            while parent[b] != b:
                b = parent[b]
            if a != b:
                parent[a] = b
                components -= 1
        return components == 1

    return all(
        connected_without((i, j))
        for i in range(len(edges))
        for j in range(i + 1, len(edges))
    )


def assert_prime_matches_edge_cuts(generators, n):
    """Compare the rule with the oracle on the positive word of
    ``generators``, as written and reduced; return whether it was compared
    (the rule is stated for connected diagrams only)."""
    word = SyllableWord(n, tuple((g, 1) for g in generators))
    if not is_connected_closure(word):
        return False
    expected = prime_by_edge_cuts(generators, n)
    assert is_prime_closure(word) is expected, (n, generators)
    reduced = cyclically_reduce_into_syllables(word)
    assert is_prime_closure(reduced) is expected, (n, generators)
    return True


@pytest.mark.parametrize(
    "text,n,prime",
    [
        ("s1^-3 s2^-3", 3, False),  # two trefoils, summed
        ("s1 s2^-2 s1 s2^-2", 3, True),
        ("s1^-3 s2^-3 s1^-3 s2^-3", 3, True),
        ("s1^-5", 2, True),
        ("s1^-3 s2^-3 s3^-3 s2^-3", 4, False),  # s1 and s2 change twice
        ("s1^-3 s3^-3 s2 s1^-3 s3^-3 s2^-3", 4, True),
        # passes the family gate, yet its s1, s2 syllables change twice
        ("s1^-5 s2^-4 s3^-6 s4^-12 s3^-5 s1^-6 s2^-10 s4^-6", 5, False),
    ],
)
def test_prime_closure_pins(text, n, prime):
    word = word_of(text, n)
    assert is_prime_closure(word) is prime
    generators = [g for g, r in word.syllables for _ in range(abs(r))]
    assert prime_by_edge_cuts(generators, n) is prime


@pytest.mark.parametrize("n,crossings", [(3, 10), (4, 8)])
def test_prime_closure_matches_edge_cuts_on_every_short_word(n, crossings):
    # every generator sequence up to the crossing count, the connected ones
    # compared; a diagram's graph does not depend on the crossing signs
    compared = 0
    for length in range(crossings + 1):
        for generators in itertools.product(range(1, n), repeat=length):
            compared += assert_prime_matches_edge_cuts(generators, n)
    assert compared > 2_000


def test_prime_closure_matches_edge_cuts_on_random_words():
    rng = random.Random(5)
    compared = 0
    for _ in range(2_000):
        n = rng.randint(5, 7)
        length = rng.randint(2 * n, 16)
        generators = [rng.randint(1, n - 1) for _ in range(length)]
        compared += assert_prime_matches_edge_cuts(generators, n)
    assert compared > 1_000


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
    assert [s.endpoints for s in segments_of(state)] == [(0, 1), (1, 0)]


def test_classify_circles_returns_its_argument():
    state = resolve_all_A(ladder(2))
    assert classify_circles(state) is state


def walk_oracle(word):
    """The arc-walking tracer the sweep replaced, as an independent oracle.

    Builds one arc per pass, cap, cup and closure, joins arcs at shared grid
    points, and walks each circle from its smallest unvisited arc, summing
    signed closure crossings.  Returns the arcs, each circle's walk as
    (arc id, walked backwards) pairs, the circles, all ``UNCLASSIFIED``
    (see :func:`classify_oracle`), and the segments.
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
    walks, circles = [], []
    for start in range(len(arcs)):
        if circle_of[start] != -1:
            continue
        cid = len(circles)
        winding, support, walk = 0, set(), []
        ai, from_end = start, 0
        while True:
            circle_of[ai] = cid
            walk.append((ai, from_end == 1))
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
        walks.append(walk)
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
    return tuple(arcs), walks, tuple(circles), tuple(segments)


def classify_oracle(circles, segments):
    """The classifying pass the sweep absorbed, as an independent oracle.

    Rules, in order: empty support is nonwandering; support meeting two or
    more columns wanders (essential iff winding 1); single-column support is
    a small inner circle when its only two incident segments are the vertical
    segments of consecutive crossings in one negative syllable, else medium
    inner when contractible, else unclassified.
    """
    incident = defaultdict(list)
    for seg in segments:
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

    return tuple(c._replace(klass=klass_of(c)) for c in circles)


ARC_KIND_CODES = {
    ArcKind.PASS: PASS,
    ArcKind.CAP: CAP,
    ArcKind.CUP: CUP,
    ArcKind.CLOSURE: CLOSURE,
}


def assert_render_walk_matches_oracle(word, arcs, walks):
    """The arc numbering the sweep and the renderer share is the oracle's,
    and the renderer's walk over plain ids visits, circle by circle, the
    oracle's arcs in order and in the same direction."""
    kinds, columns, levels, ends = arc_table(word)
    assert [
        (i, kinds[i], columns[i], levels[i], (ends[2 * i], ends[2 * i + 1]))
        for i in range(len(kinds))
    ] == [
        (arc.id, ARC_KIND_CODES[arc.kind], arc.column, arc.level, arc.ends)
        for arc in arcs
    ]
    assert [
        [(entry >> 1, entry & 1 == 1) for entry in walk]
        for walk in _walk_circles(ends)
    ] == walks


def assert_sweep_matches_oracle(word):
    arcs, walks, circles, expected_segments = walk_oracle(word)
    expected_circles = classify_oracle(circles, expected_segments)
    state = resolve_all_A(word)
    assert state.circles == expected_circles
    assert state.census == {
        k: sum(c.klass is k for c in expected_circles) for k in CircleClass
    }
    assert segments_of(state) == expected_segments
    assert state.arcs == range(len(arcs))
    assert_render_walk_matches_oracle(word, arcs, walks)


def adequate_oracle(segments):
    """A-adequacy per segment: no segment joins a circle to itself."""
    return all(a != b for a, b in (s.endpoints for s in segments))


def telc_oracle(segments):
    """The two-edge loop condition per segment: two or more segments on one
    circle pair must all be horizontal and of one syllable."""
    groups = defaultdict(list)
    for seg in segments:
        groups[frozenset(seg.endpoints)].append(seg)
    return all(
        len(group) < 2
        or (
            all(s.orientation is SegmentOrientation.HORIZONTAL for s in group)
            and len({s.syllable for s in group}) == 1
        )
        for group in groups.values()
    )


def reduced_graph_oracle(vertices, segments):
    """The reduced graph per segment: one edge per distinct circle pair."""
    e = len({frozenset(s.endpoints) for s in segments})
    return ReducedStateGraph(vertices, e, e - vertices, len(segments))


def assert_regions_match_segment_oracles(word):
    _, _, circles, segments = walk_oracle(word)
    state = resolve_all_A(word)
    assert is_A_adequate(state) == adequate_oracle(segments)
    assert satisfies_TELC(state) == telc_oracle(segments)
    assert reduced_graph(state) == reduced_graph_oracle(len(circles), segments)


any_n_word_st = any_n_words(6)


@given(any_n_word_st)
@settings(max_examples=300)
def test_sweep_matches_the_walk_oracle(word):
    # unreduced words keep adjacent syllables of one generator and letters
    # that cancel across the closure; the reduced form is checked as well
    assert_sweep_matches_oracle(word)
    assert_sweep_matches_oracle(cyclically_reduce_into_syllables(word))


@given(any_n_word_st)
@settings(max_examples=300)
def test_region_predicates_match_the_segment_oracles(word):
    assert_regions_match_segment_oracles(word)
    assert_regions_match_segment_oracles(cyclically_reduce_into_syllables(word))


@pytest.mark.parametrize(
    "word, adequate, telc, edges",
    [
        # both segments of s1^-2 join circles 0 and 1: a two-edge loop of a
        # negative region, and one reduced edge
        (SyllableWord(2, ((1, -2),)), True, False, 1),
        # a lone negative crossing joins its one circle to itself
        (SyllableWord(2, ((1, -1),)), False, True, 1),
        # both s1 regions join circles 0 and 1, both s2 regions 1 and 2
        (word_of("s1^2 s2^2 s1^3 s2^3"), True, False, 2),
        # s2^-1 joins the circles s1 joins; the r = -3 chains close on one
        # circle each but keep three distinct pairs
        (word_of("s1 s2^-1 s1^-3 s2^-3"), True, False, 7),
    ],
)
def test_region_predicate_pins(word, adequate, telc, edges):
    assert_regions_match_segment_oracles(word)
    state = resolve_all_A(word)
    assert is_A_adequate(state) is adequate
    assert satisfies_TELC(state) is telc
    graph = reduced_graph(state)
    assert graph.edges == edges
    assert graph.unreduced_edges == word.crossings


def assert_traced_values_match_the_property_bodies(word):
    """The census and the graph values the trace reads as it goes, held in
    the state's ``__dict__`` from the start, against the cached property
    bodies of a state built from the same fields, which compute them."""
    state = resolve_all_A(word)
    assert {"_graph", "_counts"} <= vars(state).keys()
    built = AllAState(state.word, state.pieces, state.regions)
    assert "_graph" not in vars(built) and "_counts" not in vars(built)
    assert built == state
    assert list(state.census.items()) == list(built.census.items())
    assert state.m == built.m
    assert reduced_graph(state) == reduced_graph(built)
    assert is_A_adequate(state) is is_A_adequate(built)
    assert satisfies_TELC(state) is satisfies_TELC(built)


@given(any_n_word_st)
# s1^-2: a two-edge loop, and a wraparound circle that is small
@example(SyllableWord(2, ((1, -2),)))
# s1^-2 s2 s1^-2: two r = -2 loops, neither circle small
@example(SyllableWord(3, ((1, -2), (2, 1), (1, -2))))
# the r = -2 loop of s1^-2 beside pair regions that share a pair
@example(SyllableWord(3, ((1, -2), (2, 1), (1, 1), (2, 1))))
@settings(max_examples=300)
def test_traced_census_and_graph_match_the_property_bodies(word):
    assert_traced_values_match_the_property_bodies(word)
    assert_traced_values_match_the_property_bodies(
        cyclically_reduce_into_syllables(word)
    )


@pytest.mark.parametrize("n", [3, 4, 5, 8, 16, 32])
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    half=st.integers(min_value=31, max_value=100),
)
@settings(max_examples=4, deadline=None)
def test_traced_census_and_graph_match_the_property_bodies_on_generated_words(
    n, seed, half
):
    spec = GeneratorSpec(n=n, syllable_count=2 * half, seed=seed)
    assert_traced_values_match_the_property_bodies(generate_words(spec)[0])


@pytest.mark.parametrize(
    "word, census",
    [
        # both circles of s1^-2 are small: the one inside the syllable and the
        # wraparound one through the closure
        (SyllableWord(2, ((1, -2),)), {"small_inner": 2}),
        # at s1^-3 the wraparound circle meets the first and last segments,
        # which are not consecutive, so it is medium
        (SyllableWord(2, ((1, -3),)), {"small_inner": 2, "medium_inner": 1}),
        # a long negative first syllable: its top labels start at the cap,
        # and the pass circles' roots 2 and 3 sort between its inner roots
        (
            SyllableWord(4, ((2, -4), (3, 2))),
            {"small_inner": 3, "medium_inner": 1, "nonwandering": 2},
        ),
        # an all-positive word closes no circle inside a syllable
        (SyllableWord(3, ((1, 3), (2, 2), (1, 1))), {"nonwandering": 3}),
    ],
)
def test_syllable_sweep_special_cases(word, census):
    assert_sweep_matches_oracle(word)
    assert census_by_name(resolve_all_A(word)) == census


def test_boundary_roots_between_inner_roots_split_the_run():
    # s2^-4 s3^2 on 4 strands: the pass circles of columns 1 and 4 have
    # roots 2 and 3, between the inner roots 1 and 5 of s2^-4, so its three
    # small inner circles come as two runs around circles 2 and 3
    word = SyllableWord(4, ((2, -4), (3, 2)))
    # the circles built from the runs, the census and the chain's segments
    # against the walk oracle
    assert_sweep_matches_oracle(word)
    state = resolve_all_A(word)
    assert [type(piece) is StateCircle for piece in state.pieces] == [
        True, False, True, True, False
    ]
    assert [piece for piece in state.pieces if type(piece) is not StateCircle] == [
        (1, 1, 2),
        (4, 2, 2),
    ]
    assert state.regions == ((0, -4, (0, 0)), (4, 2, (0, 3)))
    assert _detail_text(state) == json.dumps(circle_detail(state))[1:-1]


def test_circle_between_two_syllables_of_one_generator_is_medium():
    # unreduced s1^-3 s1^-2: the last cup of the first syllable and the
    # first cap of the second bound one circle, met by the vertical segments
    # of consecutive crossings, but of two syllables, so it is not small
    word = SyllableWord(3, ((1, -3), (1, -2), (2, -3)))
    assert_sweep_matches_oracle(word)
    state = resolve_all_A(word)
    assert census_by_name(state) == {
        "small_inner": 5,
        "medium_inner": 1,
        "essential_wandering": 1,
    }
    segments = segments_of(state)
    below, above = segments[2].endpoints[1], segments[3].endpoints[0]
    assert below == above
    assert state.circles[below].klass is CircleClass.MEDIUM_INNER


def test_census_is_counted_once_and_copied():
    state = resolve_all_A(word_of("s1^-3 s2^-3 s3^-3 s2^-3 s1^-3 s3^-3", 4))
    m = state.m
    census = state.census
    assert census[CircleClass.NON_ESSENTIAL_WANDERING] == m == 1
    census[CircleClass.NON_ESSENTIAL_WANDERING] += 5
    census.clear()
    assert state.m == m
    assert state.census[CircleClass.NON_ESSENTIAL_WANDERING] == m
    assert state.census is not state.census


def test_state_equality_sees_only_its_three_fields():
    word = word_of("s1^-3 s2^2 s1^-3 s2^-4")
    state = resolve_all_A(word)
    # fill the cached census and circles, which equality must not see
    state.census, state.circles
    fresh = resolve_all_A(word)
    assert fresh == state and hash(fresh) == hash(state)
    copy = state._replace()
    assert copy == state and hash(copy) == hash(state)
    assert state.arcs == range((word.crossings + 1) * word.n)


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


def resolve_by_labels(word):
    """The label-dict sweep the flat-list sweep replaced, as a reference.

    Union-find runs over a dict keyed by the labels' arc ids, a union keeps
    the smaller id, and the numbering, winding, support and region passes
    each build a dict keyed by arc id or circle id.  The state it returns
    must equal :func:`resolve_all_A`'s, pieces and regions alike.
    """
    n = word.n
    g = word.syllables[0][0] if word.syllables and word.syllables[0][1] < 0 else 0
    top = [j + 2 if j < g - 1 else 0 if j <= g else j for j in range(n)]
    parent = {label: label for label in top}

    def find(label):
        while (up := parent[label]) != label:
            parent[label] = label = parent[up]
        return label

    def union(a, b):
        a, b = sorted((find(a), find(b)))
        parent[b] = a
        return a

    labels = top.copy()
    records = []
    crossing = 0
    for g, r in word.syllables:
        if r > 0:
            records.append((crossing, g, r, labels[g - 1], labels[g]))
        else:
            cap = union(labels[g - 1], labels[g])
            cup = (crossing - r - 1) * n + 1
            parent[cup] = labels[g - 1] = labels[g] = cup
            records.append((crossing, g, r, cap, cup))
        crossing += abs(r)
    for bottom, label in zip(labels, top):
        union(bottom, label)

    root_of = {label: find(label) for label in parent}
    roots = sorted(set(root_of.values()))
    roots.append((crossing + 1) * n)
    circle_of = {}
    order = []
    cid = i = 0
    for first, g, r, _, last_cup in records:
        root = first * n + 1
        while r < -1 and root < last_cup:
            while roots[i] < root:
                circle_of[roots[i]] = cid
                order.append(cid)
                cid, i = cid + 1, i + 1
            count = (min(roots[i], last_cup) - root - 1) // n + 1
            order.append((cid, count, g))
            cid, root = cid + count, root + count * n
    for root in roots[i:-1]:
        circle_of[root] = cid
        order.append(cid)
        cid += 1

    circle_of_label = {label: circle_of[root] for label, root in root_of.items()}
    winding = dict.fromkeys(circle_of.values(), 0)
    for label in top:
        winding[circle_of_label[label]] ^= 1
    support = {cid: set() for cid in winding}
    ends = dict.fromkeys(winding, 0)
    wraps = set()
    regions = []
    for first, g, r, label_a, label_b in records:
        a, b = circle_of_label[label_a], circle_of_label[label_b]
        ends[a] += 1
        ends[b] += 1
        regions.append((first, r, (a, b)))
        if r < 0:
            support[a].add(g)
            support[b].add(g)
            if r == -2 and a == b:
                wraps.add(a)

    def boundary_circle(cid):
        columns, turns = support[cid], winding[cid]
        wrapped = cid in wraps and ends[cid] == 2
        return StateCircle(
            cid, turns, frozenset(columns), _klass(columns, turns, wrapped)
        )

    pieces = tuple(
        boundary_circle(piece) if type(piece) is int else piece for piece in order
    )
    return AllAState(word, pieces, tuple(regions))


def assert_sweep_matches_the_label_sweep(word):
    state, reference = resolve_all_A(word), resolve_by_labels(word)
    assert state.pieces == reference.pieces
    assert state.regions == reference.regions
    assert state == reference


@given(label_sweep_words())
@example(SyllableWord(2, ()))
@example(SyllableWord(32, ()))
@settings(max_examples=400)
def test_sweep_matches_the_label_sweep(word):
    assert_sweep_matches_the_label_sweep(word)
    assert_sweep_matches_the_label_sweep(cyclically_reduce_into_syllables(word))


@pytest.mark.parametrize("n", [3, 4, 5, 8, 16, 32])
def test_sweep_matches_the_label_sweep_on_generated_words(n):
    spec = GeneratorSpec(n=n, syllable_count=200, seed=1, count=3)
    for word in generate_words(spec):
        assert_sweep_matches_the_label_sweep(word)


@given(word_st)
@settings(max_examples=120)
def test_render_walk_visits_the_oracle_arcs(word):
    arcs, walks, _, _ = walk_oracle(word)
    assert_render_walk_matches_oracle(word, arcs, walks)


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
    assert len(state.regions) == len(word.syllables)
    assert len(segments_of(state)) == word.crossings


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
