"""The all-A Kauffman state of a closed braid diagram.

Draw the braid vertically, one letter per level, and close it in an annulus
with one closure arc per strand position.  The A-smoothing of a positive
letter keeps both strands passing straight through (two *pass* arcs) and
leaves a horizontal A-segment between them; the A-smoothing of a negative
letter joins the two strands above the crossing (a *cap*) and below it
(a *cup*), leaving a vertical A-segment between cap and cup.  Smoothing every
crossing turns the diagram into a disjoint union of embedded circles, the
state circles, each with a winding number 0 or 1 around the annulus core.
:func:`resolve_all_A` finds them in one sweep down the braid that works one
syllable at a time: union-find (Tarjan, 1975) joins labels once per twist
region, the small circles stacked inside a negative region are built
directly, and each circle is classified as it is traced.  The state keeps
one record per twist region, not one object per crossing; the A-segments
(:attr:`AllAState.segments`) and the arcs (:attr:`AllAState.arcs`) are
built only on demand, and only the SVG renderer asks for them.

The circles carry a taxonomy driven by their *support* (the set of twist-
region columns contributing a cap or cup to the circle):

* empty support: the circle runs straight around the annulus (nonwandering);
* support of size one: either one of the small circles stacked inside a
  negative twist region (small inner), or a contractible circle framing a
  positive twist region (medium inner);
* support of size two or more: a wandering circle, essential exactly when it
  winds around the annulus.

A-segments double as the edges of the state graph on the circles; collapsing
parallel edges gives the reduced graph whose negative Euler characteristic
e - v feeds every volume bound downstream.  Its edge count, A-adequacy and
the two-edge loop condition are all read per twist region (Futer,
Kalfagianni and Purcell, "Guts of surfaces and the colored Jones
polynomial", 2013), in one pass over the records (see
:attr:`AllAState.regions`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .errors import PreconditionError
from .words import SyllableWord

__all__ = [
    "ArcKind",
    "SegmentOrientation",
    "CircleClass",
    "Arc",
    "Segment",
    "StateCircle",
    "AllAState",
    "ReducedStateGraph",
    "resolve_all_A",
    "classify_circles",
    "is_A_adequate",
    "satisfies_TELC",
    "twist_counts",
    "is_connected_closure",
    "reduced_graph",
]


class ArcKind(str, Enum):
    PASS = "pass"
    CAP = "cap"
    CUP = "cup"
    CLOSURE = "closure"


class SegmentOrientation(str, Enum):
    HORIZONTAL = "horizontal"  # A-segment of a positive crossing
    VERTICAL = "vertical"  # A-segment of a negative crossing


class CircleClass(str, Enum):
    SMALL_INNER = "small_inner"
    MEDIUM_INNER = "medium_inner"
    ESSENTIAL_WANDERING = "essential_wandering"
    NON_ESSENTIAL_WANDERING = "non_essential_wandering"
    NONWANDERING = "nonwandering"
    UNCLASSIFIED = "unclassified"


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


@dataclass(frozen=True)
class StateCircle:
    """A state circle: its id (circles are numbered by their smallest arc
    ids), winding (the absolute homology degree around the annulus, 0 or 1
    for an embedded circle), support (the columns of its caps and cups) and
    class."""

    id: int
    winding: int
    support: frozenset[int]
    klass: CircleClass


@dataclass(frozen=True)
class ReducedStateGraph:
    """The state graph after collapsing parallel edges."""

    vertices: int
    edges: int
    neg_chi: int  # e - v, the negative Euler characteristic
    unreduced_edges: int


@dataclass(frozen=True)
class AllAState:
    """The full all-A state of one closed-braid diagram, one record per
    twist region; segments and arcs are built on demand.

    ``regions[i]`` describes syllable ``i`` as ``(first, r, ids)``: its first
    crossing, its exponent and the circles it joins.  A positive syllable or
    a lone negative letter (r = -1) joins one pair, ``ids = (a, b)``; every
    one of its segments has endpoints ``(a, b)``.  A longer negative
    syllable chains ``ids = (a, inner..., b)`` down through the |r| - 1
    small circles stacked inside it, and its i-th segment joins
    ``ids[i]`` to ``ids[i + 1]``.
    """

    word: SyllableWord
    circles: tuple[StateCircle, ...]
    regions: tuple[tuple[int, int, tuple[int, ...]], ...]

    @cached_property
    def segments(self) -> tuple[Segment, ...]:
        """Every A-segment in crossing order, built from the regions on
        first access and kept."""
        segments: list[Segment] = []
        for si, (first, r, ids) in enumerate(self.regions):
            if r > 0:
                segments += [
                    Segment(i, si, SegmentOrientation.HORIZONTAL, ids)
                    for i in range(first, first + r)
                ]
            else:
                segments += [
                    Segment(i, si, SegmentOrientation.VERTICAL, pair)
                    for i, pair in enumerate(zip(ids, ids[1:]), first)
                ]
        return tuple(segments)

    @cached_property
    def arcs(self) -> tuple[Arc, ...]:
        """Every arc, built on first access and kept: letter i owns ids
        i*n ... i*n + n - 1 (its cap and cup when negative, then its passes
        by column), the n closure arcs come last, and grid point
        level * n + column - 1 sits above letter ``level``.
        :func:`resolve_all_A` relies on this order."""
        n, specs, level = self.n, [], 0
        for g, r in self.word.syllables:
            for _ in range(abs(r)):
                top, bottom = level * n - 1, (level + 1) * n - 1
                if r < 0:
                    specs.append((ArcKind.CAP, g, level, (top + g, top + g + 1)))
                    specs.append((ArcKind.CUP, g, level, (bottom + g, bottom + g + 1)))
                specs += [
                    (ArcKind.PASS, col, level, (top + col, bottom + col))
                    for col in range(1, n + 1)
                    if r > 0 or not g <= col <= g + 1
                ]
                level += 1
        specs += [
            (ArcKind.CLOSURE, col, -1, (level * n + col - 1, col - 1))
            for col in range(1, n + 1)
        ]
        return tuple(Arc(i, *spec) for i, spec in enumerate(specs))

    @property
    def n(self) -> int:
        return self.word.n

    @property
    def crossings(self) -> int:
        return self.word.crossings

    @cached_property
    def _graph(self) -> tuple[bool, bool, int]:
        """(A-adequate, TELC, reduced edge count), read in one pass over the
        regions.  A chain's segments all meet one of its inner circles,
        which no other region meets, so a chain never self-joins and its
        pairs are its own; they are |r| distinct pairs, except that an
        r = -2 chain with a = b runs both segments between the same two
        circles, a two-edge loop of a negative region.  The pair regions
        self-join when a = b, and share a pair exactly when two of them
        join the same two circles."""
        adequate, telc, chain_edges = True, True, 0
        pairs = set()
        pair_regions = 0
        for _, r, ids in self.regions:
            if len(ids) == 2:
                a, b = ids
                adequate = adequate and a != b
                pairs.add((a, b) if a <= b else (b, a))
                pair_regions += 1
            else:
                chain_edges -= r
                if r == -2 and ids[0] == ids[2]:
                    telc = False
                    chain_edges -= 1
        telc = telc and len(pairs) == pair_regions
        return adequate, telc, len(pairs) + chain_edges

    @cached_property
    def _counts(self) -> dict[CircleClass, int]:
        counts = dict.fromkeys(CircleClass, 0)
        for circle in self.circles:
            counts[circle.klass] += 1
        return counts

    @property
    def census(self) -> dict[CircleClass, int]:
        """The number of circles of each class, counted once per state; each
        call returns a fresh copy."""
        return dict(self._counts)

    @property
    def m(self) -> int:
        """Number of nonessential wandering circles."""
        return self._counts[CircleClass.NON_ESSENTIAL_WANDERING]


def resolve_all_A(word: SyllableWord) -> AllAState:
    """Smooth every crossing the A-way and trace the state circles.

    One sweep down the braid keeps a union-find label per column and does
    its work one syllable at a time.  A positive syllable leaves every label
    where it was, so its segments all join one label pair.  A negative
    syllable sigma_g^-k unions columns g and g+1 once (its first cap) and
    leaves the fresh label of its last cup on both; the k - 1 circles in
    between, each the cup of one letter and the cap of the next, close
    inside the syllable and are built directly as small inner circles of
    support {g} and winding 0.  The closure unions each column's bottom and
    top labels.  A label is named by its smallest arc id (see
    :attr:`AllAState.arcs`) and a union keeps the smaller name, so sorted
    roots number the circles in arc order: an interior circle's root is its
    cup's id, and the roots of the circles that leave their syllable (the
    boundary circles) are merged in with them.  Winding is the parity of a
    circle's closure arcs; the last loop maps each syllable's labels to
    circles, records the region (see :attr:`AllAState.regions`) and gathers
    each boundary circle's support and incident segments, so every circle
    is built once, already classified (see :func:`_klass`); any syllable
    word works.  No per-crossing object is built: the segments come from
    the regions on demand, and :func:`reduced_graph` and the predicates
    read the regions.
    """
    n = word.n
    # a top label is the first letter's arc in its column: the cap, or a pass
    # after a negative letter's cap and cup; g = 0 reads every column's pass
    # (or, for the empty word, its closure arc) as arc id j
    g = word.syllables[0][0] if word.syllables and word.syllables[0][1] < 0 else 0
    top = [j + 2 if j < g - 1 else 0 if j <= g else j for j in range(n)]
    parent = {label: label for label in top}

    def find(label: int) -> int:
        while (up := parent[label]) != label:
            parent[label] = label = parent[up]
        return label

    def union(a: int, b: int) -> int:
        a, b = sorted((find(a), find(b)))
        parent[b] = a
        return a

    labels = top.copy()
    # one run per syllable: its first crossing and two labels, the pair it
    # joins when positive, the first cap's root and the last cup when negative
    runs: list[tuple[int, int, int, int, int]] = []
    interior: list[int] = []  # the roots of the circles closed in a syllable
    crossing = 0
    for g, r in word.syllables:
        if r > 0:
            runs.append((crossing, g, r, labels[g - 1], labels[g]))
        else:
            cap = union(labels[g - 1], labels[g])
            cup = (crossing - r - 1) * n + 1
            interior += range(crossing * n + 1, cup, n)
            parent[cup] = labels[g - 1] = labels[g] = cup
            runs.append((crossing, g, r, cap, cup))
        crossing += abs(r)
    for bottom, label in zip(labels, top):
        union(bottom, label)

    boundary = {find(label) for label in parent}
    roots = sorted([*interior, *boundary])
    circle_of = dict(zip(roots, range(len(roots))))
    circle_of_label = {label: circle_of[find(label)] for label in parent}
    # only the boundary circles gather winding, support and incident segments
    winding = {circle_of[root]: 0 for root in boundary}  # closure-arc parity
    for label in top:
        winding[circle_of_label[label]] ^= 1
    support: dict[int, set[int]] = {cid: set() for cid in winding}
    # an incident vertical segment is (syllable, crossing); a positive region
    # leaves one None for all its horizontal segments, as one already rules
    # out a small inner circle
    incident: dict[int, list[tuple[int, int] | None]] = {
        cid: [] for cid in winding
    }
    single = [frozenset((g,)) for g in range(n)]
    circles: list[StateCircle | None] = [None] * len(roots)
    regions: list[tuple[int, int, tuple[int, ...]]] = []
    for si, (first, g, r, label_a, label_b) in enumerate(runs):
        a, b = circle_of_label[label_a], circle_of_label[label_b]
        if r > 0:
            incident[a].append(None)
            incident[b].append(None)
            regions.append((first, r, (a, b)))
            continue
        support[a].add(g)
        support[b].add(g)
        incident[a].append((si, first))
        incident[b].append((si, first - r - 1))
        if r == -1:  # most letters of a random word: skip building a chain
            regions.append((first, r, (a, b)))
            continue
        # the interior roots are the ids of the cups above the last, label_b
        inner = list(map(circle_of.__getitem__, range(first * n + 1, label_b, n)))
        for cid in inner:
            circles[cid] = StateCircle(cid, 0, single[g], CircleClass.SMALL_INNER)
        regions.append((first, r, (a, *inner, b)))
    for cid, turns in winding.items():
        columns = support[cid]
        circles[cid] = StateCircle(
            cid, turns, frozenset(columns), _klass(columns, turns, incident[cid])
        )
    return AllAState(word, tuple(circles), tuple(regions))


def _klass(
    support: set[int], winding: int, incident: list[tuple[int, int] | None]
) -> CircleClass:
    """The circle taxonomy, in order: empty support is nonwandering; support
    meeting two or more columns wanders (essential iff winding 1);
    single-column support is a small inner circle when its only two incident
    segments are the vertical segments of consecutive crossings in one
    negative syllable (``incident`` holds (syllable, crossing) per vertical
    segment and None for horizontal ones), else medium inner when
    contractible, else unclassified."""
    if not support:
        return CircleClass.NONWANDERING
    if len(support) >= 2:
        if winding == 1:
            return CircleClass.ESSENTIAL_WANDERING
        return CircleClass.NON_ESSENTIAL_WANDERING
    if len(incident) == 2 and None not in incident:
        (syllable, crossing), (other, next_crossing) = incident
        if syllable == other and abs(crossing - next_crossing) == 1:
            return CircleClass.SMALL_INNER
    if winding == 0:
        return CircleClass.MEDIUM_INNER
    return CircleClass.UNCLASSIFIED


def classify_circles(state: AllAState) -> AllAState:
    """Return ``state`` unchanged: :func:`resolve_all_A` classifies every
    circle where it traces it.  Kept only because the perfbench traced
    replay (``perfbench/spans.py``) still times this call; it goes when that
    replay changes."""
    return state


def is_A_adequate(state: AllAState) -> bool:
    """No A-segment joins a circle to itself: no pair region has a = b."""
    return state._graph[0]


def satisfies_TELC(state: AllAState) -> bool:
    """The two-edge loop condition.

    Every set of two or more segments joining the same circle pair must come
    from a single positive syllable (the parallel rungs of a short twist
    region); two vertical segments of a long region landing on one pair
    violate it.  Per region: no two pair regions join the same two circles,
    and no r = -2 chain closes on one circle.
    """
    return state._graph[1]


def twist_counts(word: SyllableWord) -> tuple[int, int, int]:
    """(t, t_plus, t_minus) for a cyclically reduced word.

    Syllables of the reduced form are exactly the twist regions of the
    closure diagram, short (positive) or long (negative).
    """
    if not word.cyclically_reduced:
        raise PreconditionError("twist counts need a cyclically reduced word")
    t_plus = sum(1 for _, r in word.syllables if r > 0)
    t_minus = len(word.syllables) - t_plus
    return len(word.syllables), t_plus, t_minus


def is_connected_closure(word: SyllableWord) -> bool:
    """Whether the closure diagram is connected: every generator occurs."""
    used = {m for m, _ in word.syllables}
    return all(g in used for g in range(1, word.n))


def reduced_graph(state: AllAState) -> ReducedStateGraph:
    """Collapse parallel A-segments; vertices are the state circles."""
    v = len(state.circles)
    e = state._graph[2]
    return ReducedStateGraph(v, e, e - v, state.crossings)
