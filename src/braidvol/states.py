"""The all-A Kauffman state of a closed braid diagram.

Draw the braid vertically, one letter per level, and close it in an annulus
with one closure arc per strand position.  The A-smoothing of a positive
letter keeps both strands passing straight through (two *pass* arcs) and
leaves a horizontal A-segment between them; the A-smoothing of a negative
letter joins the two strands above the crossing (a *cap*) and below it
(a *cup*), leaving a vertical A-segment between cap and cup.  Smoothing every
crossing turns the diagram into a disjoint union of embedded circles, the
state circles, each with a winding number 0 or 1 around the annulus core.
:func:`resolve_all_A` finds them by union-find (Tarjan, 1975) in one sweep
down the braid and classifies each as it is traced; only the SVG renderer
builds and walks the arcs.

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
e - v feeds every volume bound downstream.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from enum import Enum

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
    """The full all-A state of one closed-braid diagram; arcs built on demand."""

    word: SyllableWord
    circles: tuple[StateCircle, ...]
    segments: tuple[Segment, ...]

    @property
    def arcs(self) -> tuple[Arc, ...]:
        """Every arc, built on each call: letter i owns ids i*n ... i*n + n - 1
        (its cap and cup when negative, then its passes by column), the n
        closure arcs come last, and grid point level * n + column - 1 sits
        above letter ``level``.  :func:`resolve_all_A` relies on this order."""
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

    @property
    def census(self) -> dict[CircleClass, int]:
        counts = {klass: 0 for klass in CircleClass}
        for circle in self.circles:
            counts[circle.klass] += 1
        return counts

    @property
    def m(self) -> int:
        """Number of nonessential wandering circles."""
        return self.census[CircleClass.NON_ESSENTIAL_WANDERING]


def resolve_all_A(word: SyllableWord) -> AllAState:
    """Smooth every crossing the A-way and trace the state circles.

    One sweep down the braid keeps a union-find label per column: a negative
    letter unions columns g and g+1 (its cap) and gives both a fresh label
    (its cup); the closure unions each column's bottom and top labels.  A
    label is named by its smallest arc id (see :attr:`AllAState.arcs`) and a
    union keeps the smaller name, so sorted roots number the circles in arc
    order; winding is the parity of a circle's closure arcs.  The last loop
    maps each segment's labels to circles and gathers each circle's support
    and incident segments, so every circle is built once, already classified
    (see :func:`_klass`); any syllable word works.
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
    raw: list[tuple[int, SegmentOrientation, int, int]] = []  # one per letter
    for si, (g, r) in enumerate(word.syllables):
        for _ in range(abs(r)):
            if r > 0:
                ends = labels[g - 1], labels[g]
                orientation = SegmentOrientation.HORIZONTAL
            else:
                cup = len(raw) * n + 1
                ends = union(labels[g - 1], labels[g]), cup
                parent[cup] = labels[g - 1] = labels[g] = cup
                orientation = SegmentOrientation.VERTICAL
            raw.append((si, orientation, *ends))
    for bottom, label in zip(labels, top):
        union(bottom, label)

    roots = sorted({find(label) for label in parent})
    circle_of = {root: cid for cid, root in enumerate(roots)}
    winding = [0] * len(roots)  # the parity of each circle's closure arcs
    for label in top:
        winding[circle_of[find(label)]] ^= 1
    support: list[set[int]] = [set() for _ in roots]
    incident: list[list[Segment]] = [[] for _ in roots]
    segments = []
    for crossing, (si, orientation, a, b) in enumerate(raw):
        ends = circle_of[find(a)], circle_of[find(b)]
        seg = Segment(crossing, si, orientation, ends)
        segments.append(seg)
        for cid in set(ends):
            incident[cid].append(seg)
            if orientation is SegmentOrientation.VERTICAL:
                support[cid].add(word.syllables[si][0])
    circles = tuple(
        StateCircle(
            cid, winding[cid], frozenset(columns), _klass(columns, winding[cid], segs)
        )
        for cid, (columns, segs) in enumerate(zip(support, incident))
    )
    return AllAState(word, circles, tuple(segments))


def _klass(support: set[int], winding: int, segs: list[Segment]) -> CircleClass:
    """The circle taxonomy, in order: empty support is nonwandering; support
    meeting two or more columns wanders (essential iff winding 1);
    single-column support is a small inner circle when its only two incident
    segments are the vertical segments of consecutive crossings in one
    negative syllable, else medium inner when contractible, else
    unclassified."""
    if not support:
        return CircleClass.NONWANDERING
    if len(support) >= 2:
        if winding == 1:
            return CircleClass.ESSENTIAL_WANDERING
        return CircleClass.NON_ESSENTIAL_WANDERING
    if (
        len(segs) == 2
        and all(s.orientation is SegmentOrientation.VERTICAL for s in segs)
        and segs[0].syllable == segs[1].syllable
        and abs(segs[0].crossing - segs[1].crossing) == 1
    ):
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
    """No A-segment joins a circle to itself."""
    return all(a != b for a, b in (s.endpoints for s in state.segments))


def satisfies_TELC(state: AllAState) -> bool:
    """The two-edge loop condition.

    Every set of two or more segments joining the same circle pair must come
    from a single positive syllable (the parallel rungs of a short twist
    region); two vertical segments of a long region landing on one pair
    violate it.
    """
    groups: dict[tuple[int, int], list[Segment]] = defaultdict(list)
    for seg in state.segments:
        a, b = seg.endpoints
        groups[(a, b) if a <= b else (b, a)].append(seg)
    for group in groups.values():
        if len(group) < 2:
            continue
        if any(s.orientation is not SegmentOrientation.HORIZONTAL for s in group):
            return False
        if len({s.syllable for s in group}) != 1:
            return False
    return True


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
    pairs = {
        (a, b) if a <= b else (b, a)
        for a, b in (s.endpoints for s in state.segments)
    }
    v = len(state.circles)
    e = len(pairs)
    return ReducedStateGraph(v, e, e - v, len(state.segments))
