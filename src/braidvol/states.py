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
syllable at a time: a union-find (Tarjan, 1975) on flat lists joins compact
nodes, one per column's top label and one per negative syllable's last
cup, once per twist region.  A second pass over the syllables numbers the
circles, records each region and classifies each boundary circle (one that
leaves its syllable); no dict is keyed by arc id.  It reads the census and
the reduced graph as it goes, and the state keeps both.  The small circles
stacked inside a negative region, almost every circle of a long family
word, get no node and are never traced one by one: the state keeps them as
runs of consecutive ids, the census counts them as the ids no boundary
circle takes, and ``analyze``'s circle detail and the ``batch`` line read
each run in one piece.  A circle is a :class:`StateCircle` named tuple;
:attr:`AllAState.circles` builds the full tuple of circles from the runs
only when it is read (by the SVG renderer, the demos, the tests and the
perfbench traced replay).  The state keeps
one record per twist region and builds no object per crossing or per arc.
The arcs are numbered once, by :func:`arc_table`, which the sweep names
its nodes by and the SVG renderer walks.

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
polynomial", 2013), as the trace records them (see
:attr:`AllAState.regions`).
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from typing import NamedTuple

from .errors import PreconditionError
from .words import SyllableWord, _immutable

__all__ = [
    "CircleClass",
    "StateCircle",
    "AllAState",
    "ReducedStateGraph",
    "resolve_all_A",
    "arc_table",
    "PASS",
    "CAP",
    "CUP",
    "CLOSURE",
    "classify_circles",
    "is_A_adequate",
    "satisfies_TELC",
    "twist_counts",
    "is_connected_closure",
    "is_prime_closure",
    "reduced_graph",
]


class CircleClass(str, Enum):
    SMALL_INNER = "small_inner"
    MEDIUM_INNER = "medium_inner"
    ESSENTIAL_WANDERING = "essential_wandering"
    NON_ESSENTIAL_WANDERING = "non_essential_wandering"
    NONWANDERING = "nonwandering"
    UNCLASSIFIED = "unclassified"


# the members in order: dict.fromkeys over this tuple skips the Enum's
# Python-level iteration
_CLASSES = tuple(CircleClass)


class StateCircle(NamedTuple):
    """A state circle: its id (circles are numbered by their smallest arc
    ids), winding (the absolute homology degree around the annulus, 0 or 1
    for an embedded circle), support (the columns of its caps and cups) and
    class.  An immutable named tuple ``(id, winding, support, klass)``: it
    compares and hashes by value, unpacks like a tuple, and ``_replace``
    returns a changed copy."""

    id: int
    winding: int
    support: frozenset[int]
    klass: CircleClass


class ReducedStateGraph(NamedTuple):
    """The state graph after collapsing parallel edges."""

    vertices: int
    edges: int
    neg_chi: int  # e - v, the negative Euler characteristic
    unreduced_edges: int


class _AllAStateFields(NamedTuple):
    word: SyllableWord
    pieces: tuple[StateCircle | tuple[int, int, int], ...]
    regions: tuple[tuple[int, int, tuple[int, int]], ...]


class AllAState(_AllAStateFields):
    """The full all-A state of one closed-braid diagram, one record per
    twist region; no per-crossing, per-arc or per-small-circle object is
    built.

    ``pieces`` lists the circles in id order.  A boundary circle is a
    :class:`StateCircle`; the small inner circles stacked inside a negative
    twist region sigma_g^r (r <= -2) are kept as runs ``(first, count, g)``
    of consecutive ids, all small inner of support {g} and winding 0.  A
    region's |r| - 1 inner circles form one run, or several where the ids
    of boundary circles fall between them.  :attr:`circles` expands the
    pieces into one tuple of circles, built only when it is read.

    ``regions[i]`` describes syllable ``i`` as ``(first, r, (a, b))``: its
    first crossing, its exponent and the two boundary circles it joins.  A
    positive syllable or a lone negative letter (r = -1) joins the pair
    ``(a, b)`` with each of its segments.  A longer negative syllable
    chains its segments from ``a``, its first cap's circle, down through
    its |r| - 1 inner circles, in id order, to ``b``, its last cup's
    circle: in the chain ``a, inner..., b`` its i-th segment joins the i-th
    circle to the (i + 1)-th.

    An immutable named tuple ``(word, pieces, regions)``: it compares and
    hashes by these three fields, and ``_replace`` returns a changed copy.
    The instance ``__dict__`` holds only the cached properties; setting any
    attribute raises AttributeError.
    """

    __setattr__ = __delattr__ = _immutable

    @classmethod
    def _traced(cls, fields: tuple, graph: tuple, counts: dict) -> AllAState:
        """``AllAState(*fields)`` holding the ``_graph`` and ``_counts`` that
        :func:`resolve_all_A` read as it traced, where the cached properties
        keep them."""
        state = tuple.__new__(cls, fields)
        vars(state).update(_graph=graph, _counts=counts)
        return state

    @property
    def arcs(self) -> range:
        """The arc ids, ``range((crossings + 1) * n)`` (see :func:`arc_table`).
        Kept only because the perfbench traced replay
        (``perfbench/spans.py``) counts them; it goes when that replay
        changes."""
        return range((self.crossings + 1) * self.n)

    @property
    def n(self) -> int:
        return self.word.n

    @property
    def crossings(self) -> int:
        return self.word.crossings

    @cached_property
    def circles(self) -> tuple[StateCircle, ...]:
        """Every circle in id order, the runs expanded.  Read by the SVG
        renderer, the demos, the tests and the perfbench traced replay;
        ``analyze``, ``analyze_line`` and ``verify`` read the pieces and
        never build it.  The small inner circles are built as
        ``tuple.__new__(StateCircle, ...)`` over their four fields, skipping
        the named tuple's Python-level ``__new__``; those of one run share
        one ``frozenset({g})``."""
        new_tuple, small_inner = tuple.__new__, CircleClass.SMALL_INNER
        circles: list[StateCircle] = []
        for piece in self.pieces:
            if type(piece) is StateCircle:
                circles.append(piece)
                continue
            first, count, g = piece
            support = frozenset((g,))
            circles += [
                new_tuple(StateCircle, (cid, 0, support, small_inner))
                for cid in range(first, first + count)
            ]
        return tuple(circles)

    @cached_property
    def _graph(self) -> tuple[bool, bool, int]:
        """(A-adequate, TELC, reduced edge count), read in one pass over the
        regions: the reference for the one :func:`resolve_all_A` reads as it
        records them.  A chain's segments all meet one of its inner circles,
        which no other region meets, so a chain never self-joins and its
        pairs are its own; they are |r| distinct pairs, except that an
        r = -2 chain with a = b runs both segments between the same two
        circles, a two-edge loop of a negative region.  The pair regions
        self-join when a = b, and share a pair exactly when two of them
        join the same two circles."""
        adequate, telc, chain_edges = True, True, 0
        pairs = set()
        pair_regions = 0
        for _, r, (a, b) in self.regions:
            if r >= -1:
                adequate = adequate and a != b
                pairs.add((a, b) if a <= b else (b, a))
                pair_regions += 1
            else:
                chain_edges -= r
                if r == -2 and a == b:
                    telc = False
                    chain_edges -= 1
        telc = telc and len(pairs) == pair_regions
        return adequate, telc, len(pairs) + chain_edges

    @cached_property
    def _counts(self) -> dict[CircleClass, int]:
        """The census, in :class:`CircleClass` order, from the pieces: the
        reference for the one :func:`resolve_all_A` counts as it traces."""
        counts = dict.fromkeys(_CLASSES, 0)
        for piece in self.pieces:
            if type(piece) is StateCircle:
                counts[piece.klass] += 1
            else:
                counts[CircleClass.SMALL_INNER] += piece[1]
        return counts

    @property
    def census(self) -> dict[CircleClass, int]:
        """The number of circles of each class, counted once per state;
        each call returns a fresh copy."""
        return dict(self._counts)

    @property
    def m(self) -> int:
        """Number of nonessential wandering circles."""
        return self._counts[CircleClass.NON_ESSENTIAL_WANDERING]


PASS, CAP, CUP, CLOSURE = range(4)  # the arc kinds of arc_table


def arc_table(
    word: SyllableWord,
) -> tuple[bytearray, list[int], list[int], list[int]]:
    """The arcs of the all-A state by id, as flat columns
    ``(kinds, columns, levels, ends)``.

    Letter i owns ids i*n ... i*n + n - 1: its cap and cup when negative,
    then its passes by column; the n closure arcs come last.  ``kinds``
    holds :data:`PASS`, :data:`CAP`, :data:`CUP` or :data:`CLOSURE`;
    ``columns``
    holds the generator of a cap or cup and the strand position of a pass
    or closure arc; ``levels`` holds the letter, or -1 for a closure arc.
    Grid point level * n + column - 1 sits above letter ``level``, and arc
    ``id`` runs from grid point ``ends[2 * id]`` to ``ends[2 * id + 1]``:
    left to right along a cap or cup, down a pass, and from the bottom of
    the braid up to its top along a closure arc.  Every grid point ends
    exactly two arcs.  :func:`resolve_all_A` names its nodes by these ids.
    """
    n = word.n
    kinds, columns, levels, ends = bytearray(), [], [], []
    level = 0
    for g, r in word.syllables:
        passes = [col for col in range(1, n + 1) if r > 0 or not g <= col <= g + 1]
        letter_kinds = bytes([PASS] * n if r > 0 else [CAP, CUP] + [PASS] * (n - 2))
        letter_columns = passes if r > 0 else [g, g, *passes]
        # the letter's ends, less level * n - 1
        offsets = [] if r > 0 else [g, g + 1, n + g, n + g + 1]
        for col in passes:
            offsets += (col, n + col)
        for _ in range(abs(r)):
            kinds += letter_kinds
            columns += letter_columns
            levels += [level] * n
            top = level * n - 1
            ends += [top + offset for offset in offsets]
            level += 1
    kinds += bytes([CLOSURE] * n)
    columns += range(1, n + 1)
    levels += [-1] * n
    for col in range(n):
        ends += (level * n + col, col)
    return kinds, columns, levels, ends


def resolve_all_A(word: SyllableWord) -> AllAState:
    """Smooth every crossing the A-way and trace the state circles.

    One sweep down the braid does its work one syllable at a time, with a
    union-find (Tarjan, 1975) on flat lists over compact node ids: node j
    < n is column j's top label, and each negative syllable adds one node,
    its last cup.  A node is named by an arc id (see :func:`arc_table`) and
    a union keeps the root with the smaller name, so every circle's root
    is named by its smallest arc and circles are numbered in arc order.
    Find (with path halving) and union are written out where they run, and
    the sweep keeps each syllable's first crossing and two nodes in three
    flat lists.
    A positive syllable leaves every column's node where it was, so its
    segments all join one node pair.  A negative syllable sigma_g^-k
    unions the nodes of columns g and g+1 once (its first cap) and puts its
    cup node on both; the k - 1 circles in between, each the cup of one
    letter and the cap of the next, close inside the syllable as small
    inner circles of support {g} and winding 0.  They get no node: named
    by their cups, ids first * n + 1 + j * n, they are kept as a run
    ``(first id, k - 1, g)``.  The closure unions each column's bottom
    node with its top node.

    One more pass over the syllables does the rest, in arc order.  The
    roots of the boundary circles, O(t + n) of them, are sorted by name; a
    syllable numbers its runs and every root named by an arc of its
    letters or above, in id order, so a run splits where a root falls
    between two of its cups (see :attr:`AllAState.pieces`).  It then
    records its two boundary circles (see :attr:`AllAState.regions`), adds
    to their support and region ends, and reads A-adequacy, TELC and the
    reduced edge count by the rules of ``AllAState._graph``.  Winding is
    the parity of a circle's closure arcs.  Every per-node value is a list
    indexed by node, so no dict is keyed by arc id, and every boundary
    circle is built once, already classified (see :func:`_klass`) and
    counted in the census, as ``tuple.__new__(StateCircle, ...)`` over its
    four fields; any syllable word works.
    No per-crossing, per-arc or per-small-circle object is built, and the
    state keeps the census and graph values it read (see
    ``AllAState._traced``), so :func:`reduced_graph`, the predicates,
    ``m`` and ``census`` walk nothing again.
    """
    n = word.n
    # node j is column j's top label, named by the first letter's arc in that
    # column: the cap, or a pass after a negative letter's cap and cup; g = 0
    # names every column's pass (or, for the empty word, its closure arc) j
    g = word.syllables[0][0] if word.syllables and word.syllables[0][1] < 0 else 0
    name = [j + 2 if j < g - 1 else 0 if j <= g else j for j in range(n)]
    parent = list(range(n))
    labels = list(range(n))  # each column's live node
    # per syllable: its first crossing and two nodes, the pair it joins when
    # positive, the first cap's and the last cup's when negative
    firsts: list[int] = []
    lefts: list[int] = []
    rights: list[int] = []
    crossing = 0
    for g, r in word.syllables:
        a = labels[g - 1]
        firsts.append(crossing)
        lefts.append(a)
        if r > 0:
            rights.append(labels[g])
            crossing += r
            continue
        cup = len(parent)
        rights.append(cup)
        b = labels[g]
        while (up := parent[a]) != a:
            parent[a] = a = parent[up]
        while (up := parent[b]) != b:
            parent[b] = b = parent[up]
        if name[b] < name[a]:
            a, b = b, a
        parent[b] = a
        labels[g - 1] = labels[g] = cup
        parent.append(cup)
        crossing -= r
        name.append((crossing - 1) * n + 1)
    for top, bottom in enumerate(labels):
        a, b = bottom, top
        while (up := parent[a]) != a:
            parent[a] = a = parent[up]
        while (up := parent[b]) != b:
            parent[b] = b = parent[up]
        if name[b] < name[a]:
            a, b = b, a
        parent[b] = a

    size = len(parent)
    root = []
    for node in range(size):
        a = node
        while (up := parent[a]) != a:
            parent[a] = a = parent[up]
        root.append(a)
    roots = [node for node, up in enumerate(root) if node == up]
    roots.sort(key=name.__getitem__)
    bounds = [name[node] for node in roots]
    bounds.append((crossing + 1) * n)  # past every arc id
    # per root: its circle's id, winding, support and region ends
    circle_id = [0] * size
    winding = [0] * size
    for top in range(n):
        winding[root[top]] ^= 1
    support: list[set[int] | None] = [None] * size
    for node in roots:
        support[node] = set()
    ends = [0] * size
    wraps = set()  # roots that both ends of one r = -2 region land on
    order: list[int | tuple[int, int, int]] = []  # roots and runs, in id order
    regions: list[tuple[int, int, tuple[int, int]]] = []
    pairs = []  # the pair regions' roots, for AllAState._graph
    adequate, chain_edges = True, 0
    cid = i = 0
    for (g, r), first, a, b in zip(word.syllables, firsts, lefts, rights):
        # the inner circles' cups run from first * n + 1 in steps of n up to
        # the last cup, which is not one of them; a positive syllable has none
        inner = first * n + 1
        last = inner - (r + 1) * n if r < 0 else inner
        # every root named by an arc down to this syllable's last letter,
        # each after the inner circles below it
        while bounds[i] < (first + abs(r)) * n:
            count = (min(bounds[i], last) - inner - 1) // n + 1
            if count > 0:
                order.append((cid, count, g))
                cid, inner = cid + count, inner + count * n
            circle_id[roots[i]] = cid
            order.append(roots[i])
            cid, i = cid + 1, i + 1
        if inner < last:
            count = (last - inner) // n
            order.append((cid, count, g))
            cid += count
        a, b = root[a], root[b]
        regions.append((first, r, (circle_id[a], circle_id[b])))
        ends[a] += 1
        ends[b] += 1
        if r < 0:
            support[a].add(g)
            support[b].add(g)
            if r < -1:
                chain_edges -= r
                if r == -2 and a == b:
                    wraps.add(a)
                    chain_edges -= 1
                continue
        adequate = adequate and a != b
        pairs.append((a, b) if a <= b else (b, a))
    # roots are left only for the empty word: its n closure arcs
    for node in roots[i:]:
        circle_id[node] = cid
        order.append(node)
        cid += 1

    # each boundary circle as its four fields, already classified, through
    # tuple.__new__ as AllAState.circles builds the small inner ones; the
    # ids that are not boundary circles are the runs' small inner circles
    new_tuple = tuple.__new__
    counts = dict.fromkeys(_CLASSES, 0)
    counts[CircleClass.SMALL_INNER] = cid - len(roots)
    pieces = []
    for piece in order:
        if type(piece) is int:
            columns, turns = support[piece], winding[piece]
            klass = _klass(columns, turns, piece in wraps and ends[piece] == 2)
            counts[klass] += 1
            piece = new_tuple(
                StateCircle, (circle_id[piece], turns, frozenset(columns), klass)
            )
        pieces.append(piece)
    distinct = len(set(pairs))
    graph = adequate, not wraps and distinct == len(pairs), distinct + chain_edges
    return AllAState._traced((word, tuple(pieces), tuple(regions)), graph, counts)


def _klass(support: set[int], winding: int, wrapped: bool) -> CircleClass:
    """The circle taxonomy, in order: empty support is nonwandering; support
    meeting two or more columns wanders (essential iff winding 1);
    single-column support is a small inner circle when ``wrapped`` (the
    only region ends on the circle are both ends of one r = -2 region, so
    it closes between its two consecutive crossings through the closure),
    else medium inner when contractible, else unclassified."""
    if not support:
        return CircleClass.NONWANDERING
    if len(support) >= 2:
        if winding == 1:
            return CircleClass.ESSENTIAL_WANDERING
        return CircleClass.NON_ESSENTIAL_WANDERING
    if wrapped:
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


def is_prime_closure(word: SyllableWord) -> bool:
    """Whether the connected closure diagram is prime.  A circle meeting it
    twice with crossings on both sides must wind once around the braid axis
    (else the diagram, monotone around the axis, crosses the disk it bounds
    in one arc without crossings), so it runs between strands a and a + 1,
    then a + 1 and a + 2, for some a in 1..n - 2: it misses every crossing
    iff the syllables on generators a and a + 1, read cyclically, change
    generator only twice.  Prime iff each such pair changes >= 4 times."""
    generators = [g for g, _ in word.syllables]
    last, changes = [0] * (word.n + 1), [0] * (word.n + 1)
    for i, g in enumerate(generators * 2):  # count each change in lap two
        for a in (g - 1, g):  # the pairs (a, a + 1) that hold g
            changes[a] += last[a] != g and i >= len(generators)
            last[a] = g
    return min(changes[1 : word.n - 1], default=4) >= 4


def reduced_graph(state: AllAState) -> ReducedStateGraph:
    """Collapse parallel A-segments; vertices are the state circles,
    counted from the census."""
    v = sum(state._counts.values())
    e = state._graph[2]
    return ReducedStateGraph(v, e, e - v, state.crossings)
