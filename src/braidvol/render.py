"""Deterministic SVG pictures of all-A states.

Strand columns sit at a fixed x-pitch, letters at a fixed y-pitch, and the
n closure arcs nest around the right side of the braid box (column n
innermost).  Every state circle becomes one closed ``<path>`` stroked in its
class color; every A-segment becomes one dashed line.  Coordinates are pure
integers, so output is byte-identical for a given word.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterator

from .errors import OracleError
from .states import (
    AllAState,
    Arc,
    ArcKind,
    CircleClass,
    Segment,
    SegmentOrientation,
)

__all__ = ["render_state_svg", "CLASS_COLORS"]

XPITCH = 60
YPITCH = 44
NEST = 18
XMARGIN = 40
BULGE = 24  # control-point depth of cap/cup bezier; apex is half of it

CLASS_COLORS: dict[CircleClass, str] = {
    CircleClass.SMALL_INNER: "#2b8a3e",
    CircleClass.MEDIUM_INNER: "#1971c2",
    CircleClass.ESSENTIAL_WANDERING: "#e8590c",
    CircleClass.NON_ESSENTIAL_WANDERING: "#f08c00",
    CircleClass.NONWANDERING: "#9c36b5",
    CircleClass.UNCLASSIFIED: "#868e96",
}


def _column_x(col: int) -> int:
    return XMARGIN + (col - 1) * XPITCH


def _arc_path(arc: Arc, reverse: bool, n: int, c: int, y0: int) -> str:
    """Path commands for one arc, entry point excluded (already current)."""

    def y_of(level: int) -> int:
        return y0 + level * YPITCH

    if arc.kind is ArcKind.PASS:
        level = arc.level + (0 if reverse else 1)
        return f"L {_column_x(arc.column)} {y_of(level)}"
    if arc.kind in (ArcKind.CAP, ArcKind.CUP):
        xa, xb = _column_x(arc.column), _column_x(arc.column + 1)
        if arc.kind is ArcKind.CAP:
            y = y_of(arc.level)
            ctrl = y + BULGE
        else:
            y = y_of(arc.level + 1)
            ctrl = y - BULGE
        target = xa if reverse else xb
        return f"Q {(xa + xb) // 2} {ctrl} {target} {y}"
    # closure arc: around the right side, bottom to top (or reversed)
    x = _column_x(arc.column)
    off = NEST * (n - arc.column + 1)
    xr = _column_x(n) + off
    yb = y_of(c) + off
    yt = y0 - off
    corners = [(x, yb), (xr, yb), (xr, yt), (x, yt), (x, y0)]
    if reverse:
        corners = [(x, yt), (xr, yt), (xr, yb), (x, yb), (x, y_of(c))]
    return " ".join(f"L {px} {py}" for px, py in corners)


def _walk_circles(arcs: tuple[Arc, ...]) -> Iterator[list[tuple[Arc, bool]]]:
    """Each circle's arcs in walking order, flagged when walked backwards.

    A walk starts at the smallest arc not yet walked, from its first end, so
    the walks come out in the circle order of ``resolve_all_A``.
    """
    incident: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for arc in arcs:
        for end in (0, 1):
            incident[arc.ends[end]].append((arc.id, end))
    walked: set[int] = set()
    for start in arcs:
        if start.id in walked:
            continue
        walk, entry = [], (start.id, 0)
        while not walk or entry != (start.id, 0):
            arc = arcs[entry[0]]
            walked.add(arc.id)
            walk.append((arc, entry[1] == 1))
            # leave by the other end, into the other arc end at that point
            leave = (arc.id, 1 - entry[1])
            first, second = incident[arc.ends[leave[1]]]
            entry = second if first == leave else first
        yield walk


def render_state_svg(state: AllAState) -> str:
    """A self-contained SVG document for a traced (ideally classified) state."""
    n = state.n
    c = state.crossings
    y0 = 30 + n * NEST
    width = _column_x(n) + n * NEST + XMARGIN
    height = y0 + c * YPITCH + n * NEST + 30
    walks = list(_walk_circles(state.arcs))
    if len(walks) != len(state.circles):
        raise OracleError(
            f"arcs close into {len(walks)} circles, state has {len(state.circles)}"
        )
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}"'
        f' height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for circle, walk in zip(state.circles, walks):
        # grid point ids are level * n + (column - 1), as in AllAState.arcs
        level, col0 = divmod(walk[0][0].ends[0], n)
        pieces = [f"M {_column_x(col0 + 1)} {y0 + level * YPITCH}"]
        pieces += [_arc_path(arc, reverse, n, c, y0) for arc, reverse in walk]
        color = CLASS_COLORS[circle.klass]
        parts.append(
            f'<path id="circle-{circle.id}" class="{circle.klass.value}"'
            f' d="{" ".join(pieces)} Z" fill="none" stroke="{color}"'
            ' stroke-width="2"/>'
        )
    for seg in state.segments:
        parts.append(_segment_line(state, seg, y0))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _segment_line(state: AllAState, seg: Segment, y0: int) -> str:
    level_y = y0 + seg.crossing * YPITCH
    # recover the generator column from the syllable the segment came from
    gen, _ = state.word.syllables[seg.syllable]
    xa, xb = _column_x(gen), _column_x(gen + 1)
    if seg.orientation is SegmentOrientation.HORIZONTAL:
        ym = level_y + YPITCH // 2
        x1, y1, x2, y2 = xa, ym, xb, ym
    else:
        xm = (xa + xb) // 2
        x1, y1 = xm, level_y + BULGE // 2
        x2, y2 = xm, level_y + YPITCH - BULGE // 2
    return (
        f'<line class="segment-{seg.crossing}" x1="{x1}" y1="{y1}"'
        f' x2="{x2}" y2="{y2}" stroke="#495057" stroke-width="2"'
        ' stroke-dasharray="5 4"/>'
    )
