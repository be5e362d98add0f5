"""Deterministic SVG pictures of all-A states.

Strand columns sit at a fixed x-pitch, letters at a fixed y-pitch, and the
n closure arcs nest around the right side of the braid box (column n
innermost).  Every state circle becomes one closed ``<path>`` stroked in its
class color, drawn by walking plain arc ids (numbered by
:func:`~braidvol.states.arc_table`) from grid point to grid point; every
A-segment becomes one dashed line, read from its twist region.  Coordinates
are pure integers, so output is byte-identical for a given word.
"""

from __future__ import annotations

from collections.abc import Iterator

from .errors import OracleError
from .states import CAP, CLOSURE, PASS, AllAState, CircleClass, arc_table
from .words import require_input_limits

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


def _arc_path(
    kind: int, column: int, level: int, reverse: int, n: int, c: int, y0: int
) -> str:
    """Path commands for one arc, entry point excluded (already current);
    ``reverse`` is 1 when the arc is walked from its second end."""

    def y_of(level: int) -> int:
        return y0 + level * YPITCH

    if kind == PASS:
        return f"L {_column_x(column)} {y_of(level + (0 if reverse else 1))}"
    if kind != CLOSURE:
        xa, xb = _column_x(column), _column_x(column + 1)
        if kind == CAP:
            y = y_of(level)
            ctrl = y + BULGE
        else:
            y = y_of(level + 1)
            ctrl = y - BULGE
        target = xa if reverse else xb
        return f"Q {(xa + xb) // 2} {ctrl} {target} {y}"
    # closure arc: around the right side, bottom to top (or reversed)
    x = _column_x(column)
    off = NEST * (n - column + 1)
    xr = _column_x(n) + off
    yb = y_of(c) + off
    yt = y0 - off
    corners = [(x, yb), (xr, yb), (xr, yt), (x, yt), (x, y0)]
    if reverse:
        corners = [(x, yt), (xr, yt), (xr, yb), (x, yb), (x, y_of(c))]
    return " ".join(f"L {px} {py}" for px, py in corners)


def _walk_circles(ends: list[int]) -> Iterator[list[int]]:
    """Each circle as the arc ends it enters its arcs by, in walking order.

    Arc end ``2 * id + e`` is end e of arc ``id``, at grid point
    ``ends[2 * id + e]``; a walk that enters by end 1 runs the arc
    backwards.  A walk starts at the smallest arc not yet walked, from its
    first end, so the walks come out in the circle order of
    ``resolve_all_A``.
    """
    # the two arc ends at grid point p are slots[2 * p] and slots[2 * p + 1]
    slots = sorted(range(len(ends)), key=ends.__getitem__)
    walked = bytearray(len(ends) // 2)
    for start in range(len(walked)):
        if walked[start]:
            continue
        walk, entry = [], 2 * start
        while not walk or entry != 2 * start:
            walked[entry >> 1] = 1
            walk.append(entry)
            # leave by the other end, into the other arc end at that point
            leave = entry ^ 1
            point = 2 * ends[leave]
            entry = slots[point] + slots[point + 1] - leave
        yield walk


def render_state_svg(state: AllAState) -> str:
    """A self-contained SVG document for a state from ``resolve_all_A``.
    A state of a word past the input limits raises PreconditionError."""
    require_input_limits(state.word)
    n = state.n
    c = state.crossings
    y0 = 30 + n * NEST
    width = _column_x(n) + n * NEST + XMARGIN
    height = y0 + c * YPITCH + n * NEST + 30
    kinds, columns, levels, ends = arc_table(state.word)
    walks = list(_walk_circles(ends))
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
        # grid point ids are level * n + (column - 1), as in arc_table
        level, col0 = divmod(ends[walk[0]], n)
        pieces = [f"M {_column_x(col0 + 1)} {y0 + level * YPITCH}"]
        for entry in walk:
            a = entry >> 1
            pieces.append(
                _arc_path(kinds[a], columns[a], levels[a], entry & 1, n, c, y0)
            )
        color = CLASS_COLORS[circle.klass]
        parts.append(
            f'<path id="circle-{circle.id}" class="{circle.klass.value}"'
            f' d="{" ".join(pieces)} Z" fill="none" stroke="{color}"'
            ' stroke-width="2"/>'
        )
    crossing = 0
    for g, r in state.word.syllables:
        parts += [
            _segment_line(i, g, r > 0, y0) for i in range(crossing, crossing + abs(r))
        ]
        crossing += abs(r)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _segment_line(crossing: int, gen: int, positive: bool, y0: int) -> str:
    """The A-segment of a crossing: horizontal between the passes of a
    positive letter, vertical between the cap and cup of a negative one."""
    level_y = y0 + crossing * YPITCH
    xa, xb = _column_x(gen), _column_x(gen + 1)
    if positive:
        ym = level_y + YPITCH // 2
        x1, y1, x2, y2 = xa, ym, xb, ym
    else:
        xm = (xa + xb) // 2
        x1, y1 = xm, level_y + BULGE // 2
        x2, y2 = xm, level_y + YPITCH - BULGE // 2
    return (
        f'<line class="segment-{crossing}" x1="{x1}" y1="{y1}"'
        f' x2="{x2}" y2="{y2}" stroke="#495057" stroke-width="2"'
        ' stroke-dasharray="5 4"/>'
    )
