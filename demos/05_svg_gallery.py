"""
Rendering state diagrams to SVG
===============================

Circles are drawn in their class colors, A-segments as dashed lines, and
closure arcs nest around the right-hand side.  Output is deterministic:
the same word always yields byte-identical SVG.
"""

import pathlib

from braidvol.render import CLASS_COLORS, render_state_svg
from braidvol.states import resolve_all_A
from braidvol.words import SyllableWord

OUT = pathlib.Path(__file__).resolve().parent / "svg_out"
OUT.mkdir(exist_ok=True)

print("class colors:")
for klass, color in CLASS_COLORS.items():
    print(f"  {klass.value:<26} {color}")
print()

gallery = {
    "ladder": SyllableWord(3, ((1, -3), (2, -3), (1, -3), (2, -3))),
    "mixed": SyllableWord(3, ((1, 3), (2, -3), (1, 2), (2, -4))),
    "wide": SyllableWord(4, ((2, 2), (1, -3), (3, -3), (2, -4), (1, -3), (3, -4))),
    "unlink": SyllableWord(2, ()),
}

for name, word in gallery.items():
    state = resolve_all_A(word)
    svg = render_state_svg(state)
    path = OUT / f"{name}.svg"
    path.write_text(svg, encoding="utf-8")
    print(f"{name:<8} {len(state.circles)} circles -> {path.relative_to(OUT.parent)}")
