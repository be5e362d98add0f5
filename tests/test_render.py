"""SVG rendering: structure, determinism, pinned bytes, and class styling."""

import hashlib
import xml.etree.ElementTree as ET
from dataclasses import replace

import pytest

from braidvol.errors import OracleError
from braidvol.render import CLASS_COLORS, render_state_svg
from braidvol.states import CircleClass, resolve_all_A
from braidvol.words import SyllableWord

from conftest import ladder, word_of

SVG = "{http://www.w3.org/2000/svg}"


def rendered(word):
    state = resolve_all_A(word)
    return state, render_state_svg(state)


def test_output_is_well_formed_xml():
    _, svg = rendered(ladder(2))
    root = ET.fromstring(svg)
    assert root.tag == f"{SVG}svg"
    assert root.get("viewBox") == f'0 0 {root.get("width")} {root.get("height")}'


def test_empty_two_strand_word_gives_two_nested_circles():
    _, svg = rendered(SyllableWord(2, ()))
    root = ET.fromstring(svg)
    assert len(root.findall(f"{SVG}path")) == 2
    assert len(root.findall(f"{SVG}line")) == 0


def test_negative_ladder_census():
    state, svg = rendered(SyllableWord(3, ((1, -3), (2, -3))))
    root = ET.fromstring(svg)
    assert len(root.findall(f"{SVG}path")) == 5 == len(state.circles)
    assert len(root.findall(f"{SVG}line")) == 6


def test_positive_word_census():
    _, svg = rendered(SyllableWord(2, ((1, 3),)))
    root = ET.fromstring(svg)
    assert len(root.findall(f"{SVG}path")) == 2
    assert len(root.findall(f"{SVG}line")) == 3


def test_paths_carry_ids_classes_and_colors():
    state, svg = rendered(ladder(2))
    root = ET.fromstring(svg)
    paths = root.findall(f"{SVG}path")
    assert [p.get("id") for p in paths] == [
        f"circle-{c.id}" for c in state.circles
    ]
    for path, circle in zip(paths, state.circles):
        assert path.get("class") == circle.klass.value
        assert path.get("stroke") == CLASS_COLORS[circle.klass]
        assert path.get("fill") == "none"
        assert path.get("d", "").startswith("M ")
        assert path.get("d", "").endswith("Z")
    seen = {p.get("class") for p in paths}
    assert CircleClass.SMALL_INNER.value in seen
    assert CircleClass.ESSENTIAL_WANDERING.value in seen


def test_segments_are_dashed_lines():
    _, svg = rendered(SyllableWord(3, ((1, 3), (2, -3), (1, 2), (2, -4))))
    root = ET.fromstring(svg)
    lines = root.findall(f"{SVG}line")
    assert len(lines) == 12  # one per letter
    for line in lines:
        assert line.get("stroke-dasharray")


def test_background_rect_is_white():
    _, svg = rendered(ladder(1))
    rect = ET.fromstring(svg).find(f"{SVG}rect")
    assert rect is not None
    assert rect.get("fill") == "white"


def test_rendering_is_deterministic():
    word = SyllableWord(3, ((1, 3), (2, -3), (1, 2), (2, -4)))
    _, first = rendered(word)
    _, second = rendered(word)
    assert first == second


@pytest.mark.parametrize(
    "word, digest",
    [
        (ladder(2), "6d8c779ef4981d20ece49bdbf45d22e9c9473a56b2dbde8afe536196f893703c"),
        (
            word_of("s1^3 s2^-3 s1^2 s2^-4"),
            "5fb8cb3ce5d900922f7e1f24e79f6c9dae11126b6fae8ce4fe1c8a38ca0216ee",
        ),
    ],
)
def test_svg_bytes_are_pinned(word, digest):
    # the SHA-256 of the whole document: any change to a coordinate, to the
    # order of circles or arcs, or to the markup shows up here
    _, svg = rendered(word)
    assert hashlib.sha256(svg.encode()).hexdigest() == digest


def test_circle_list_that_disagrees_with_the_arcs_is_refused():
    state, _ = rendered(ladder(2))
    with pytest.raises(OracleError):
        render_state_svg(replace(state, circles=state.circles[:-1]))


def test_every_class_color_is_a_hex_triplet():
    assert set(CLASS_COLORS) == set(CircleClass)
    for color in CLASS_COLORS.values():
        assert color.startswith("#") and len(color) == 7
        int(color[1:], 16)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
