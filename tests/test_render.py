"""SVG rendering: structure, determinism, pinned bytes, and class styling."""

import hashlib
import xml.etree.ElementTree as ET

import pytest

from braidvol.errors import OracleError
from braidvol.generate import GeneratorSpec, generate_words
from braidvol.render import CLASS_COLORS, render_state_svg
from braidvol.states import AllAState, CircleClass, resolve_all_A
from braidvol.words import SyllableWord

from conftest import ladder, word_of

SVG = "{http://www.w3.org/2000/svg}"


def generated(n, syllables, seed):
    return generate_words(GeneratorSpec(n=n, syllable_count=syllables, seed=seed))[0]


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
        # family words from the earlier shuffle-and-insert generator, kept as
        # literals: boundary-positive blocks at n = 4 and 5, an
        # interior-positive block s4 at n = 8
        (
            SyllableWord(
                4,
                ((1, -5), (2, -3), (3, 2), (2, -5), (3, -3), (1, -7), (2, -5), (3, -6)),
            ),
            "ec6482942f8a211781afc3c8ac97b853f3865f4f5477e5dcb42ef3705598a4cd",
        ),
        (
            SyllableWord(
                5,
                (
                    (1, -4), (2, -3), (1, 3), (2, -4), (3, -7),
                    (4, -8), (1, -3), (2, -4), (3, -4), (4, -3),
                ),
            ),
            "cb39bff48211d359d2946aa20c5c66cd18a1675ee0c9156dd517becf2e1e2e4f",
        ),
        (
            SyllableWord(
                8,
                (
                    (1, -3), (3, -6), (5, -4), (4, 1), (3, -6), (5, -3), (2, -3),
                    (3, -5), (4, -6), (5, -4), (6, -4), (7, -3), (1, -3), (2, -4),
                    (3, -7), (4, -3), (5, -6), (6, -3), (7, -3),
                ),
            ),
            "a55f096cb4bd2b1cb2f6741312c574ac65d6395998cdf01a37806f72ad2385dd",
        ),
        # an interior-positive block at n = 5, written by hand
        (
            word_of("s3^2 s2^-3 s4^-3 s3^-4 s2^-3 s4^-4 s1^-3", 5),
            "31d63b8790a52cf184b76e685797a091a190d1e6dc00afcba25d120823c76f78",
        ),
        # unreduced: two adjacent syllables of one generator
        (
            SyllableWord(3, ((1, -3), (1, -2), (2, -3))),
            "c0162ad6b038bb6c469901be1022652676a46f97a1ca111ad20cf15e1b5e63fb",
        ),
        # a small circle that wraps through the closure
        (
            SyllableWord(2, ((1, -2),)),
            "d313412b98900cdd1eaf6b6c57e3502a7fa32edea46cf99b57f3826ee68ac295",
        ),
        (
            SyllableWord(1, ()),
            "5dde6fdbeb7309ac956654506eaaa0e3466b738d8ede735cb07eed4daeec7ff7",
        ),
        # generated family words: all negative at n = 4 and 5 (two base
        # sweeps and lone negatives), an interior-positive block s3 at n = 8
        (
            generated(4, 8, 23),
            "a55c5263521a93a72048402a295942743fbf2249de5e051204acc06fd38cad40",
        ),
        (
            generated(5, 10, 15),
            "c2b9a16e19e146e28cc74e0b86de682025cb24f9673b0cf3389bf9c9fafabe62",
        ),
        (
            generated(8, 19, 149),
            "b03c82604bfa335a7a73477bb9fbc167fa5b239129f62a2f83e85db55f33ad91",
        ),
    ],
)
def test_svg_bytes_are_pinned(word, digest):
    # the SHA-256 of the whole document: any change to a coordinate, to the
    # order of circles or arcs, or to the markup shows up here
    _, svg = rendered(word)
    assert hashlib.sha256(svg.encode()).hexdigest() == digest


def test_circle_list_that_disagrees_with_the_arcs_is_refused():
    # a state whose last piece (a boundary circle or a run of small inner
    # circles) is dropped lists fewer circles than the arcs close into
    state, _ = rendered(ladder(2))
    short = AllAState(state.word, state.pieces[:-1], state.regions)
    assert len(short.circles) < len(state.circles)
    with pytest.raises(OracleError):
        render_state_svg(short)


def test_every_class_color_is_a_hex_triplet():
    assert set(CLASS_COLORS) == set(CircleClass)
    for color in CLASS_COLORS.values():
        assert color.startswith("#") and len(color) == 7
        int(color[1:], 16)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
