"""Conjugacy normal forms for 3-braids.

Covers the block sweep against a letter-level reference oracle (to_xy,
normalize_xy, to_sigma_form, kept here stage by stage), the
conjugacy-invariance properties of the normal form (rotation, free
insertion, braid relation), the direct-read shortcuts on family words, and
the hyperbolicity decision.
"""

import functools
import hashlib
import itertools
import json
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from braidvol import report, schreier
from braidvol.errors import PreconditionError
from braidvol.families import check_main_lemma
from braidvol.generate import GeneratorSpec, generate_words
from braidvol.schreier import (
    EtaKind,
    HyperbolicityResult,
    SchreierForm,
    XYWord,
    conjugate_3braids,
    direct_form,
    direct_read_k,
    direct_read_s,
    hyperbolicity_of_form,
    is_hyperbolic_closure_3braid,
    schreier_normal_form,
    to_xy,
)
from braidvol.words import SyllableWord, exponent_sum

from conftest import gated_3braids, ladder, word_from_letters, word_of

letters3_st = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=14)


def braid3(letters):
    return word_from_letters(letters, 3)


# --- the letter-level oracle ---------------------------------------------
# to_xy expands the word into xy runs, normalize_xy walks every run, and
# to_sigma_form reads the residue.  The block sweep in schreier.py must give
# the same form.

_Y_RUNS = {("y", 1), ("y", 2)}


def normalize_xy(xy: XYWord) -> XYWord:
    """Exhaustively apply xx -> C^(-1) and yyy -> C, cyclically.

    Each application is an equality in B_3 (x^2 = C^(-1), y^3 = C), so the
    result represents the same element; j tracks the central exponent.  The
    residue has every x-run equal to 1 and every y-run at most 2, cyclically.
    """
    j = xy.j

    def modulo(ch: str, count: int) -> int:
        nonlocal j
        if ch == "x":
            j -= count // 2
            return count % 2
        j += count // 3
        return count % 3

    stack: list[list] = []
    for ch, count in xy.runs:
        if stack and stack[-1][0] == ch:
            count += stack.pop()[1]
        count = modulo(ch, count)
        if count:
            stack.append([ch, count])
    # the seam: first and last runs are cyclically adjacent
    while len(stack) >= 2 and stack[0][0] == stack[-1][0]:
        ch, count = stack.pop()
        residue = modulo(ch, stack[0][1] + count)
        if residue:
            stack[0][1] = residue
        else:
            stack.pop(0)
    return XYWord(tuple((ch, count) for ch, count in stack), j)


def to_sigma_form(xy: XYWord) -> SchreierForm:
    """Translate a reduced xy residue into its sigma-side normal form.

    The input must already be normalized, else ValueError.  Longer residues
    are read by grouping their y-runs.  The lone residue x picks up one
    extra central factor: x = C^(-1) sigma_1 sigma_2 sigma_1.
    """
    runs, j = xy.runs, xy.j
    if not runs:
        return SchreierForm(k=j, kind=EtaKind.EMPTY)
    if len(runs) == 1:
        ch, count = runs[0]
        if ch == "x":
            if count != 1:
                raise ValueError("residue not normalized")
            return SchreierForm(k=j - 1, kind=EtaKind.SIGMA121)
        if count == 1:
            return SchreierForm(k=j, kind=EtaKind.SIGMA12)
        if count == 2:
            return SchreierForm(k=j, kind=EtaKind.SIGMA1212)
        raise ValueError("residue not normalized")
    # x^1 alternates with y^1 or y^2: one slice is the x-runs, one the y-runs
    xs, ys = runs[0::2], runs[1::2]
    if runs[0][0] == "y":
        xs, ys = ys, xs
    if len(xs) != len(ys) or set(xs) != {("x", 1)} or not set(ys) <= _Y_RUNS:
        raise ValueError("residue not normalized")
    if ("y", 2) not in ys:  # (xy)^p = sigma_1^(-p)
        return SchreierForm(k=j, kind=EtaKind.POWER_SIGMA1, power=-len(ys))
    if ("y", 1) not in ys:  # (xy^2)^q = sigma_2^q ~ sigma_1^q
        return SchreierForm(k=j, kind=EtaKind.POWER_SIGMA1, power=len(ys))
    # start at a 1 after a 2, so the groups alternate 1s and 2s in pairs
    start = next(
        i for i, run in enumerate(ys) if run == ("y", 1) and ys[i - 1] == ("y", 2)
    )
    groups = itertools.groupby(ys[start:] + ys[:start])
    lengths = [len(list(group)) for _, group in groups]
    pairs = tuple(zip(lengths[0::2], lengths[1::2]))
    return SchreierForm(k=j, kind=EtaKind.GENERIC, pairs=pairs)


def oracle_form(word):
    return to_sigma_form(normalize_xy(to_xy(word)))


# --- oracle stage pins ---------------------------------------------------


def test_to_xy_substitutions():
    assert to_xy(word_of("s1^-1 s2")).runs == (
        ("x", 1), ("y", 1), ("x", 1), ("y", 2),
    )
    assert to_xy(word_of("s2", 3)).runs == (("x", 1), ("y", 2))
    # (xy)^3 (yx)^3 with the middle y's merging into one run
    assert to_xy(word_of("s1^-3 s2^-3")).runs == (
        ("x", 1), ("y", 1), ("x", 1), ("y", 1), ("x", 1), ("y", 2),
        ("x", 1), ("y", 1), ("x", 1), ("y", 1), ("x", 1),
    )


def test_to_xy_rejects_other_widths():
    with pytest.raises(PreconditionError):
        to_xy(word_of("s1^-3 s2^-3 s3^-3"))


def test_normalize_xy_single_rules():
    assert normalize_xy(XYWord((("x", 2),))) == XYWord((), -1)
    assert normalize_xy(XYWord((("y", 4),))) == XYWord((("y", 1),), 1)


def test_normalize_xy_works_across_the_seam():
    reduced = normalize_xy(to_xy(word_of("s1^-3 s2^-3")))
    assert reduced.j == -1
    form = to_sigma_form(reduced)
    assert form == SchreierForm(
        k=-1, kind=EtaKind.GENERIC, pairs=((1, 1), (1, 1))
    )


def test_to_sigma_form_degenerate_residues():
    assert to_sigma_form(XYWord((("x", 1),), 0)) == SchreierForm(
        k=-1, kind=EtaKind.SIGMA121
    )
    assert to_sigma_form(XYWord((("y", 2),), 2)) == SchreierForm(
        k=2, kind=EtaKind.SIGMA1212
    )
    assert to_sigma_form(XYWord((), 3)) == SchreierForm(k=3, kind=EtaKind.EMPTY)


@pytest.mark.parametrize(
    "runs",
    [
        (("x", 1), ("y", 1), ("x", 1)),  # odd number of alternating runs
        (("x", 2), ("y", 1)),  # an x-run of 2
        (("x", 1), ("y", 1), ("x", 1), ("y", 3)),  # a y-run of 3 after an x
        (("x", 1), ("x", 1), ("y", 1), ("y", 2)),  # two adjacent x-runs
        (("x", 1), ("y", 2), ("y", 2), ("y", 3)),  # y-runs of 2 and 3 after the y^2
        (("y", 1), ("y", 1)),  # no x at all
    ],
)
def test_to_sigma_form_rejects_unnormalized_residues(runs):
    with pytest.raises(ValueError, match="residue not normalized"):
        to_sigma_form(XYWord(runs))


xy_word_st = st.builds(
    XYWord,
    st.lists(
        st.tuples(st.sampled_from(["x", "y"]), st.integers(1, 7)), max_size=12
    ).map(tuple),
    st.integers(-3, 3),
)


@given(xy_word_st)
def test_normalized_residue_alternates_and_is_read(xy):
    reduced = normalize_xy(xy)
    assert normalize_xy(reduced) == reduced
    runs = reduced.runs
    for i, (ch, count) in enumerate(runs):
        assert count <= (1 if ch == "x" else 2)
        if len(runs) >= 2:
            assert ch != runs[i - 1][0]
    to_sigma_form(reduced)


# --- the block sweep against the oracle ---------------------------------


@st.composite
def syllable_words3(draw):
    """3-braid syllable words of 1-12 syllables with exponents up to 40:
    alternating generators, or free ones whose repeats
    cyclically_reduce_into_syllables must fold."""
    exps = draw(
        st.lists(st.integers(-40, 40).filter(bool), min_size=1, max_size=12)
    )
    if draw(st.booleans()):
        first = draw(st.sampled_from([0, 1]))
        gens = [1 + (first + i) % 2 for i in range(len(exps))]
    else:
        gens = draw(
            st.lists(
                st.sampled_from([1, 2]), min_size=len(exps), max_size=len(exps)
            )
        )
    return SyllableWord(3, tuple(zip(gens, exps)))


@given(syllable_words3())
@settings(max_examples=400)
def test_block_sweep_matches_the_letter_level_oracle(word):
    assert schreier_normal_form(word) == oracle_form(word)


@pytest.mark.parametrize(
    "text, form",
    [
        # s1 s2 s1 (s2 s1 s2)^-1 cancels through a cascade of seams
        ("s1 s2 s1 s2^-1 s1^-1 s2^-1", SchreierForm(k=0, kind=EtaKind.EMPTY)),
        ("s1 s2 s1 s2 s1 s2", SchreierForm(k=1, kind=EtaKind.EMPTY)),  # C
        (  # x = (s1 s2 s1)^-1 = C^-1 s1 s2 s1
            "s1^-1 s2^-1 s1^-1",
            SchreierForm(k=-1, kind=EtaKind.SIGMA121),
        ),
        # one syllable: the seam joins its block to itself
        ("s1^-5", SchreierForm(k=0, kind=EtaKind.POWER_SIGMA1, power=-5)),
        ("s2^4", SchreierForm(k=0, kind=EtaKind.POWER_SIGMA1, power=4)),
        # the seam rotates the trailing x in front of the leading y-run
        ("s1^5", SchreierForm(k=0, kind=EtaKind.POWER_SIGMA1, power=5)),
        ("s2^-4", SchreierForm(k=0, kind=EtaKind.POWER_SIGMA1, power=-4)),
    ],
)
def test_block_sweep_cascades_are_pinned(text, form):
    word = word_of(text, 3)
    assert schreier_normal_form(word) == form
    assert oracle_form(word) == form


def test_short_words_normal_forms_are_pinned():
    # every letter word of length <= 7 on +-1, +-2 (21,845 words)
    digest = hashlib.sha256()
    for length in range(8):
        for letters in itertools.product([1, -1, 2, -2], repeat=length):
            form = schreier_normal_form(braid3(letters))
            blob = json.dumps(form.to_json_dict(), sort_keys=True)
            digest.update(f"{blob} {form.exponent_sum}\n".encode())
    assert digest.hexdigest() == (
        "0a9ee29aa5d9bb053fd79b80c7fc74f758edcfeb7fa6f82eb2c64bde63cef9c6"
    )


def test_form_validation():
    with pytest.raises(ValueError):
        SchreierForm(k=0, kind=EtaKind.GENERIC, pairs=())
    with pytest.raises(ValueError):
        SchreierForm(k=0, kind=EtaKind.GENERIC, pairs=((0, 1),))
    with pytest.raises(ValueError):
        SchreierForm(k=0, kind=EtaKind.POWER_SIGMA1, power=0)
    with pytest.raises(ValueError):
        XYWord((("z", 1),))
    with pytest.raises(ValueError, match="pairs only apply to the generic form"):
        SchreierForm(k=0, kind=EtaKind.EMPTY, pairs=((1, 1),))
    with pytest.raises(ValueError, match="power only applies to the power form"):
        SchreierForm(k=0, kind=EtaKind.GENERIC, pairs=((1, 1),), power=2)


def test_normal_form_pins():
    assert schreier_normal_form(ladder(2)) == SchreierForm(
        k=-2, kind=EtaKind.GENERIC, pairs=((1, 1),) * 4
    )
    assert schreier_normal_form(word_of("s1^-1 s2")) == SchreierForm(
        k=0, kind=EtaKind.GENERIC, pairs=((1, 1),)
    )
    assert schreier_normal_form(word_of("s2^3 s1^-3 s2^-4 s1^-3")) == SchreierForm(
        k=-1, kind=EtaKind.GENERIC, pairs=((2, 1), (2, 1), (2, 3))
    )
    # a positive two-syllable word can still be generic: the central power
    # soaks up the xx / yyy reductions (6*1 + (1 - 2) = 5 = its exponent sum)
    assert schreier_normal_form(word_of("s1^2 s2^3")) == SchreierForm(
        k=1, kind=EtaKind.GENERIC, pairs=((2, 1),)
    )
    assert not schreier_normal_form(word_of("s1 s2")).generic


def test_pair_list_is_stored_in_least_rotation():
    form = SchreierForm(
        k=0, kind=EtaKind.GENERIC, pairs=((2, 1), (3, 1), (1, 1), (4, 1))
    )
    assert form.pairs == ((1, 1), (4, 1), (2, 1), (3, 1))


pair_list_st = st.lists(
    st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=30
).map(tuple)
periodic_pair_list_st = st.tuples(
    st.lists(
        st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=6
    ),
    st.integers(1, 5),
).map(lambda period: tuple(period[0]) * period[1])


@given(st.one_of(pair_list_st, periodic_pair_list_st))
@example(((1, 1),) * 4)
@example(((1, 2), (1, 1), (1, 2), (1, 1), (1, 1)))
@example(((2, 2), (2, 2), (1, 1)))  # the least rotation starts last
def test_least_rotation_is_the_least_of_all_rotations(pairs):
    rotations = [pairs[i:] + pairs[:i] for i in range(len(pairs))]
    assert schreier._least_rotation(pairs) == min(rotations)


# --- composite properties ------------------------------------------------


@given(letters3_st, st.integers(min_value=0, max_value=13))
def test_rotation_invariance(letters, shift):
    if letters:
        shift %= len(letters)
        rotated = letters[shift:] + letters[:shift]
    else:
        rotated = letters
    assert schreier_normal_form(braid3(letters)) == schreier_normal_form(
        braid3(rotated)
    )


@given(letters3_st, st.integers(min_value=0, max_value=14), st.sampled_from([1, 2]))
def test_inverse_pair_insertion_invariance(letters, pos, gen):
    pos %= len(letters) + 1
    padded = letters[:pos] + [gen, -gen] + letters[pos:]
    assert schreier_normal_form(braid3(letters)) == schreier_normal_form(
        braid3(padded)
    )


@given(letters3_st)
def test_braid_relation_invariance(letters):
    spots = [
        i
        for i in range(len(letters) - 2)
        if letters[i] == letters[i + 2]
        and abs(letters[i]) != abs(letters[i + 1])
        and (letters[i] > 0) == (letters[i + 1] > 0)
    ]
    base = schreier_normal_form(braid3(letters))
    for i in spots:
        a, b = letters[i], letters[i + 1]
        rewritten = letters[:i] + [b, a, b] + letters[i + 3:]
        assert schreier_normal_form(braid3(rewritten)) == base


@given(letters3_st)
def test_round_trip_idempotence(letters):
    form = schreier_normal_form(braid3(letters))
    assert schreier_normal_form(form.to_braid_word()) == form


@given(letters3_st)
def test_exponent_sum_bookkeeping(letters):
    form = schreier_normal_form(braid3(letters))
    assert form.exponent_sum == exponent_sum(braid3(letters))


def test_conjugacy_pins():
    assert conjugate_3braids(word_of("s1^-1 s2"), word_of("s2 s1^-1"))
    assert not conjugate_3braids(word_of("s1^-3 s2^-3"), word_of("s1^-3 s2^-4"))


# --- direct reads on family words ----------------------------------------


def family_words():
    words = generate_words(GeneratorSpec(n=3, syllable_count=4, count=30, seed=11))
    words += generate_words(GeneratorSpec(n=3, syllable_count=6, count=30, seed=12))
    return words


def test_direct_read_pins():
    assert direct_read_k(ladder(2)) == -2
    assert direct_read_s(ladder(2)) == 4
    w = word_of("s1^3 s2^-3 s1^2 s2^-4")
    assert direct_read_k(w) == 0
    assert direct_read_s(w) == 2
    w = word_of("s2^3 s1^-3 s2^-4 s1^-3")
    assert direct_read_k(w) == -1
    assert direct_read_s(w) == 3
    # one pair per negative syllable, in word order: sigma_1^3 gives an A
    # to each neighbour and its three B's to the syllable before it, and the
    # two sigma_2^- sigma_1^- seams give k = -2
    w = word_of("s1^3 s2^-3 s1^-3 s2^-4 s1^-3 s2^-3")
    assert direct_form(w) == SchreierForm(
        k=-2, kind=EtaKind.GENERIC, pairs=((2, 1), (1, 1), (2, 1), (1, 1), (2, 3))
    )


def test_direct_reads_are_gated():
    non_family = [
        word_of("s1^-2 s2^-3 s1^-3 s2^-3"),  # cond1
        word_of("s1^-3 s2^-3"),  # t = 2 < 4
        word_of("s1^3 s2^3 s1^-3 s2^-3"),  # adjacent positives
    ]
    # a passing 4-braid family word is still not a 3-braid
    wide = word_of("s2^2 s1^-3 s3^-3 s2^-4 s1^-3 s3^-4")
    for read in (direct_form, direct_read_k, direct_read_s):
        for w in non_family:
            with pytest.raises(PreconditionError, match="need a family word"):
                read(w)
        with pytest.raises(PreconditionError, match="direct reads need n = 3"):
            read(wide)


def test_direct_reads_match_the_algorithm():
    for w in family_words():
        form = schreier_normal_form(w)
        assert form.generic
        assert direct_read_k(w) == form.k
        t_minus = sum(1 for _, r in w.syllables if r < 0)
        assert direct_read_s(w) == form.s == t_minus


def test_per_syllable_reads_juxtapose_to_the_full_form():
    # the composite normal form is exactly the juxtaposition of local
    # contributions, with the central exponent read off the negative-negative
    # adjacencies and no new central powers appearing; checked on seeded
    # family words of 4 to 1,000 syllables
    words = family_words()
    for syllables, count in ((10, 10), (40, 10), (200, 5), (1000, 2)):
        for seed in (1, 2, 3):
            spec = GeneratorSpec(n=3, syllable_count=syllables, count=count, seed=seed)
            words += generate_words(spec)
    for w in words:
        assert direct_form(w) == schreier_normal_form(w), w.as_text()


@given(gated_3braids())
@settings(max_examples=300)
@example(ladder(2))
@example(word_of("s1 s2^-3 s1 s2^-3"))
@example(word_of("s2^-3 s1^5 s2^-3 s1^-3"))
def test_direct_form_matches_the_sweep_on_gated_words(word):
    assert check_main_lemma(word).passed
    assert schreier._direct_form(word) == schreier_normal_form(word)


# --- hyperbolicity --------------------------------------------------------


def test_hyperbolicity_pins():
    verdict = is_hyperbolic_closure_3braid(word_of("s1^-3 s2^-3"))
    assert verdict.hyperbolic is False
    assert "sigma1^-3 sigma2^-3" in verdict.reason
    assert is_hyperbolic_closure_3braid(ladder(2)) == (True, None)
    # torus closures of a positive two-syllable word fail through the
    # conjugacy match (their form is generic), not through genericity
    verdict = is_hyperbolic_closure_3braid(word_of("s1^2 s2^3"))
    assert verdict == (False, "conjugate to sigma1^2 sigma2^3")
    verdict = is_hyperbolic_closure_3braid(word_of("s1 s2"))
    assert verdict == (False, "non-generic normal form")
    # the p = -2 row of the table: pairs ((b - 2, 2)), not ((b - 1, 2))
    form = schreier_normal_form(word_of("s1^-2 s2^-3"))
    assert form == SchreierForm(k=-1, kind=EtaKind.GENERIC, pairs=((1, 2),))
    assert hyperbolicity_of_form(form) == (
        False, "conjugate to sigma1^-3 sigma2^-2"
    )


@given(
    st.integers(min_value=-12, max_value=12).filter(lambda p: p != 0),
    st.integers(min_value=-12, max_value=12).filter(lambda q: q != 0),
)
@settings(max_examples=150)
def test_every_two_syllable_closure_is_recognized(p, q):
    # sigma_1^p sigma_2^q is trivially conjugate to itself, so the search
    # must find it no matter which closed pattern its form falls into
    w = SyllableWord(3, ((1, p), (2, q)))
    assert is_hyperbolic_closure_3braid(w).hyperbolic is False


def test_generated_family_words_are_hyperbolic():
    for w in family_words()[:30]:
        assert is_hyperbolic_closure_3braid(w).hyperbolic is True


BOX = 40  # exponent bound of the two-syllable table below
REACH = 36  # pair entries whose two-syllable preimage would lie in the box


@functools.lru_cache(maxsize=None)
def two_syllable_box():
    """Each generic form of a sigma_1^p sigma_2^q with |p|, |q| <= BOX,
    mapped to the set of its preimages (p, q), by normalizing every word."""
    table = {}
    for p in range(-BOX, BOX + 1):
        for q in range(-BOX, BOX + 1):
            w = SyllableWord(3, tuple((m, r) for m, r in ((1, p), (2, q)) if r))
            form = schreier_normal_form(w)
            assert form.s <= 2, (p, q)
            if form.generic:
                table.setdefault(form, set()).add((p, q))
    return table


def box_verdict(form):
    """The verdict the box table gives a form within its reach."""
    if not form.generic:
        return HyperbolicityResult(False, "non-generic normal form")
    preimages = two_syllable_box().get(form)
    if preimages is None:
        return HyperbolicityResult(True, None)
    p, q = min(preimages)
    return HyperbolicityResult(False, f"conjugate to sigma1^{p} sigma2^{q}")


def generic_forms_up_to_two_pairs():
    """Generic forms with k in [-3, 3]: every s = 1 form with entries up to
    REACH, and the s = 2 forms whose entries are all at most 12 or whose
    second pair has entries at most 3 (all s = 2 forms up to REACH would be
    about six million)."""
    wide = [(a, b) for a in range(1, REACH + 1) for b in range(1, REACH + 1)]
    small = [(a, b) for a, b in wide if a <= 12 and b <= 12]
    tiny = [(a, b) for a, b in small if a <= 3 and b <= 3]
    shapes = {(pq,) for pq in wide}
    shapes.update((x, y) for x in small for y in small)
    shapes.update((x, y) for x in wide for y in tiny)
    for k in range(-3, 4):
        for pairs in shapes:
            yield SchreierForm(k=k, kind=EtaKind.GENERIC, pairs=pairs)


def test_two_syllable_forms_have_at_most_two_pairs():
    # building the table checks s <= 2 for every word of the box, and the
    # swap of a form's least preimage is its only other one; the decision
    # must then name that least preimage for every form in the box and call
    # every other form within the box's reach hyperbolic
    box = two_syllable_box()
    for form, preimages in box.items():
        p, q = min(preimages)
        assert preimages <= {(p, q), (q, p)}, form
    for form in itertools.chain(box, generic_forms_up_to_two_pairs()):
        assert hyperbolicity_of_form(form) == box_verdict(form), form


syllable_exponents_st = st.lists(
    st.integers(min_value=-9, max_value=9).filter(lambda r: r != 0),
    min_size=1,
    max_size=8,
)


@given(st.one_of(letters3_st.map(braid3), syllable_exponents_st.map(
    lambda rs: SyllableWord(3, tuple((1 + i % 2, r) for i, r in enumerate(rs)))
)))
@settings(max_examples=300)
def test_shortcut_agrees_with_the_full_search(word):
    form = schreier_normal_form(word)
    assume(form.s >= 3 or all(max(pq) <= REACH for pq in form.pairs))
    assert hyperbolicity_of_form(form) == box_verdict(form)


def test_hyperbolicity_of_form_normalizes_no_word(monkeypatch):
    calls = []
    real = schreier.schreier_normal_form

    def counting(word):
        calls.append(word)
        return real(word)

    forms = [real(word_of(text)) for text in (
        "s1^-1 s2", "s1^-3 s2^-3", "s1^-2 s2^-3", "s1^2 s2^3", "s1 s2",
    )] + [real(w) for w in family_words()[:5]]
    monkeypatch.setattr(schreier, "schreier_normal_form", counting)
    for form in forms:
        hyperbolicity_of_form(form)
    assert calls == []


def test_analyze_computes_the_normal_form_once(monkeypatch):
    # a gated 3-braid's form is read off its syllables, with no sweep;
    # every other 3-braid takes one sweep
    calls = []
    real = schreier.schreier_normal_form

    def counting(word):
        calls.append(word)
        return real(word)

    monkeypatch.setattr(schreier, "schreier_normal_form", counting)
    monkeypatch.setattr(report, "schreier_normal_form", counting)
    gated = family_words()[:5]
    others = [
        word_of("s1^-1 s2"),  # generic, s = 1
        word_of("s1^-3 s2^-3"),  # generic, s = 2, t = 2 below the gate
        word_of("s1 s2"),  # non-generic
        word_of("s1^-2 s2^-3 s1^-3 s2^-3"),  # fails cond1
    ]
    for w in gated + others:
        calls.clear()
        report.analyze(w)
        assert calls == ([] if w in gated else [w]), w.as_text()


def test_hyperbolicity_rejects_other_widths():
    with pytest.raises(PreconditionError):
        is_hyperbolic_closure_3braid(word_of("s1^-3 s2^-3 s3^-3"))


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
