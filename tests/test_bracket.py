"""Kauffman bracket state sum and the stable penultimate coefficient.

Three oracles check the package's syllable sweep.  The first is deliberately
a different algorithm: a two-term skein recursion that resolves one
crossing at a time into an event list of cap/cup merges, counting leaf
circles with a strand simulator.  The second is the Temperley-Lieb sweep
one letter at a time, keeping every degree, as the package computed the
bracket before it stepped per syllable and dropped degrees below top - 4.
The third is the syllable sweep that kept a {degree: coefficient} dict per
matching, before the sweep kept dense slots 4 degrees apart.  Agreement on
every word is the real test; the literal pins are hand computations.
"""

import random
import time
from collections.abc import Callable
from functools import cache
from math import comb, inf

import pytest
from hypothesis import given, settings, strategies as st

from braidvol import bracket, states
from braidvol.bracket import (
    DEFAULT_MAX_CROSSINGS,
    MAX_BRACKET_STRANDS,
    LaurentPolynomial,
    bracket_summary,
    bracket_top,
    kauffman_bracket,
    stable_penultimate_coefficient,
)
from braidvol.errors import CrossingLimitError, OracleError, PreconditionError
from braidvol.generate import GeneratorSpec, generate_words
from braidvol.states import is_A_adequate, reduced_graph, resolve_all_A
from braidvol.words import SyllableWord, cyclically_reduce_into_syllables, mirror

from conftest import count_calls, ladder, word_from_letters, word_of


# --- independent oracle ---------------------------------------------------


def _leaf_circles(n, merges):
    """Circles of a crossing-free diagram: n strands, cap/cup merges top to
    bottom, then plat closure.  Pure strand simulation."""
    parent = list(range(n))
    arcs = list(range(n))
    nxt = n
    circles = 0

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in merges:
        a, b = find(arcs[i - 1]), find(arcs[i])
        if a == b:
            circles += 1
        else:
            parent[a] = b
        parent.append(nxt)
        arcs[i - 1] = arcs[i] = nxt
        nxt += 1
    for i in range(n):
        a, b = find(arcs[i]), find(i)
        if a == b:
            circles += 1
        else:
            parent[a] = b
    return circles


def skein_bracket(word):
    """Bracket by recursive resolution of the first remaining crossing."""
    letters = word.letters
    n = word.n
    total = {}

    def add(poly, degree, coeff):
        if coeff:
            poly[degree] = poly.get(degree, 0) + coeff
            if not poly[degree]:
                del poly[degree]

    def recurse(events, index, a_minus_b):
        for j in range(index, len(events)):
            kind, i = events[j]
            if kind == "x+":
                recurse(events[:j] + [("id", i)] + events[j + 1:], j + 1, a_minus_b + 1)
                recurse(events[:j] + [("m", i)] + events[j + 1:], j + 1, a_minus_b - 1)
                return
            if kind == "x-":
                recurse(events[:j] + [("m", i)] + events[j + 1:], j + 1, a_minus_b + 1)
                recurse(events[:j] + [("id", i)] + events[j + 1:], j + 1, a_minus_b - 1)
                return
        merges = [i for kind, i in events if kind == "m"]
        loops = _leaf_circles(n, merges)
        # A^(a-b) * (-A^2 - A^-2)^(loops-1)
        delta_power = {0: 1}
        for _ in range(loops - 1):
            step = {}
            for d, c in delta_power.items():
                add(step, d + 2, -c)
                add(step, d - 2, -c)
            delta_power = step
        for d, c in delta_power.items():
            add(total, d + a_minus_b, c)

    events = [("x+" if letter > 0 else "x-", abs(letter)) for letter in letters]
    recurse(events, 0, 0)
    return total


def _times_delta(poly):
    """``poly * delta`` with delta = -A^2 - A^(-2)."""
    out = {}
    for d, coef in poly.items():
        out[d + 2] = out.get(d + 2, 0) - coef
        out[d - 2] = out.get(d - 2, 0) - coef
    return out


def _accumulate(into, matching, poly, shift):
    """Add ``poly * A^shift`` to the entry of ``matching``."""
    acc = into.setdefault(matching, {})
    for d, coef in poly.items():
        acc[d + shift] = acc.get(d + shift, 0) + coef


def letter_sweep(word):
    """Bracket by the Temperley-Lieb sweep one letter at a time, every
    degree kept.  Boundary points 0..n-1 sit on top and n..2n-1 at the
    current bottom; each letter either passes both strands through or
    joins bottom points g and g+1 (a loop, times delta, when they were
    partners) and cups two new ones."""
    n = word.n
    identity = tuple(range(n, 2 * n)) + tuple(range(n))
    states = {identity: {0: 1}}
    for g in word.letters:
        pass_shift = 1 if g > 0 else -1  # the A-smoothing weighs A^+1
        left, right = n + abs(g) - 1, n + abs(g)
        swept = {}
        for matching, poly in states.items():
            _accumulate(swept, matching, poly, pass_shift)
            if matching[left] == right:
                _accumulate(swept, matching, _times_delta(poly), -pass_shift)
                continue
            joined = list(matching)
            x, y = matching[left], matching[right]
            joined[x], joined[y] = y, x
            joined[left], joined[right] = right, left
            _accumulate(swept, tuple(joined), poly, -pass_shift)
        states = swept

    total = {}
    for matching, poly in states.items():
        seen = bytearray(2 * n)
        cycles = 0
        for start in range(n):
            if seen[start]:
                continue
            cycles += 1
            point = start
            while not seen[point]:
                seen[point] = 1
                end = matching[point]
                seen[end] = 1
                point = end - n if end >= n else end + n
        for _ in range(cycles - 1):
            poly = _times_delta(poly)
        for d, coef in poly.items():
            total[d] = total.get(d, 0) + coef
    return {d: c for d, c in total.items() if c}


# --- the degree-dict syllable sweep, kept verbatim as a reference -------
# _join, _closure_cycles, _delta_power, _all_A_gains and _sweep as the
# package had them before its sweep kept dense slots: matchings are tuples
# and each matching holds a {degree: coefficient} dict.


# _join and _closure_cycles are cached for the life of the process: they
# only see matchings of at most MAX_BRACKET_STRANDS strands, of which there
# are at most Catalan(8) = 1430 on each strand count
@cache
def _join(matching: tuple[int, ...], left: int) -> tuple[int, ...] | None:
    """Cap bottom points ``left`` and ``left + 1``, then cup two new bottom
    points together in their place.  None when the two were partners: a loop
    closes and the matching is unchanged.  Otherwise their partners are
    spliced and the joined matching is returned."""
    right = left + 1
    if matching[left] == right:
        return None
    joined = list(matching)
    x, y = matching[left], matching[right]
    joined[x], joined[y] = y, x
    joined[left], joined[right] = right, left
    return tuple(joined)


@cache
def _closure_cycles(matching: tuple[int, ...]) -> int:
    """Cycles left when the braid closes: top point i joins bottom point
    n + i."""
    n = len(matching) // 2
    seen = bytearray(2 * n)
    cycles = 0
    for start in range(n):
        if seen[start]:
            continue
        cycles += 1
        point = start
        while not seen[point]:
            seen[point] = 1
            end = matching[point]
            seen[end] = 1
            point = end - n if end >= n else end + n
    return cycles


@cache
def _delta_power(k: int) -> tuple[tuple[int, int], ...]:
    """delta^k = (-1)^k (A^2 + A^(-2))^k, terms from the top degree down."""
    return tuple((2 * k - 4 * i, (-1) ** k * comb(k, i)) for i in range(k + 1))


def _all_A_gains(word: SyllableWord) -> Callable[[int, tuple[int, ...]], int]:
    """``gain(i, matching)``: the degree that the all-A smoothing of the
    syllables from ``i`` on, and the closure, add to a term whose matching
    is ``matching``.  It follows that one matching through the join step: a
    positive syllable sigma^k passes and adds k; a negative one sigma^(-k)
    joins k times and adds k plus 2 per loop it closes, and every join
    after the first closes one.  Switching one smoothing from A to B lowers
    a - b by 2 and changes the loops by 1, so no other smoothing of the rest
    of the braid adds more.  ``gain(0, identity)`` is top = c + 2(|s_A| - 1).
    """
    n = word.n
    syllables = word.syllables
    # known[i]: the gain of each matching met after i syllables; the
    # closure's gain is read from the cached cycle count instead
    known: list[dict[tuple[int, ...], int]] = [{} for _ in range(len(syllables) + 1)]

    def gain(i: int, matching: tuple[int, ...]) -> int:
        path = []  # (i, matching, added) up to the first known pair
        total = known[i].get(matching)
        while total is None:
            if i == len(syllables):
                total = 2 * (_closure_cycles(matching) - 1)
                break
            g, r = syllables[i]
            added, after = r, matching
            if r < 0:  # the A-smoothing of a negative letter is the join
                joined = _join(matching, n + g - 1)
                added = -3 * r if joined is None else -3 * r - 2
                after = matching if joined is None else joined
            path.append((i, matching, added))
            i, matching = i + 1, after
            total = known[i].get(matching)
        for i, matching, added in reversed(path):
            total += added
            known[i][matching] = total
        return total

    return gain


def _sweep(word: SyllableWord, depth: int | None) -> LaurentPolynomial:
    """The terms of the bracket of the closure of ``word`` of degree at
    least top - ``depth``, top = c + 2(|s_A| - 1), exactly; every term when
    ``depth`` is None.

    One step per syllable.  In the Temperley-Lieb algebra e^2 = delta * e,
    so sigma^r = A^r * 1 + c_k * e with k = |r| and
    c_k = sum over j < k of (-1)^j A^(s(k - 2 - 4j)), s the sign of r.  A
    matching whose bottom points g and g+1 are partners is multiplied by the
    monomial A^r + c_k * delta = (-1)^k A^(-3r); any other matching keeps
    A^r and its joined matching gets c_k.

    With a depth, a term is dropped as soon as it cannot reach the floor
    top - depth: from its matching, the rest of the braid adds at most what
    its all-A smoothing adds (``_all_A_gains``).  The sweep is linear in its
    terms, so dropping them changes no coefficient at or above the floor.
    """
    n = word.n
    identity = tuple(range(n, 2 * n)) + tuple(range(n))  # the empty braid
    floor, gain = -inf, lambda i, matching: 0  # keep every term
    if depth is not None:
        gain = _all_A_gains(word)
        floor = gain(0, identity) - depth
    states: dict[tuple[int, ...], dict[int, int]] = {identity: {0: 1}}
    for i, (g, r) in enumerate(word.syllables, 1):
        k = abs(r)
        loop_shift, loop_sign = -3 * r, -1 if k & 1 else 1
        twist = [(k - 2 - 4 * j, -1 if j & 1 else 1) for j in range(k)]
        if r < 0:  # A -> A^(-1); then the highest degree comes first again
            twist = [(-e, sign) for e, sign in reversed(twist)]
        left = n + g - 1
        swept: dict[tuple[int, ...], dict[int, int]] = {}
        for matching, poly in states.items():
            joined = _join(matching, left)
            bound = floor - gain(i, matching)
            acc = swept.setdefault(matching, {})
            if joined is None:
                for d, coef in poly.items():
                    d += loop_shift
                    if d >= bound:
                        acc[d] = acc.get(d, 0) + loop_sign * coef
                continue
            for d, coef in poly.items():
                if d + r >= bound:
                    acc[d + r] = acc.get(d + r, 0) + coef
            bound = floor - gain(i, joined)
            acc = swept.setdefault(joined, {})
            for d, coef in poly.items():
                for e, sign in twist:
                    if d + e < bound:
                        break
                    acc[d + e] = acc.get(d + e, 0) + sign * coef
        states = {matching: poly for matching, poly in swept.items() if poly}

    total: dict[int, int] = {}
    for matching, poly in states.items():
        delta = _delta_power(_closure_cycles(matching) - 1)
        for d, coef in poly.items():
            for e, c in delta:
                if d + e < floor:
                    break
                total[d + e] = total.get(d + e, 0) + c * coef
    return LaurentPolynomial.from_dict(total)


def as_dict(poly):
    return dict(poly.terms)


def top_of(terms, word):
    """The terms of degree at least top - 4, top = c + 2(|s_A| - 1) with
    |s_A| read from the traced state."""
    top = word.crossings + 2 * (len(resolve_all_A(word).circles) - 1)
    return {d: c for d, c in terms.items() if d >= top - 4}


# --- pins -----------------------------------------------------------------


def test_unknot_normalization():
    assert kauffman_bracket(SyllableWord(1, ())) == LaurentPolynomial(((0, 1),))


def test_two_strand_unlink_is_delta():
    assert as_dict(kauffman_bracket(SyllableWord(2, ()))) == {2: -1, -2: -1}


def test_one_crossing_unknot():
    assert as_dict(kauffman_bracket(word_of("s1", 2))) == {3: -1}


def test_hopf_link():
    assert as_dict(kauffman_bracket(word_of("s1^2", 2))) == {4: -1, -4: -1}


def test_trefoil_mirror_pair():
    left = kauffman_bracket(word_of("s1^-3", 2))
    right = kauffman_bracket(word_of("s1^3", 2))
    assert left == right.inverted_variable()
    assert as_dict(left) == {d: c for d, c in skein_bracket(word_of("s1^-3", 2)).items()}


def alternating(n, crossings):
    """One letter per syllable, the generators cycling 1..n-1 and the signs
    alternating: the slowest whole-bracket shape measured at the cap for
    n = 3, 5, 7 and 8."""
    return SyllableWord(
        n, tuple((i % (n - 1) + 1, 1 if i % 2 else -1) for i in range(crossings))
    )


def staircase(n, crossings):
    """One positive letter per syllable, the generators cycling 1..n-1: the
    slowest whole-bracket shape measured at the cap for n = 2, 4 and 6."""
    return SyllableWord(n, tuple((i % (n - 1) + 1, 1) for i in range(crossings)))


CAPS = (3781, 2673, 1691, 1010, 583, 329, 182, 100)
# the slower of the two shapes at each strand count's cap, timed on the
# degree-dict sweep; n = 6 and 8 are near ties
SLOWEST_AT_THE_CAP = {2: staircase, 4: staircase, 6: staircase}


def test_crossing_cap():
    # the cap is the largest c with c^2 * Catalan(n) <= 100^2 * Catalan(8)
    assert tuple(bracket._crossing_cap(n) for n in range(1, 9)) == CAPS
    for n, cap in enumerate(CAPS, 1):
        catalan = bracket._catalan(n)
        assert cap**2 * catalan <= 100**2 * 1430 < (cap + 1) ** 2 * catalan


def test_above_the_cap_is_refused_before_any_sweep(monkeypatch):
    sweeps = count_calls(monkeypatch, bracket, "_sweep")
    for n, cap in enumerate(CAPS[1:], 2):
        with pytest.raises(CrossingLimitError) as info:
            kauffman_bracket(alternating(n, cap + 1))
        assert (info.value.crossings, info.value.cap) == (cap + 1, cap)
        assert f"above the cap of {cap}" in str(info.value)
    assert sweeps == []


def test_the_strand_limit_is_refused_before_the_cap():
    with pytest.raises(PreconditionError, match="limit of 8") as info:
        kauffman_bracket(alternating(9, 101))
    assert not isinstance(info.value, CrossingLimitError)


def test_words_at_the_cap_are_swept():
    torus = kauffman_bracket(word_of("s1^2673", 2))
    assert torus == kauffman_bracket(word_of("s1^-2673", 2)).inverted_variable()
    # 102 crossings at n = 3, above the cap at n = 8
    assert as_dict(kauffman_bracket(ladder(17))) == letter_sweep(ladder(17))


@pytest.mark.parametrize("n", range(2, 9))
def test_the_slowest_shape_at_the_cap_is_swept_in_seconds(n):
    word = SLOWEST_AT_THE_CAP.get(n, alternating)(n, bracket._crossing_cap(n))
    start = time.perf_counter()
    poly = kauffman_bracket(word)
    assert time.perf_counter() - start < 10
    assert not poly.is_zero


def test_strand_bound():
    assert MAX_BRACKET_STRANDS == 8
    eight = SyllableWord(8, tuple((g, -3) for g in range(1, 8)))
    assert kauffman_bracket(eight) is not None
    # 45 crossings on 16 strands: refused before a sweep that would take
    # minutes
    wide = SyllableWord(16, tuple((g, -3) for g in range(1, 16)))
    for word in (SyllableWord(9, ()), wide):
        for call in (kauffman_bracket, bracket_top, stable_penultimate_coefficient):
            with pytest.raises(PreconditionError, match="limit of 8"):
                call(word)


def test_strand_count_is_refused_before_the_state_is_traced(monkeypatch):
    # s1^-1 glues a circle to itself, so on 8 strands the word is refused
    # for adequacy; on 16 it is refused for its strands first, untraced
    syllables = ((1, -1),) + tuple((g, -3) for g in range(2, 8))
    with pytest.raises(PreconditionError, match="A-adequate"):
        stable_penultimate_coefficient(SyllableWord(8, syllables))
    wide = SyllableWord(16, syllables + tuple((g, -3) for g in range(8, 16)))
    assert not is_A_adequate(resolve_all_A(wide))
    traces = count_calls(monkeypatch, states, "resolve_all_A")
    with pytest.raises(PreconditionError, match="limit of 8"):
        stable_penultimate_coefficient(wide)
    assert traces == []


def test_penultimate_pins():
    summary = stable_penultimate_coefficient(word_of("s1^-3 s2^-3"))
    assert summary.penultimate_abs == 2
    assert abs(summary.top_coefficient) == 1
    assert summary.top_degree == summary.c + 2 * (summary.num_all_A_circles - 1)
    assert stable_penultimate_coefficient(ladder(2)).penultimate_abs == 4
    assert stable_penultimate_coefficient(word_of("s1^3", 2)).penultimate_abs == 0


def test_penultimate_requires_adequacy(monkeypatch):
    sweeps = count_calls(monkeypatch, bracket, "_sweep")
    with pytest.raises(PreconditionError):
        stable_penultimate_coefficient(word_of("s1^-1 s2^-3"))
    assert sweeps == []  # refused before any sweep


def test_summary_checks_the_degree_ends():
    w = ladder(1)
    state = resolve_all_A(w)
    poly = kauffman_bracket(w)
    assert bracket_summary(poly, state) == stable_penultimate_coefficient(w)
    with pytest.raises(OracleError, match="top degree"):
        bracket_summary(kauffman_bracket(ladder(2)), state)
    doubled = LaurentPolynomial(tuple((d, 2 * c) for d, c in poly.terms))
    with pytest.raises(OracleError, match="top coefficient"):
        bracket_summary(doubled, state)
    inadequate = word_of("s1^-1 s2^-3")
    with pytest.raises(PreconditionError):
        bracket_summary(kauffman_bracket(inadequate), resolve_all_A(inadequate))


def test_default_cap_matches_module_constant():
    # the module constant is the cap at the strand limit
    assert DEFAULT_MAX_CROSSINGS == 100
    assert bracket._crossing_cap(MAX_BRACKET_STRANDS) == DEFAULT_MAX_CROSSINGS


def test_polynomial_plumbing():
    p = LaurentPolynomial.from_dict({4: 2, 0: -1, 8: 0})
    assert p.terms == ((0, -1), (4, 2))
    assert p.coefficient(4) == 2 and p.coefficient(6) == 0
    assert p.max_degree == 4 and p.min_degree == 0
    assert LaurentPolynomial().is_zero
    assert str(LaurentPolynomial(((-2, 5),))) == "-2:5"


# --- oracle agreement and structure ---------------------------------------

def _words_on(n):
    """Words of up to 10 letters on n strands (one strand has no letters)."""
    letters = [s * g for g in range(1, n) for s in (1, -1)]
    draws = st.lists(st.sampled_from(letters), max_size=10) if letters else st.just([])
    return draws.map(
        lambda word: cyclically_reduce_into_syllables(word_from_letters(word, n))
    )


small_word_st = st.integers(min_value=1, max_value=6).flatmap(_words_on)


@given(small_word_st)
@settings(max_examples=60, deadline=None)
def test_state_sum_matches_skein_recursion(word):
    assert as_dict(kauffman_bracket(word)) == skein_bracket(word)


@given(small_word_st)
@settings(max_examples=100, deadline=None)
def test_top_terms_match_skein_recursion(word):
    assert as_dict(bracket_top(word)) == top_of(skein_bracket(word), word)


def _sweep_corpus():
    """Generated family words of at most 100 crossings at n = 3 to 6, and
    seeded random words of short syllables at the same n."""
    words = []
    for n in (3, 4, 5, 6):
        for syllables in (2 * n, 12, 16, 20):
            spec = GeneratorSpec(n=n, syllable_count=syllables, seed=syllables, count=3)
            words += [w for w in generate_words(spec) if w.crossings <= 100]
    rng = random.Random("letter-sweep")
    for n in (3, 4, 5, 6):
        for length in (12, 40):
            syllables = tuple(
                (rng.randint(1, n - 1), rng.choice((-1, 1)) * rng.randint(1, 4))
                for _ in range(length)
            )
            words.append(cyclically_reduce_into_syllables(SyllableWord(n, syllables)))
    return words


def test_top_sweep_at_the_input_limit():
    # 9,996 crossings at n = 8, one letter per syllable: the slowest shapes
    # found for the top sweep, which takes no crossing cap
    sweep = tuple((g, -1) for g in range(1, 8)) * 1428
    negative = SyllableWord(8, sweep)
    positive = mirror(negative)
    for word in (negative, positive):
        start = time.monotonic()
        top = bracket_top(word)
        assert time.monotonic() - start < 10.0
    summary = bracket_summary(top, resolve_all_A(positive))
    assert summary.c == 9996 and summary.top_degree == 9996 + 2 * 7


def test_syllable_sweep_matches_the_letter_sweep():
    words = _sweep_corpus()
    assert len(words) >= 40
    assert {w.n for w in words} == {3, 4, 5, 6}
    assert max(w.crossings for w in words) > 90
    for word in words:
        full = letter_sweep(word)
        assert as_dict(kauffman_bracket(word)) == full, word.as_text()
        assert as_dict(bracket_top(word)) == top_of(full, word), word.as_text()


def _reference_words_on(n):
    """Words of up to 12 letters on n strands, one syllable per letter or
    cyclically reduced into syllables."""
    letters = [s * g for g in range(1, n) for s in (1, -1)]
    if not letters:
        return st.just(SyllableWord(n, ()))
    words = st.lists(st.sampled_from(letters), max_size=12).map(
        lambda word: word_from_letters(word, n)
    )
    return words | words.map(cyclically_reduce_into_syllables)


@given(
    st.integers(min_value=1, max_value=6).flatmap(_reference_words_on),
    st.sampled_from([None, 4]),
)
@settings(max_examples=300, deadline=None)
def test_the_slot_sweep_equals_the_degree_dict_sweep(word, depth):
    assert bracket._sweep(word, depth) == _sweep(word, depth)


def test_the_top_window_equals_the_degree_dict_sweep_at_generator_size():
    # the seed-1 generated 200-syllable words, about 900 to 1,100 crossings
    for n in (3, 4, 5, 8):
        spec = GeneratorSpec(n=n, syllable_count=200, seed=1, count=2)
        for word in generate_words(spec):
            assert bracket_top(word) == _sweep(word, 4), (n, word.as_text())


def test_a_slot_shift_off_the_lattice_raises(monkeypatch):
    # only the gain after the last syllable reads 2 too high, since an
    # offset on every gain cancels out of each shift; the sweep reads a
    # known gain before it calls, so known[last] is left empty for it
    real = bracket._all_A_gains

    def skewed(word):
        known, gain = real(word)
        last = len(word.syllables)
        return known[:last] + [{}], lambda i, m: gain(i, m) + 2 * (i == last)

    monkeypatch.setattr(bracket, "_all_A_gains", skewed)
    for word in (word_of("s1^-3 s2^-3"), word_of("s1 s2^-2 s1 s2^-2"), ladder(3)):
        for call in (bracket_top, kauffman_bracket):
            last = len(word.syllables)
            with pytest.raises(OracleError, match=f"slot shift .* at syllable {last}$"):
                call(word)


@given(small_word_st)
@settings(max_examples=60, deadline=None)
def test_mirror_involution(word):
    # mirror the diagram syllable by syllable; reducing first would change
    # the crossing count and with it the bracket itself
    assert kauffman_bracket(mirror(word)) == kauffman_bracket(word).inverted_variable()


@given(small_word_st)
@settings(max_examples=60, deadline=None)
def test_degree_span_bound(word):
    # each state contributes A^(a-b) * delta^(loops-1); a-b varies over a
    # 2c range and each delta factor spans 4 degrees
    poly = kauffman_bracket(word)
    if poly.is_zero:
        return
    c = word.crossings
    max_loops = c + word.n
    assert poly.max_degree - poly.min_degree <= 2 * c + 4 * (max_loops - 1)


def test_identity_against_state_graph_on_small_corpus(oracle_corpus):
    for word in oracle_corpus:
        if word.crossings > 12:
            continue
        graph = reduced_graph(resolve_all_A(word))
        summary = stable_penultimate_coefficient(word)
        assert summary.penultimate_abs == 1 + graph.neg_chi


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
