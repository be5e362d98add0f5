"""Shared fixtures: canonical words, word strategies for hypothesis, the
bracket-oracle corpus and a call counter."""

import sys

import pytest
from hypothesis import strategies as st

from braidvol.words import SyllableWord, parse_braid, cyclically_reduce_into_syllables


def word_of(text, n=None):
    return cyclically_reduce_into_syllables(parse_braid(text, n))


def word_from_letters(letters, n):
    """The unreduced word with one syllable per signed letter."""
    return SyllableWord(n, tuple((abs(g), 1 if g > 0 else -1) for g in letters))


def ladder(m):
    """The alternating family word (s1^-3 s2^-3)^m."""
    return word_of("s1^-3 s2^-3 " * m, 3)


def _patch_everywhere(monkeypatch, real, name, wrapper):
    """Set ``name`` to ``wrapper`` in every braidvol module that binds
    ``real`` under it."""
    for key, loaded in list(sys.modules.items()):
        if key.split(".")[0] == "braidvol" and getattr(loaded, name, None) is real:
            monkeypatch.setattr(loaded, name, wrapper)


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` wherever a braidvol module binds it, and return
    the list that collects the first argument of every call."""
    real = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    _patch_everywhere(monkeypatch, real, name, counting)
    return calls


def capture_returns(monkeypatch, module, name):
    """Wrap ``module.name`` wherever a braidvol module binds it, and return
    the list that collects what every call returns."""
    real = getattr(module, name)
    returns = []

    def capturing(*args, **kwargs):
        returns.append(real(*args, **kwargs))
        return returns[-1]

    _patch_everywhere(monkeypatch, real, name, capturing)
    return returns


exponent_st = st.integers(min_value=-20, max_value=20).filter(lambda r: r != 0)
syllable_st = st.tuples(st.integers(min_value=1, max_value=4), exponent_st)
# cyclically reduced words on 5 strands, up to 10 syllables
word_st = st.builds(
    lambda syls: cyclically_reduce_into_syllables(SyllableWord(5, tuple(syls))),
    st.lists(syllable_st, max_size=10),
)


def chain_syllables(draws):
    """Syllables from (generator, exponent, repeat) draws: a repeat takes the
    generator of the syllable before it, so the word keeps adjacent
    syllables of one generator unmerged."""
    syllables = []
    for g, r, repeat in draws:
        syllables.append((syllables[-1][0] if repeat and syllables else g, r))
    return tuple(syllables)


def any_n_words(max_n):
    """Unreduced words on 1 to ``max_n`` strands, up to 12 syllables."""
    return st.integers(min_value=1, max_value=max_n).flatmap(
        # a lambda, not SyllableWord itself: builds() would fill every named
        # tuple field, cyclically_reduced too, which the constructor derives
        lambda n: st.builds(
            lambda syllables: SyllableWord(n, syllables),
            st.lists(
                st.tuples(
                    st.integers(min_value=1, max_value=max(n - 1, 1)),
                    exponent_st,
                    st.booleans(),
                ),
                max_size=12 if n > 1 else 0,
            ).map(chain_syllables),
        )
    )


@st.composite
def label_sweep_words(draw):
    """Unreduced words on 2 to 32 strands: runs of one repeated generator,
    lone r = -1 and r = -2 regions, and a prefix u closed by u^-1 at the
    end, which cancels across the closure seam once reduced; the body may
    be empty, and so may the whole word."""
    n = draw(st.integers(min_value=2, max_value=32))
    generator = st.integers(min_value=1, max_value=n - 1)
    exponent = st.one_of(st.sampled_from((-2, -1)), exponent_st)
    body = chain_syllables(
        draw(st.lists(st.tuples(generator, exponent, st.booleans()), max_size=16))
    )
    seam = draw(st.lists(st.tuples(generator, exponent), max_size=4))
    inverse = tuple((g, -r) for g, r in reversed(seam))
    return SyllableWord(n, (*seam, *body, *inverse))


@st.composite
def gated_3braids(draw):
    """Family 3-braids: alternating generators, an even t >= 4, negative
    exponents <= -3, and positive exponents >= 1 at an independent set of
    cyclic positions (no two positive syllables adjacent, also across the
    seam)."""
    t = 2 * draw(st.integers(min_value=2, max_value=20))
    exps = draw(
        st.lists(st.integers(min_value=-12, max_value=-3), min_size=t, max_size=t)
    )
    for i in draw(st.sets(st.integers(min_value=0, max_value=t - 1))):
        if exps[i - 1] < 0 and exps[(i + 1) % t] < 0:
            exps[i] = draw(st.integers(min_value=1, max_value=12))
    first = draw(st.sampled_from([1, 2]))
    return SyllableWord(3, tuple((1 + (first + i) % 2, r) for i, r in enumerate(exps)))


# Fixed mixed-provenance corpus for the bracket/state cross-checks: every
# word is A-adequate with at most 18 crossings, and positive, negative, and
# mixed-sign words are all represented.
ORACLE_CORPUS = (
    # positive
    (2, "s1"),
    (2, "s1^3"),
    (2, "s1^5"),
    (2, "s1^7"),
    (3, "s1 s2 s1 s2"),
    (3, "s1^2 s2^2"),
    (3, "s1^3 s2^3"),
    (3, "s1^2 s2^3 s1^2 s2^3"),
    (3, "s1^4 s2^4"),
    (4, "s1^2 s2^2 s3^2"),
    (4, "s1^3 s2^2 s3^3"),
    (4, "s1 s2 s3 s1 s2 s3"),
    (3, "s1^2 s2^3 s1 s2^4"),
    (3, "s1^3 s2^4 s1^3 s2^4"),
    # negative
    (2, "s1^-3"),
    (2, "s1^-5"),
    (2, "s1^-8"),
    (2, "s1^-12"),
    (3, "s1^-3 s2^-3"),
    (3, "s1^-4 s2^-4"),
    (3, "s1^-3 s2^-4"),
    (3, "s1^-3 s2^-3 s1^-3 s2^-3"),
    (3, "s1^-5 s2^-3"),
    (3, "s1^-3 s2^-3 s1^-4 s2^-4"),
    (3, "s1^-6 s2^-6"),
    (4, "s1^-3 s2^-3 s3^-3"),
    (4, "s1^-4 s2^-3 s3^-4"),
    (4, "s1^-3 s2^-4 s3^-3 s2^-3"),
    (4, "s1^-2 s2^-2 s3^-2"),
    (5, "s1^-3 s2^-3 s3^-3 s4^-3"),
    # mixed
    (3, "s1^3 s2^-3"),
    (3, "s1^2 s2^-4"),
    (3, "s1^3 s2^-3 s1^2 s2^-4"),
    (3, "s2^3 s1^-3 s2^-4 s1^-3"),
    (3, "s1^4 s2^-5"),
    (3, "s1^2 s2^-3 s1^3 s2^-3"),
    (3, "s1^-3 s2^3 s1^-4 s2^4"),
    (3, "s1^5 s2^-5"),
    (3, "s1^2 s2^-5 s1^2 s2^-5"),
    (3, "s1 s2^-4"),
    (3, "s1^6 s2^-3"),
    (4, "s2^2 s1^-3 s3^-3 s2^-4 s1^-3 s3^-2"),
    (4, "s1^3 s2^-3 s3^3"),
    (4, "s1^-3 s2^3 s3^-3"),
    (4, "s1^2 s2^-4 s3^2"),
    (4, "s2 s1^-3 s3^-3 s2^-3 s1^-3 s3^-3"),
)


@pytest.fixture(scope="session")
def oracle_corpus():
    return [word_of(text, n) for n, text in ORACLE_CORPUS]
