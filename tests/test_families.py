"""Membership predicates for the two braid families.

check_main_lemma evaluates, cyclically: every negative exponent at most -3;
positive syllables flanked by long-enough negative syllables in the adjacent
columns (three clauses by generator position); the two-complete-windows shape;
and a twist-count floor of 2(n-1).  stoimenow_A_adequate_3braid decides
A-adequacy for 3-braids from the syllable pattern alone.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from braidvol.errors import PreconditionError
from braidvol.families import check_main_lemma, stoimenow_A_adequate_3braid
from braidvol.generate import GeneratorSpec, generate_words
from braidvol.states import (
    is_A_adequate,
    is_connected_closure,
    resolve_all_A,
    satisfies_TELC,
)
from braidvol.states import CircleClass
from braidvol.words import SyllableWord, cyclically_reduce_into_syllables

from conftest import ladder, word_of


def test_all_negative_family_word_passes():
    report = check_main_lemma(ladder(2))
    assert report.passed
    assert report.nice and report.cond1 and report.twist_ok
    assert report.cond2_failures == ()
    assert report.to_json_dict()["implied"] == {
        "connected": True,
        "prime": True,
        "a_adequate": True,
        "telc": True,
        "hyperbolic": True,
    }


def test_short_negative_syllable_fails_cond1():
    report = check_main_lemma(word_of("s1^-2 s2^-3 s1^-3 s2^-3"))
    assert not report.passed
    assert not report.cond1


def test_mixed_3braid_family_word_passes():
    assert check_main_lemma(word_of("s1^3 s2^-3 s1^2 s2^-4")).passed


def test_interior_positive_4braid_passes():
    w = word_of("s2^2 s1^-3 s3^-3 s2^-4 s1^-3 s3^-4")
    report = check_main_lemma(w)
    assert report.passed


def test_interior_positive_needs_both_flanking_generators():
    # replacing one sigma_3 flank with sigma_2 breaks clause 2b
    w = word_of("s2^2 s1^-3 s3^-3 s2^-4 s1^-3 s2^-4 s1^-3")
    report = check_main_lemma(w)
    assert not report.passed
    assert any(f.clause == "2b" for f in report.cond2_failures)


def cond2(word):
    return [
        (f.syllable, f.clause, f.reason)
        for f in check_main_lemma(word).cond2_failures
    ]


def test_boundary_clause_failures_are_pinned():
    # clause 2a: sigma_1 wants a long negative sigma_2 on each side, checked
    # before then after; a short neighbour, then a wrong generator (n = 5)
    assert cond2(SyllableWord(5, ((1, 2), (2, -2), (3, -3), (4, -3), (2, -3)))) == [
        (0, "2a", "neighbor exponent -2 > -3")
    ]
    assert cond2(SyllableWord(5, ((1, 2), (3, -3), (2, -3), (4, -3), (2, -3)))) == [
        (0, "2a", "neighbor generator 3 != 2")
    ]
    # clause 2c: sigma_{n-1} wants sigma_{n-2}; sigma_4 next to sigma_2 at n = 5
    assert cond2(SyllableWord(5, ((4, 2), (3, -3), (1, -3), (2, -3)))) == [
        (0, "2c", "neighbor generator 2 != 3")
    ]
    # at n = 3, sigma_2 is sigma_{n-1}: a short sigma_1 neighbour fails 2c
    assert cond2(SyllableWord(3, ((1, -3), (2, 2), (1, -2), (2, -3)))) == [
        (1, "2c", "neighbor exponent -2 > -3")
    ]
    # at n = 2, sigma_1 is also sigma_{n-1}; it takes clause 2a
    assert cond2(word_of("s1", 2)) == [(0, "2a", "neighbor exponent 1 > -3")]


def test_interior_clause_names_the_side_that_fails():
    # clause 2b: sigma_2 at n = 4 wants sigma_1 and sigma_3 in the two
    # syllables before it and in the two after; here the after side is {3, 2}
    assert cond2(SyllableWord(4, ((1, -3), (3, -3), (2, 2), (3, -3), (2, -3)))) == [
        (2, "2b", "generators after are [2, 3]")
    ]


def test_twist_floor_excludes_short_words():
    # two syllables leave no room for a second complete window, and t = 2
    # sits under the floor 2(n-1) = 4
    report = check_main_lemma(ladder(1))
    assert report.cond1
    assert not report.nice
    assert not report.twist_ok
    assert not report.passed


def test_report_serializes():
    blob = check_main_lemma(ladder(2)).to_json_dict()
    assert blob["pass"] is True
    assert blob["implied"]["hyperbolic"] is True


def test_stoimenow_positive_braid():
    assert stoimenow_A_adequate_3braid(word_of("s1^2 s2^3 s1 s2^4")) is True


def test_stoimenow_forbidden_triple():
    w = word_of("s1^-1 s2^-1 s1^-1 s2^-5")
    assert stoimenow_A_adequate_3braid(w) is False


def test_stoimenow_guarded_positive_syllable():
    assert stoimenow_A_adequate_3braid(word_of("s1^2 s2^-1 s1^-3 s2^-2")) is True


def test_stoimenow_out_of_scope_for_short_words():
    assert stoimenow_A_adequate_3braid(word_of("s1^-3 s2^-3")) is None


def test_stoimenow_rejects_other_widths():
    with pytest.raises(PreconditionError):
        stoimenow_A_adequate_3braid(word_of("s1^-3 s2^-3 s3^-3"))


def test_stoimenow_rejects_unreduced_words():
    w = SyllableWord(3, ((1, -3), (1, -2), (2, -3)))
    with pytest.raises(PreconditionError, match="needs a cyclically reduced word"):
        stoimenow_A_adequate_3braid(w)


exponent_st = st.integers(min_value=-4, max_value=4).filter(lambda e: e != 0)


@given(st.tuples(exponent_st, exponent_st, exponent_st, exponent_st))
@settings(max_examples=200)
def test_stoimenow_matches_direct_adequacy(exps):
    e1, e2, e3, e4 = exps
    w = SyllableWord(3, ((1, e1), (2, e2), (1, e3), (2, e4)))
    assert stoimenow_A_adequate_3braid(w) == is_A_adequate(resolve_all_A(w))


def test_family_words_have_the_implied_properties():
    words = generate_words(GeneratorSpec(n=3, syllable_count=4, count=25, seed=5))
    words += generate_words(GeneratorSpec(n=4, syllable_count=6, count=25, seed=6))
    for w in words:
        report = check_main_lemma(w)
        assert report.passed
        state = resolve_all_A(w)
        assert is_A_adequate(state)
        assert satisfies_TELC(state)
        assert is_connected_closure(w)
        assert state.census[CircleClass.UNCLASSIFIED] == 0
        if w.n == 3:
            assert stoimenow_A_adequate_3braid(w) is True


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
