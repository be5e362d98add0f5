"""Membership tests for the structured closed-braid family.

The family consists of nice, cyclically reduced braid words whose negative
twist regions are long (exponent at most -3) and whose positive syllables are
isolated between prescribed negative neighbors:

* a positive sigma_1 syllable sits between two negative sigma_2 syllables;
* a positive sigma_{n-1} syllable sits between two negative sigma_{n-2}
  syllables;
* an interior positive sigma_i syllable (2 <= i <= n-2) is framed on each
  side by two negative syllables whose generators are {i-1, i+1}.

Together with twist number t >= 2(n-1) these conditions make the closure a
connected, A-adequate, TELC link, which the bound layer takes on family
members to be prime and hyperbolic as well.  The gate does not decide
primeness, and it passes some composite diagrams (see ``is_prime_closure``).

Separately, for 3-braids with at least four syllables there is a sharp
adequacy criterion: the all-A state is adequate iff the word is positive, or
it has no cyclic letter pattern equal to the negative half-twist
sigma_1^-1 sigma_2^-1 sigma_1^-1 (equivalently sigma_2^-1 sigma_1^-1
sigma_2^-1) and every positive syllable has negative cyclic neighbors.  At
syllable granularity the forbidden pattern is a negative syllable of exponent
exactly -1 whose cyclic neighbor syllables are both negative.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import PreconditionError
from .words import SyllableWord, has_cyclic_disjoint_complete_subwords

__all__ = [
    "Cond2Failure",
    "MainLemmaReport",
    "check_main_lemma",
    "stoimenow_A_adequate_3braid",
]


class Cond2Failure(NamedTuple):
    """One positive syllable whose neighborhood condition failed: its index
    into ``word.syllables``, the clause ("2a", "2b" or "2c") and the reason.
    An immutable named tuple ``(syllable, clause, reason)``: it compares by
    value, unpacks like a tuple, and ``_replace`` returns a changed copy."""

    syllable: int
    clause: str
    reason: str


class MainLemmaReport(NamedTuple):
    nice: bool
    cond1: bool  # every negative exponent <= -3
    cond2_failures: tuple[Cond2Failure, ...]
    twist_ok: bool  # t >= 2(n-1)
    passed: bool


def check_main_lemma(word: SyllableWord) -> MainLemmaReport:
    """Evaluate family membership on a syllable word.

    Niceness is read on the closed braid, so every rotation of a word gets
    the same verdict; an unreduced word is never nice, so it never passes.
    The report lists each violated positive-neighborhood clause, at most
    one failure per positive syllable, in syllable order.

    One loop over the syllables reads ``cond1`` and each positive syllable's
    neighbors, every index taken mod t (at t = 1 and 2, i - 2 wraps more
    than once).  A boundary syllable checks its neighbor before it, then the
    one after, exponent first; an interior one checks the four exponents in
    order, then the generators before it, then those after.
    """
    nice = word.cyclically_reduced and has_cyclic_disjoint_complete_subwords(word)
    syl = word.syllables
    t = len(syl)
    n = word.n
    new_tuple = tuple.__new__
    cond1 = True
    failures = []
    for i, (g, r) in enumerate(syl):
        if r < 0:
            if r > -3:
                cond1 = False
            continue
        if g == 1 or g == n - 1:
            # boundary syllable: sigma_1 is also sigma_{n-1} at n = 2 and takes 2a
            clause, want = ("2a", 2) if g == 1 else ("2c", n - 2)
            for h, s in (syl[(i - 1) % t], syl[(i + 1) % t]):
                if s > -3:
                    reason = f"neighbor exponent {s} > -3"
                elif h != want:
                    reason = f"neighbor generator {h} != {want}"
                else:
                    continue
                failures.append(new_tuple(Cond2Failure, (i, clause, reason)))
                break
            continue
        (g2, r2), (g1, r1) = syl[(i - 2) % t], syl[(i - 1) % t]
        (h1, s1), (h2, s2) = syl[(i + 1) % t], syl[(i + 2) % t]
        for e in (r2, r1, s1, s2):
            if e > -3:
                reason = f"neighbor exponent {e} > -3"
                break
        else:
            want = {g - 1, g + 1}
            if {g2, g1} != want:
                reason = f"generators before are {sorted({g2, g1})}"
            elif {h1, h2} != want:
                reason = f"generators after are {sorted({h1, h2})}"
            else:
                continue
        failures.append(new_tuple(Cond2Failure, (i, "2b", reason)))
    twist_ok = t >= 2 * (n - 1)
    passed = nice and cond1 and not failures and twist_ok
    return MainLemmaReport(
        nice=nice,
        cond1=cond1,
        cond2_failures=tuple(failures),
        twist_ok=twist_ok,
        passed=passed,
    )


def stoimenow_A_adequate_3braid(word: SyllableWord) -> bool | None:
    """Sharp A-adequacy test for 3-braid words with at least four syllables.

    Returns None when the word has fewer than four syllables: the criterion
    is only stated for the alternating pattern with l >= 2 blocks, so shorter
    words are out of scope rather than judged.
    """
    if word.n != 3:
        raise PreconditionError("the 3-braid adequacy criterion needs n = 3")
    if not word.cyclically_reduced:
        raise PreconditionError(
            "the 3-braid adequacy criterion needs a cyclically reduced word"
        )
    syl = word.syllables
    t = len(syl)
    if t < 4:
        return None
    if all(r > 0 for _, r in syl):
        return True
    for i in range(t):
        # a lone negative crossing between negative neighbors realizes the
        # forbidden half-twist letter pattern
        if (
            syl[i][1] == -1
            and syl[(i - 1) % t][1] < 0
            and syl[(i + 1) % t][1] < 0
        ):
            return False
    for i in range(t):
        if syl[i][1] > 0:
            if syl[(i - 1) % t][1] > 0 or syl[(i + 1) % t][1] > 0:
                return False
    return True
