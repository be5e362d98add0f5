"""Membership tests for the structured closed-braid family.

The family consists of nice, cyclically reduced braid words whose negative
twist regions are long (exponent at most -3) and whose positive syllables are
isolated between prescribed negative neighbors:

* a positive sigma_1 syllable sits between two negative sigma_2 syllables;
* a positive sigma_{n-1} syllable sits between two negative sigma_{n-2}
  syllables;
* an interior positive sigma_i syllable (2 <= i <= n-2) is framed on each
  side by two negative syllables whose generators are {i-1, i+1}.

Together with twist number t >= 2(n-1) these conditions force the closure to
be a connected, prime, A-adequate, TELC, hyperbolic link, which is what lets
the bound layer run unconditionally on family members.

Separately, for 3-braids with at least four syllables there is a sharp
adequacy criterion: the all-A state is adequate iff the word is positive, or
it has no cyclic letter pattern equal to the negative half-twist
sigma_1^-1 sigma_2^-1 sigma_1^-1 (equivalently sigma_2^-1 sigma_1^-1
sigma_2^-1) and every positive syllable has negative cyclic neighbors.  At
syllable granularity the forbidden pattern is a negative syllable of exponent
exactly -1 whose cyclic neighbor syllables are both negative.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError
from .words import (
    SyllableWord,
    has_cyclic_disjoint_complete_subwords,
    is_nice,
)

__all__ = [
    "Cond2Failure",
    "ImpliedFlags",
    "MainLemmaReport",
    "check_main_lemma",
    "stoimenow_A_adequate_3braid",
]


@dataclass(frozen=True)
class Cond2Failure:
    """One positive syllable whose neighborhood condition failed."""

    syllable: int  # index into word.syllables
    clause: str  # "2a", "2b", or "2c"
    reason: str


@dataclass(frozen=True)
class ImpliedFlags:
    """Diagram properties implied by family membership (all false if not)."""

    connected: bool
    prime: bool
    a_adequate: bool
    telc: bool
    hyperbolic: bool


@dataclass(frozen=True)
class MainLemmaReport:
    nice: bool
    cond1: bool  # every negative exponent <= -3
    cond2_failures: tuple[Cond2Failure, ...]
    twist_ok: bool  # t >= 2(n-1)
    passed: bool
    implied: ImpliedFlags
    nice_cyclic_near_miss: bool  # complete windows exist only cyclically

    def to_json_dict(self) -> dict:
        return {
            "nice": self.nice,
            "cond1": self.cond1,
            "cond2_failures": [
                {"syllable": f.syllable, "clause": f.clause, "reason": f.reason}
                for f in self.cond2_failures
            ],
            "twist_ok": self.twist_ok,
            "pass": self.passed,
            "implied": {
                "connected": self.implied.connected,
                "prime": self.implied.prime,
                "a_adequate": self.implied.a_adequate,
                "telc": self.implied.telc,
                "hyperbolic": self.implied.hyperbolic,
            },
            "nice_cyclic_near_miss": self.nice_cyclic_near_miss,
        }


def _neighborhood_failure(
    word: SyllableWord, i: int
) -> Cond2Failure | None:
    """Check the neighbor condition for the positive syllable at index i."""
    syl = word.syllables
    t = len(syl)
    n = word.n
    m_i = syl[i][0]

    def gen(j: int) -> int:
        return syl[j % t][0]

    def exp(j: int) -> int:
        return syl[j % t][1]

    if m_i in (1, n - 1):
        # boundary syllable: sigma_1 is also sigma_{n-1} at n = 2 and takes 2a
        clause, want = ("2a", 2) if m_i == 1 else ("2c", n - 2)
        for j in (i - 1, i + 1):
            if exp(j) > -3:
                return Cond2Failure(i, clause, f"neighbor exponent {exp(j)} > -3")
            if gen(j) != want:
                return Cond2Failure(
                    i, clause, f"neighbor generator {gen(j)} != {want}"
                )
        return None
    clause = "2b"
    for j in (i - 2, i - 1, i + 1, i + 2):
        if exp(j) > -3:
            return Cond2Failure(i, clause, f"neighbor exponent {exp(j)} > -3")
    want = {m_i - 1, m_i + 1}
    before = {gen(i - 2), gen(i - 1)}
    after = {gen(i + 1), gen(i + 2)}
    if before != want:
        return Cond2Failure(i, clause, f"generators before are {sorted(before)}")
    if after != want:
        return Cond2Failure(i, clause, f"generators after are {sorted(after)}")
    return None


def check_main_lemma(word: SyllableWord) -> MainLemmaReport:
    """Evaluate family membership on a syllable word.

    Words are judged as given; an unreduced word is never nice, so it never
    passes.  The report lists each violated positive-neighborhood clause.
    """
    nice = is_nice(word)
    near_miss = (
        not nice
        and word.cyclically_reduced
        and has_cyclic_disjoint_complete_subwords(word)
    )
    cond1 = all(r <= -3 for _, r in word.syllables if r < 0)
    failures = []
    for i, (_, r) in enumerate(word.syllables):
        if r > 0:
            failure = _neighborhood_failure(word, i)
            if failure is not None:
                failures.append(failure)
    twist_ok = len(word.syllables) >= 2 * (word.n - 1)
    passed = nice and cond1 and not failures and twist_ok
    return MainLemmaReport(
        nice=nice,
        cond1=cond1,
        cond2_failures=tuple(failures),
        twist_ok=twist_ok,
        passed=passed,
        implied=ImpliedFlags(passed, passed, passed, passed, passed),
        nice_cyclic_near_miss=near_miss,
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
