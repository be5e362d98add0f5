"""Seeded generation of braid words that pass the family checker.

Sampling is constructive, not rejection-based: words are assembled so that
every condition holds by construction, and the checker and the bridge rule
below are run once at the end as a guardrail, the bridge rule in one pass
over the syllables.

For n = 3 the generator alternates sigma_1/sigma_2 syllables (an even count,
at least four), makes an independent set of cyclic positions positive, and
draws negative exponents from [-negative_cap, -3].  No two positives are
ever cyclically adjacent, so each positive is flanked by long negative
syllables of the other generator.

For n >= 4 the base word is two full sweeps sigma_1 ... sigma_(n-1), all
negative, and the word is built in one left-to-right pass over it.  The
gap after each base syllable gets its planned insertions as the pass
reaches it; one that does not fit there waits for the next gap.  Three
insertion shapes:

* a lone negative syllable (+1);
* a boundary-positive block, sigma_1^p sigma_2^r after a negative sigma_2
  (or mirrored at n-1), so the positive sits between two long negative
  neighbors (+2);
* an interior-positive block sigma_(g-1) sigma_(g+1) sigma_g^p sigma_(g-1)
  sigma_(g+1), each pair in either order, all four companions long
  negative (+5).  Where it would leave sigma_(g-1) or sigma_(g+1) open
  before the next base syllable (see below), it takes one planned lone
  negative as a trailing sigma_g^r, as in sigma_2 [sigma_1 sigma_3
  sigma_2^p sigma_1 sigma_3] sigma_2^r sigma_3 at n = 4.

Each positive's required neighbors are inside its block or just before it,
and nothing is inserted into what the pass has already emitted, so the
neighborhoods stay intact.

The bridge rule: two negative syllables of the same generator g must not
face each other across nothing but far-commuting syllables, since the
closing smoothing of one and the opening smoothing of the other would then
join into an extra inner circle on columns g, g+1.  Such circles are fine
when the strands pass through a positive syllable on the way (those are
exactly the inner circles the positive syllables account for) but are
never created otherwise, so the medium-circle census stays pinned to the
positive syllable count.  The pass reads the rule backwards with one flag
per generator g: unknown until a syllable on generators g-1..g+1 is
placed, then open exactly while the last such syllable is a negative
sigma_g, and closed otherwise.  A negative sigma_g goes in only on a closed
flag, so some syllable on g-1..g+1 always comes before it and no bridge
runs back across the closure seam.  An open flag h is safe before the next
base syllable sigma_b when h != b and not (h = 1 and b > 2): the sweep then
closes it with a sigma_(h+-1) before any base sigma_h.  The last gap reads
b = 1, the word's first syllable, which closes the seam.  There a lone
negative sigma_(p+-1) always fits after the last negative sigma_p (p >= 2),
so the last gap takes the lone negatives still due and, as lone negatives,
the blocks no gap took: no assembly is ever retried.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from typing import NamedTuple

from .errors import OracleError, PreconditionError
from .families import check_main_lemma
from .words import MAX_STRANDS, MAX_WORD_LETTERS, SyllableWord, _checked_make
from .words import _integral, _strand_limit_error

__all__ = ["GeneratorSpec", "generate_words", "MAX_COUNT", "MAX_WIDE_SYLLABLES"]

MAX_COUNT = 1_000  # words per spec
# syllables per spec (syllable_count * count) for n >= 4, a hostile-input
# limit: a word costs O(t * n) in its syllable count t, about 4 us per
# syllable at n = 32, so `braidvol gen --n 32` at this limit took 1.0 s and
# 32 MB on a 2-core machine (Python 3.11)
MAX_WIDE_SYLLABLES = 200_000


class _GeneratorSpecFields(NamedTuple):
    n: int
    syllable_count: int
    negative_cap: int  # negative exponents drawn from [-cap, -3]
    positive_cap: int  # positive exponents drawn from [1, cap]
    seed: int
    count: int


class GeneratorSpec(_GeneratorSpecFields):
    """What to generate: strand count, length, exponent ranges, seed.

    An immutable named tuple ``(n, syllable_count, negative_cap,
    positive_cap, seed, count)``; ``_replace`` and ``_make`` check as the
    constructor does, so no spec past a limit is ever built.
    """

    __slots__ = ()

    def __new__(
        cls,
        n: int,
        syllable_count: int,
        negative_cap: int = 8,
        positive_cap: int = 4,
        seed: int = 0,
        count: int = 1,
    ) -> GeneratorSpec:
        n, syllable_count, negative_cap, positive_cap, seed, count = (
            _integral(value, what)
            for value, what in (
                (n, "strand count"),
                (syllable_count, "syllable count"),
                (negative_cap, "negative_cap"),
                (positive_cap, "positive_cap"),
                (seed, "seed"),
                (count, "count"),
            )
        )
        if n < 3:
            raise PreconditionError("generation needs n >= 3")
        if syllable_count < 2 * (n - 1):
            raise PreconditionError(
                f"infeasible: {syllable_count} syllables is below the"
                f" minimum 2(n-1) = {2 * (n - 1)}"
            )
        if n == 3 and syllable_count % 2:
            raise PreconditionError(
                "infeasible: 3-strand words alternate two generators, so the"
                " cyclic syllable count must be even"
            )
        if negative_cap < 3:
            raise PreconditionError("negative_cap must be at least 3")
        if positive_cap < 1:
            raise PreconditionError("positive_cap must be at least 1")
        if count < 1:
            raise PreconditionError("count must be at least 1")
        # the upper limits, so that every word parses back and nothing
        # large is built before a refusal
        if n > MAX_STRANDS:
            raise _strand_limit_error(n)
        cap = max(negative_cap, positive_cap)
        letters = syllable_count * cap
        if letters > MAX_WORD_LETTERS:
            raise PreconditionError(
                f"words of up to {letters} letters are above the limit of"
                f" {MAX_WORD_LETTERS}"
            )
        if count > MAX_COUNT:
            raise PreconditionError(f"count {count} is above the limit of {MAX_COUNT}")
        total = syllable_count * count
        if n >= 4 and total > MAX_WIDE_SYLLABLES:
            raise PreconditionError(
                f"{total} syllables (syllable count times count) is above the"
                f" limit of {MAX_WIDE_SYLLABLES} for n >= 4"
            )
        return tuple.__new__(
            cls, (n, syllable_count, negative_cap, positive_cap, seed, count)
        )

    _make = classmethod(_checked_make)


def generate_words(spec: GeneratorSpec) -> list[SyllableWord]:
    """Deterministic list of ``spec.count`` family words."""
    rng = random.Random(spec.seed)
    words = []
    for _ in range(spec.count):
        word = (
            _generate_3(spec, rng) if spec.n == 3 else _generate_wide(spec, rng)
        )
        report = check_main_lemma(word)
        if not report.passed:
            raise OracleError(
                f"generated word {word.as_text()!r} fails the family checker:"
                f" {report}"
            )
        if _has_unthreaded_bridge(word.syllables):
            raise OracleError(
                f"generated word {word.as_text()!r} joins two same-generator"
                " syllables through far-commuting material"
            )
        words.append(word)
    return words


def _neg(spec: GeneratorSpec, rng: random.Random) -> int:
    return -rng.randint(3, spec.negative_cap)


def _pos(spec: GeneratorSpec, rng: random.Random) -> int:
    return rng.randint(1, spec.positive_cap)


def _has_unthreaded_bridge(word: Sequence[tuple[int, int]]) -> bool:
    """True if two negative syllables of one generator g (or one with
    itself, round the closure) face each other across nothing but
    far-commuting syllables: their smoothings then close into an extra
    inner circle on columns g, g+1.  A syllable on g-1..g+1 between them
    breaks the bridge, a negative one by capping the strands off, a
    positive one by threading them.

    One pass, twice round the word so that the walk from every negative
    syllable ends: flag[g] is True exactly while the last syllable on
    g-1..g+1 is a negative sigma_g, as in :func:`_generate_wide`."""
    flag = [False] * (max(word, default=(0, 0))[0] + 2)
    for g, r in (*word, *word):
        if r < 0 and flag[g]:
            return True
        flag[g - 1] = flag[g + 1] = False
        flag[g] = r < 0
    return False


def _generate_3(spec: GeneratorSpec, rng: random.Random) -> SyllableWord:
    t = spec.syllable_count
    positive = [False] * t
    for i in range(t):
        if rng.random() < 0.3 and not positive[i - 1] and not positive[(i + 1) % t]:
            positive[i] = True
    syllables = tuple(
        (1 + i % 2, _pos(spec, rng) if positive[i] else _neg(spec, rng))
        for i in range(t)
    )
    return SyllableWord(3, syllables)


def _generate_wide(spec: GeneratorSpec, rng: random.Random) -> SyllableWord:
    n = spec.n
    base = [g for _ in range(2) for g in range(1, n)]
    gaps = len(base)
    # split the extra length into block sizes 5 (interior) and 2 (boundary);
    # the rest are lone negatives, each due at a random gap
    spare = spec.syllable_count - gaps  # lone negatives not yet placed
    plan: list[list[int]] = [[] for _ in base]
    for size, chance in ((5, 0.35), (2, 0.5)):
        while spare >= size and rng.random() < chance:
            plan[rng.randrange(gaps)].append(size)
            spare -= size
    due = [0] * gaps
    for _ in range(spare):
        due[rng.randrange(gaps)] += 1

    word: list[tuple[int, int]] = []
    # flag[g]: None (unknown) until a syllable on generators g-1..g+1 is
    # placed, then True (open) exactly while the last one is a negative
    # sigma_g, else False (closed)
    flag: list[bool | None] = [None] * (n + 1)
    b = 1  # the next base generator

    def put(g: int, r: int) -> None:
        word.append((g, r))
        flag[g - 1] = flag[g + 1] = False
        flag[g] = r < 0

    def safe(h: int) -> bool:
        # an open flag h is closed by sigma_(h+-1) before any base sigma_h
        return h != b and not (h == 1 and b > 2)

    def single() -> bool:
        # the closed generators g with safe(g), without a call per generator
        choices = [g for g in range(1 + (b > 2), n) if g != b and flag[g] is False]
        if not choices:
            return False
        put(rng.choice(choices), _neg(spec, rng))
        return True

    def block(size: int) -> bool:
        nonlocal spare
        if size == 2:
            # a positive sigma_e, e = 1 (n - 1), between two negative
            # sigma_p, p = 2 (n - 2); the last syllable is always negative
            p = word[-1][0]
            ends = [e for e in (1, n - 1) if abs(e - p) == 1]
            if not ends or not safe(p):
                return False
            put(rng.choice(ends), _pos(spec, rng))
            put(p, _neg(spec, rng))
            return True
        # an interior positive sigma_g framed by negative sigma_(g-1) and
        # sigma_(g+1) on each side
        choices = [
            g
            for g in range(2, n - 1)
            if flag[g - 1] is False
            and flag[g + 1] is False
            and ((safe(g - 1) and safe(g + 1)) or (spare > 0 and safe(g)))
        ]
        if not choices:
            return False
        g = rng.choice(choices)
        for h in rng.sample((g - 1, g + 1), 2):
            put(h, _neg(spec, rng))
        put(g, _pos(spec, rng))
        for h in rng.sample((g - 1, g + 1), 2):
            put(h, _neg(spec, rng))
        if not (safe(g - 1) and safe(g + 1)):
            spare -= 1  # a trailing sigma_g^-r closes both
            put(g, _neg(spec, rng))
        return True

    carried: list[int] = []  # block sizes waiting for a gap
    owed = 0  # lone negatives due at the gaps passed so far
    for k, g in enumerate(base):
        put(g, _neg(spec, rng))
        b = base[(k + 1) % gaps]
        carried = [size for size in carried + plan[k] if not block(size)]
        owed += due[k]
        while owed and spare and single():
            owed -= 1
            spare -= 1
    # blocks no gap took become lone negatives, which the last gap always
    # takes: a sigma_(p+-1) fits after its last negative sigma_p, p >= 2
    for _ in range(spare + sum(carried)):
        if not single():
            raise OracleError(
                f"no gap takes a lone negative in an n={n} word with"
                f" {spec.syllable_count} syllables"
            )
    return SyllableWord(n, tuple(word))
