"""Seeded generation of braid words that pass the family checker.

Sampling is constructive, not rejection-based: words are assembled so that
every condition holds by construction, and the checker is run once at the
end as a guardrail.

For n = 3 the generator alternates sigma_1/sigma_2 syllables (an even count,
at least four), makes an independent set of cyclic positions positive, and
draws negative exponents from [-negative_cap, -3].  No two positives are
ever cyclically adjacent, so each positive is flanked by long negative
syllables of the other generator.

For n >= 4 the base word is two full sweeps sigma_1 ... sigma_(n-1), all
negative.  Extra syllables come from three insertion shapes:

* a lone negative syllable anywhere its generator differs from both
  neighbors (+1);
* a boundary-positive block, sigma_1^p sigma_2^r after a sigma_2 syllable
  (or mirrored at n-1), so the positive sits between two long negative
  neighbors (+2);
* an interior-positive block sigma_(g-1) sigma_(g+1) sigma_g^p sigma_(g-1)
  sigma_(g+1), all four companions long negative (+5).

Gaps inside previously placed positive blocks are off limits to later
insertions, which is what keeps the required neighborhoods intact.

Insertions are also rejected when they would leave two negative syllables
of the same generator g facing each other across nothing but far-commuting
syllables: the closing smoothing of one and the opening smoothing of the
other would then join into an extra inner circle on columns g, g+1.  Such
circles are fine when the strands pass through a positive syllable on the
way (those are exactly the inner circles the positive syllables account
for) but are never created otherwise, so the medium-circle census stays
pinned to the positive syllable count.  When no insertion point survives
the rejection rules the assembly is retried from scratch with fresh draws.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .errors import OracleError, PreconditionError
from .families import check_main_lemma
from .words import MAX_STRANDS, MAX_WORD_LETTERS, SyllableWord

__all__ = ["GeneratorSpec", "generate_words", "MAX_COUNT"]

MAX_COUNT = 1_000  # words per spec


@dataclass(frozen=True)
class GeneratorSpec:
    """What to generate: strand count, length, exponent ranges, seed."""

    n: int
    syllable_count: int
    negative_cap: int = 8  # negative exponents drawn from [-cap, -3]
    positive_cap: int = 4  # positive exponents drawn from [1, cap]
    seed: int = 0
    count: int = 1

    def __post_init__(self) -> None:
        if self.n < 3:
            raise PreconditionError("generation needs n >= 3")
        if self.syllable_count < 2 * (self.n - 1):
            raise PreconditionError(
                f"infeasible: {self.syllable_count} syllables is below the"
                f" minimum 2(n-1) = {2 * (self.n - 1)}"
            )
        if self.n == 3 and self.syllable_count % 2:
            raise PreconditionError(
                "infeasible: 3-strand words alternate two generators, so the"
                " cyclic syllable count must be even"
            )
        if self.negative_cap < 3:
            raise PreconditionError("negative_cap must be at least 3")
        if self.positive_cap < 1:
            raise PreconditionError("positive_cap must be at least 1")
        if self.count < 1:
            raise PreconditionError("count must be at least 1")
        # the upper limits, so that every word parses back and nothing
        # large is built before a refusal
        if self.n > MAX_STRANDS:
            raise PreconditionError(
                f"strand count {self.n} is above the limit of {MAX_STRANDS}"
            )
        cap = max(self.negative_cap, self.positive_cap)
        letters = self.syllable_count * cap
        if letters > MAX_WORD_LETTERS:
            raise PreconditionError(
                f"words of up to {letters} letters are above the limit of"
                f" {MAX_WORD_LETTERS}"
            )
        if self.count > MAX_COUNT:
            raise PreconditionError(
                f"count {self.count} is above the limit of {MAX_COUNT}"
            )


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


def _scan_bridge(
    word: Sequence[tuple[int, int]], start: int, step: int
) -> bool:
    """Walk away from the negative syllable at ``start`` (downward for
    ``step=+1``, upward for ``-1``) along the two strands its smoothing
    leaves on columns g, g+1.  True when both strands reach the nearest
    same-generator negative syllable without being capped off by an
    adjacent-generator negative and without crossing a positive syllable:
    the two smoothings then close into an extra inner circle."""
    g = word[start][0]
    t = len(word)
    threaded = False
    for offset in range(1, t + 1):
        h, r = word[(start + step * offset) % t]
        if r > 0:
            # positive syllables let the strands pass straight through,
            # brushing columns h and h+1 on the way
            threaded = threaded or h in (g - 1, g, g + 1)
            continue
        if h == g:
            return not threaded
        if h in (g - 1, g + 1):
            return False
    return False


def _has_unthreaded_bridge(
    word: Sequence[tuple[int, int]],
    positions: Iterable[int] | None = None,
) -> bool:
    """True if some negative syllable (at ``positions``, default all)
    closes up with a same-generator neighbor per :func:`_scan_bridge`."""
    idx = range(len(word)) if positions is None else positions
    return any(
        word[i][1] < 0
        and (_scan_bridge(word, i, +1) or _scan_bridge(word, i, -1))
        for i in idx
    )


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
    for _ in range(64):
        word = _assemble_wide(spec, rng)
        if word is not None:
            return word
    raise OracleError(
        f"could not assemble an n={spec.n} word with"
        f" {spec.syllable_count} syllables"
    )


def _assemble_wide(
    spec: GeneratorSpec, rng: random.Random
) -> SyllableWord | None:
    n = spec.n
    word: list[tuple[int, int]] = [
        (g, _neg(spec, rng)) for _ in range(2) for g in range(1, n)
    ]
    extra = spec.syllable_count - len(word)

    # split the extra length into block sizes 5 / 2 / 1
    blocks: list[str] = []
    budget = extra
    # at most half the base gaps take positive blocks, so lone negative
    # syllables always find an unprotected gap afterwards
    max_positive_blocks = n - 1
    while budget >= 5 and n >= 4 and len(blocks) < max_positive_blocks:
        if rng.random() < 0.35:
            blocks.append("interior")
            budget -= 5
        else:
            break
    while budget >= 2 and len(blocks) < max_positive_blocks:
        if rng.random() < 0.5:
            blocks.append("boundary")
            budget -= 2
        else:
            break
    singles = budget

    # positive blocks go to distinct gaps of the all-negative base word
    base_gaps = rng.sample(range(len(word)), len(blocks)) if blocks else []
    protected: set[int] = set()
    for kind, gap in sorted(
        zip(blocks, base_gaps), key=lambda pair: -pair[1]
    ):
        block = _positive_block(kind, spec, rng, n, word, gap)
        if block is not None:
            trial = word[:gap] + block + word[gap:]
            new_negatives = [
                gap + k for k, (_, r) in enumerate(block) if r < 0
            ]
            if _has_unthreaded_bridge(trial, new_negatives):
                block = None
        if block is None:
            singles += 5 if kind == "interior" else 2
            continue
        word[gap:gap] = block
        width = len(block)
        protected = {p if p < gap else p + width for p in protected}
        protected.update(range(gap, gap + width + 1))

    for _ in range(singles):
        inserted = _insert_single_negative(spec, rng, word, protected)
        if inserted is None:
            return None
        word, protected = inserted

    return SyllableWord(n, tuple(word))


def _positive_block(
    kind: str,
    spec: GeneratorSpec,
    rng: random.Random,
    n: int,
    word: list[tuple[int, int]],
    gap: int,
) -> list[tuple[int, int]] | None:
    before = word[gap - 1][0]
    after = word[gap % len(word)][0]
    if kind == "interior":
        choices = [
            g
            for g in range(2, n - 1)
            if before != g - 1 and after != g + 1
        ]
        if not choices:
            return None
        g = rng.choice(choices)
        return [
            (g - 1, _neg(spec, rng)),
            (g + 1, _neg(spec, rng)),
            (g, _pos(spec, rng)),
            (g - 1, _neg(spec, rng)),
            (g + 1, _neg(spec, rng)),
        ]
    # boundary: sigma_1^p needs a sigma_2 on each side, mirrored at n-1
    options = []
    if before == 2 and after != 2:
        options.append([(1, _pos(spec, rng)), (2, _neg(spec, rng))])
    if before == n - 2 and after != n - 2:
        options.append(
            [(n - 1, _pos(spec, rng)), (n - 2, _neg(spec, rng))]
        )
    if not options:
        return None
    return rng.choice(options)


def _insert_single_negative(
    spec: GeneratorSpec,
    rng: random.Random,
    word: list[tuple[int, int]],
    protected: set[int],
) -> tuple[list[tuple[int, int]], set[int]] | None:
    t = len(word)
    candidates = []
    for gap in range(t):
        if gap in protected:
            continue
        before = word[gap - 1][0]
        after = word[gap % t][0]
        candidates.extend(
            (gap, g) for g in range(1, spec.n) if g not in (before, after)
        )
    rng.shuffle(candidates)
    for gap, g in candidates:
        trial = word[:gap] + [(g, _neg(spec, rng))] + word[gap:]
        if _has_unthreaded_bridge(trial, [gap]):
            continue
        protected = {p if p < gap else p + 1 for p in protected}
        return trial, protected
    return None
