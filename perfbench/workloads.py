"""Seeded corpora for the braidvol benchmark.

Each workload is a list of ``(n, text)`` lines, grouped by strand count and
ordered by size inside each group.  ``batch`` needs one strand count per
call, so its input files are cut from consecutive lines and its JSONL
output lines up with the corpus order.

Sizes are fixed per workload (evenly spaced over the stated range); only the
content of each word comes from the seed.  The latency distribution, which
follows word size closely, therefore changes little from seed to seed, while
every seed still measures different words.

braidvol is imported inside the functions, not at module level: the runner
re-imports the package on every set-up, and the corpus has to be built with
the package that is then measured.
"""

from __future__ import annotations

import random
from typing import Callable

ANALYZE = "analyze"  # parse -> reduce -> analyze -> json.dumps, and `batch`
VERIFY = "verify"  # verify(word)

# name -> (operation, why).  The why is the one-line reason recorded in
# BENCHMARK.json; DESIGN.md gives the measured shares behind it.
WORKLOADS: dict[str, tuple[str, str]] = {
    "family3": (
        ANALYZE,
        "n=3 family words, 8-200 syllables: hyperbolicity is the largest"
        " layer and bracket is never called",
    ),
    "family_wide": (
        ANALYZE,
        "family words at n=4,5,8 up to 200 syllables: resolve_all_A"
        " dominates and schreier is bypassed",
    ),
    "random_words": (
        ANALYZE,
        "uniform random letters at n=3,4,6,8, 60-600 letters: short"
        " syllables, free cancellation, the family gate always fails",
    ),
    "oracle_verify": (
        VERIFY,
        "n=3 family words with 10-14 crossings through verify(): the"
        " brute-force bracket oracle is about 99% of the time",
    ),
}

FAMILY3_SYLLABLES = range(8, 201, 2)  # 97 words, every even count 8..200
FAMILY_WIDE_N = (4, 5, 8)
FAMILY_WIDE_PER_N = 40
RANDOM_N = (3, 4, 6, 8)
RANDOM_PER_N = 24
RANDOM_LETTERS = (60, 600)
ORACLE_CROSSINGS = range(10, 15)
ORACLE_PER_CROSSING = 4


def operation(workload: str) -> str:
    return WORKLOADS[workload][0]


def build(
    workload: str, seed: int, generate: Callable | None = None
) -> list[tuple[int, str]]:
    """The corpus of ``workload`` for ``seed``, as ``(n, text)`` lines.

    ``generate`` replaces ``braidvol.generate_words`` (the traced run passes
    a wrapper that records a span around each call).
    """
    from braidvol import GeneratorSpec, generate_words

    gen = generate or generate_words
    rng = random.Random(f"perfbench:{workload}:{seed}")

    def family(n: int, syllables: int, **caps: int) -> list:
        spec = GeneratorSpec(
            n=n, syllable_count=syllables, seed=rng.randrange(2**32), **caps
        )
        return gen(spec)

    if workload == "family3":
        return [(3, family(3, s)[0].as_text()) for s in FAMILY3_SYLLABLES]
    if workload == "family_wide":
        return [
            (n, family(n, s)[0].as_text())
            for n in FAMILY_WIDE_N
            for s in _spread(2 * (n - 1), 200, FAMILY_WIDE_PER_N)
        ]
    if workload == "random_words":
        return [
            (n, " ".join(str(_random_letter(rng, n)) for _ in range(length)))
            for n in RANDOM_N
            for length in _spread(*RANDOM_LETTERS, RANDOM_PER_N)
        ]
    if workload == "oracle_verify":
        return _oracle_corpus(family)
    raise KeyError(f"unknown workload {workload!r}")


def _spread(lo: int, hi: int, count: int) -> list[int]:
    """``count`` integers evenly spaced from ``lo`` to ``hi`` inclusive."""
    return [lo + round(i * (hi - lo) / (count - 1)) for i in range(count)]


def _random_letter(rng: random.Random, n: int) -> int:
    return rng.choice((-1, 1)) * rng.randint(1, n - 1)


def _oracle_corpus(family: Callable) -> list[tuple[int, str]]:
    """``ORACLE_PER_CROSSING`` four-syllable 3-braid family words for each
    crossing count in ``ORACLE_CROSSINGS``, drawn from the generator and
    kept in the order they are drawn until every bucket is full."""
    buckets: dict[int, list[str]] = {c: [] for c in ORACLE_CROSSINGS}
    while any(len(b) < ORACLE_PER_CROSSING for b in buckets.values()):
        for word in family(3, 4, negative_cap=5, positive_cap=3, count=16):
            bucket = buckets.get(word.crossings)
            if bucket is not None and len(bucket) < ORACLE_PER_CROSSING:
                bucket.append(word.as_text())
    return [(3, text) for c in ORACLE_CROSSINGS for text in buckets[c]]
