"""
Tracing all-A states of closed braids
=====================================

Every braid word has a canonical "all-A" smoothing: positive letters pass
the strands straight through, negative letters cap them off in pairs.  The
result is a collection of circles, and the whole analysis pipeline starts
from counting and classifying them.
"""

from braidvol.states import classify_circles, resolve_all_A, twist_counts
from braidvol.words import (
    SyllableWord,
    cyclically_reduce_into_syllables,
    parse_braid,
)

# A braid word can be written syllable by syllable ("s1^-3 s2^2") or as a
# plain list of letters ("1 1 -2").  Both parse to the same flat word, and
# the analysis works on its grouping into syllables.
word = cyclically_reduce_into_syllables(parse_braid("s1^-3 s2^-3 s1^-3 s2^-3", n=3))
print("word:", word.as_text(), " strands:", word.n)

# resolve_all_A sweeps down the diagram letter by letter, merging the
# strands each cap joins into one circle; classify_circles then tags every
# circle with one of six classes.
state = classify_circles(resolve_all_A(word))

print("crossings:", state.crossings)
print("twist counts (t, t+, t-):", twist_counts(state.word))
print()

# The census is the headline: this word is a ladder of negative twist
# regions, so almost everything is a small inner circle.
for klass, count in state.census.items():
    if count:
        print(f"  {klass.value:<26} {count}")
print()

# Per-circle detail: winding says whether the circle wraps the braid axis,
# support lists the generator columns whose caps/cups it touches.
for circle in state.circles:
    print(
        f"circle {circle.id}: {circle.klass.value:<24}"
        f" winding={circle.winding} support={sorted(circle.support)}"
    )
print()

# Mixed signs shift the census: positive syllables produce medium inner
# circles, and one wandering circle always survives on three strands.
mixed = SyllableWord(3, ((1, 3), (2, -3), (1, 2), (2, -4)))
mixed_state = classify_circles(resolve_all_A(mixed))
print("word:", mixed.as_text())
for klass, count in mixed_state.census.items():
    if count:
        print(f"  {klass.value:<26} {count}")
