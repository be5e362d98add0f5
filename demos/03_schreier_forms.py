"""
Conjugacy normal forms on three strands
=======================================

Two 3-braids close to the same link whenever they are conjugate, and
conjugacy is decidable by rewriting into a normal form C^k * eta, where C
is the full twist and eta alternates positive sigma1 / negative sigma2
blocks.  The normal form also decides hyperbolicity of the closure.
"""

import random

from braidvol.schreier import (
    conjugate_3braids,
    direct_form,
    direct_read_k,
    direct_read_s,
    is_hyperbolic_closure_3braid,
    schreier_normal_form,
)
from braidvol.words import SyllableWord

word = SyllableWord(3, ((1, -3), (2, -3), (1, -3), (2, -3)))
form = schreier_normal_form(word)
print("word:        ", word.as_text())
print("normal form: ", f"k={form.k}", f"eta={form.kind.value}", f"pairs={form.pairs}")
print("s parameter: ", form.s)
print("generic:     ", form.generic)
print()

# conjugating by random elements never changes the form
rng = random.Random(0)
syllables = word.syllables
for _ in range(3):
    m, r = rng.choice([(1, 1), (1, -1), (2, 1), (2, -1)])
    syllables = ((m, r),) + syllables + ((m, -r),)
conjugated = SyllableWord(3, syllables)
print("conjugated word has", conjugated.crossings, "letters")
print("same form:", schreier_normal_form(conjugated) == form)
print("conjugate_3braids agrees:", conjugate_3braids(word, conjugated))
print()

# on family words the whole form can also be read straight off the
# syllables, one pair per negative syllable, without any rewriting
print("direct form equals the sweep:", direct_form(word) == form)
print("direct k:", direct_read_k(word), " direct s:", direct_read_s(word))
print()

# hyperbolicity: generic forms are hyperbolic unless the word is conjugate
# to a two-syllable braid sigma1^p sigma2^q
for syllables in (
    ((1, -3), (2, -3), (1, -3), (2, -3)),
    ((1, -3), (2, -3)),
    ((1, 2), (2, 3)),
    ((1, 1), (2, 1)),
):
    w = SyllableWord(3, syllables)
    verdict = is_hyperbolic_closure_3braid(w)
    label = "hyperbolic" if verdict.hyperbolic else f"not hyperbolic ({verdict.reason})"
    print(f"{w.as_text():<28} {label}")
