"""
From a braid word to two-sided volume bounds
============================================

Words that pass the family checker (long negative syllables, properly
neighbored positives, enough twist regions) have hyperbolic closures, and
the volume is pinched between explicit linear functions of the diagram
data.  This demo runs the gate and evaluates every bound that applies.
"""

from braidvol.bounds import cor_bounds, jones_bounds, three_braid_s_bounds, volume_bounds
from braidvol.families import check_main_lemma
from braidvol.states import reduced_graph, resolve_all_A
from braidvol.words import SyllableWord


def pipeline(word):
    state = resolve_all_A(word)
    return state, reduced_graph(state)


# --- the gate ------------------------------------------------------------

word = SyllableWord(3, ((1, -3), (2, -3), (1, -3), (2, -3)))
report = check_main_lemma(word)
print("word:", word.as_text())
print("nice:", report.nice, " cond1:", report.cond1, " twist_ok:", report.twist_ok)
print("passes:", report.passed)

# a failing word, for contrast: the -2 exponent is too short
short = SyllableWord(3, ((1, -2), (2, -3)))
print("short word passes:", check_main_lemma(short).passed)
print()

# --- the bounds ----------------------------------------------------------

state, graph = pipeline(word)
b = volume_bounds(word, state, graph)
print(f"volume ({b.case.value}):  {b.lower:.6f} <= vol <= {b.upper:.6f}")
print(f"  weak form lower: {b.lower_weak:.6f}")
print(f"  inputs: {b.inputs}")

# the same lower bound comes out of the reduced state graph alone
c = cor_bounds(graph.neg_chi, b.inputs["t"])
print(f"graph form:       {c.lower:.6f} <= vol <= {c.upper:.6f}")
print()

# beta' = 1 + (edges - vertices) of the reduced graph drives a second,
# coarser pair of bounds
j = jones_bounds(word, state, graph)
print(
    f"beta' = {j.inputs['beta_prime']}:"
    f"  {j.lower:.6f} <= vol <= {j.upper:.6f}"
)
print()

# --- the s-parameter ladder ----------------------------------------------

# On three strands the twist number t- doubles as the parameter s of the
# conjugacy normal form.  Two lower bounds compete: one is sharper for
# small s, the other takes over near s = 690.
for s in (4, 100, 689, 690):
    schreier, fkp, sharper = three_braid_s_bounds(s)
    print(
        f"s={s:>4}: schreier {schreier.lower:>10.4f}"
        f"  fkp {fkp.lower:>10.4f}  sharper={sharper.value}"
    )

# Wider braids subtract a circle-count overhead from the lower bound.
wide = SyllableWord(4, ((2, 2), (1, -3), (3, -3), (2, -4), (1, -3), (3, -4)))
state, graph = pipeline(wide)
b = volume_bounds(wide, state, graph)
print()
print("wide word:", wide.as_text())
print(f"volume ({b.case.value}): {b.lower:.6f} <= vol <= {b.upper:.6f}")
