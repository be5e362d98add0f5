"""
The Kauffman bracket as an independent oracle
=============================================

The bracket polynomial is computed exactly, with integer coefficients, by
one sweep down the braid that merges partial smoothings with the same
Temperley-Lieb matching: O(c * Catalan(n) * degree span) work for c
crossings on n strands, with a default cap of 100 crossings.  Its top-end
coefficients verify the rest of the pipeline: for adequate diagrams the top
coefficient is +-1 and the penultimate one equals 1 + (edges - vertices) of
the reduced state graph.
"""

from braidvol.bracket import kauffman_bracket, stable_penultimate_coefficient
from braidvol.states import reduced_graph, resolve_all_A
from braidvol.words import SyllableWord

# small classics first
unknot = SyllableWord(2, ())
print("empty 2-braid closure (two-component unlink):", kauffman_bracket(unknot))

hopf = SyllableWord(2, ((1, 2),))
print("hopf link:", kauffman_bracket(hopf))

trefoil = SyllableWord(2, ((1, 3),))
mirror = SyllableWord(2, ((1, -3),))
p, q = kauffman_bracket(trefoil), kauffman_bracket(mirror)
print("trefoil:", p)
print("mirror: ", q)
print("mirror == A -> 1/A substitution:", q == p.inverted_variable())
print()

# the summary block picks out the degree-end data
word = SyllableWord(3, ((1, -3), (2, -3), (1, -3), (2, -3)))
summary = stable_penultimate_coefficient(word)
print("word:", word.as_text())
print("bracket degree span:", summary.top_degree, "down in steps of 4")
print("top coefficient:", summary.top_coefficient)
print("|penultimate coefficient|:", summary.penultimate_abs)

# ... and matches the reduced graph computed without any polynomial at all
graph = reduced_graph(resolve_all_A(word))
print("1 + neg_chi from the state graph:", 1 + graph.neg_chi)
