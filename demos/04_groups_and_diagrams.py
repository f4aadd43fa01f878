"""
From machines to groups
=======================

The presentation M(S), trapezia as van Kampen diagrams, conjugator
witnesses, and the modified length.
"""
from smforge import search
from smforge.fixtures import toy_deleter
from smforge.group import (computation_to_trapezium, conjugator_from_accepting,
                           machine_to_group, modified_length, run_dichotomy,
                           trapezium_to_computation, trapezium_to_dot,
                           validate_trapezium)
from smforge.machine import input_configuration, run
from smforge.words import Word, free_reduce

m = toy_deleter()

# Every machine presents a group: tape and state letters plus one
# theta-letter per rule and part, with a relation per rule part and one
# per rule and tape letter.
p = machine_to_group(m)
print(p.name, f"has {len(p.generators)} generators,"
      f" {len(p.relators)} relators")
print("a (theta,q)-relator:", p.relators[3].tokens())

# A computation flattens into a trapezium: one row of cells per step,
# bottom and top spelling the two end configurations.  Validation checks
# every cell against the presentation and every edge for double use —
# that makes the diagram a certificate of triviality for its boundary.
start = input_configuration(m, (Word.from_tokens("y y"),))
comp = run(m, start, Word.from_tokens("del del acc"))
trap = computation_to_trapezium(m, comp)
print("trapezium:", trap.n_cells(), "cells,",
      len(trap.rows), "rows - valid:", validate_trapezium(trap))
print("boundary:", trap.boundary_word().tokens())

# Round trip: the diagram remembers the computation.
assert trapezium_to_computation(trap).history_word() == comp.history_word()

# The DOT export draws the dual graph, one node per cell.
print(trapezium_to_dot(trap).splitlines()[0], "...")

# An accepting computation yields a conjugator: gamma W_acc gamma^-1 is
# the input configuration, read in M(S).
g = conjugator_from_accepting(m, comp)
print("conjugator:", g.tokens(), " length", len(g))
w_in, w_ac = start.to_word(), comp.end.to_word()
conj = free_reduce(g * w_ac * g.inverse())
print("conjugate of the accept word:", conj.tokens(),
      " (equals the start word modulo the cell relators)")

# Modified length counts a theta-letter and its neighboring a-letter as
# one syllable; lone a-letters cost only delta = 1/(2N+2).
for text in ["y", "del.0", "del.0 y", "y del.0 y"]:
    print(f"  |{text}| =", modified_length(m, Word.from_tokens(text)))

# Long histories decompose into maximal one-rule runs, each either short
# or periodic in tape length.
long = run(m, input_configuration(m, (Word.from_tokens("y y y"),)),
           Word.from_tokens("del del del acc"))
for seg in run_dichotomy(m, long):
    print("  run", seg["rule"], "x", seg["length"], "->", seg["status"])
