"""
Enhancing a machine and encoding a presentation
===============================================

The historical/padded/composed pipeline, and the machine that decides a
group's word problem.
"""
from smforge import search
from smforge.enhance import (accepting_computation_from_history,
                             add_historical_sectors, build_enhanced_standard,
                             compose, pad_locked)
from smforge.encode import EncodeError, emulation_history, presentation_to_machine
from smforge.fixtures import toy_deleter, z2_presentation
from smforge.machine import accept_configuration, input_configuration, run
from smforge.words import Word

s = toy_deleter()

# Stage one records every rule application in fresh "historical"
# sectors; stage two pads the ends with locked sectors; stage three
# composes the padded machine with its own mirror image.
sh = add_historical_sectors(s)
shp = pad_locked(sh)
e = compose(shp)
print("pipeline:", " -> ".join(x.name for x in (s, sh, shp, e)),
      f" ({s.n_parts} -> {e.n_parts} parts)")

# The enhanced machine accepts exactly the same inputs, just slower: an
# accepting history of length t for S yields one of length 7t + 6 here.
inp = (Word.from_tokens("y y"),)
t = search.accepts(s, inp, bound=8).length
h = accepting_computation_from_history(
    e, search.accepts(s, inp, bound=8).history)
print(f"S accepts in {t} steps, E_S in {len(h)} = 7*{t}+6")
comp = run(e, input_configuration(e, inp), h)
print("replays:", comp.ok and comp.end == accept_configuration(e))

# build_enhanced_standard is the three stages in one call.
assert build_enhanced_standard(s).name == e.name

# The encoder turns a finite presentation into a machine whose accepted
# words are exactly the trivial ones.  In <x | x^2> that means even
# exponent sum: emulation_history builds the accepting computation for
# a trivial word directly from an area-oracle filling, and raises for a
# word that is not trivial.
mz = presentation_to_machine(z2_presentation())
print(mz.name, "has", len(mz.rules), "rules")
for text in ["", "x x", "x", "x x x", "x^-1 x^-1"]:
    w = Word.from_tokens(text)
    try:
        h = emulation_history(mz, w, max_area=3)
    except EncodeError:
        verdict = "not trivial"
    else:
        c = run(mz, input_configuration(mz, w), h)
        assert c.end == accept_configuration(mz)
        verdict = f"trivial, accepted in {len(h)} steps"
    print(f"  {text or 'empty':10s} {verdict}")
