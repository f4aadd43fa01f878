"""Property tests for the abelianized obstruction on random presentations.

Presentations have one to three generators and at most three relators,
each a product of at most four powers of generators (exponents up to 5),
so lattice coefficients are large enough to need several Euclid steps.
Examples are derandomized to keep the suite deterministic.
"""
import math

import pytest
from hypothesis import given, settings, strategies as st

from smforge.encode import GroupPresentation, abelianized_trivial
from smforge.words import EMPTY, Word, atoms, free_reduce

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True)


def _power(w, k):
    return Word((w if k > 0 else w.inverse()).letters * abs(k))


def _cyclically_reduce(w):
    w = free_reduce(w)
    while len(w) > 1 and w[0] == (w[-1][0], -w[-1][1]):
        w = Word(w.letters[1:-1])
    return w


@st.composite
def words(draw, gens, max_blocks=4):
    """A product of at most ``max_blocks`` generator powers."""
    blocks = draw(st.lists(st.tuples(st.sampled_from(gens),
                                     st.integers(-5, 5).filter(bool)),
                           max_size=max_blocks))
    w = EMPTY
    for a, k in blocks:
        w = w * _power(Word.of(a), k)
    return w


@st.composite
def presentations(draw, n_gens=st.integers(1, 3)):
    gens = atoms(["x", "y", "z"][:draw(n_gens)])
    rels = [_cyclically_reduce(w)
            for w in draw(st.lists(words(gens), max_size=3))]
    return GroupPresentation(gens, [r for r in rels if r])


def _hnf_reference(p, w):
    """The Hermite-normal-form comparison the lattice test replaced."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form
    v = sympy.Matrix(len(p.generators), 1, list(p.word_vector(w)))
    cols = [p.word_vector(r) for r in p.relators]
    mat = sympy.Matrix(len(p.generators), len(cols), lambda i, j: cols[j][i])
    return hermite_normal_form(mat.row_join(v)) == hermite_normal_form(mat)


@PROPERTY
@given(st.data())
def test_agrees_with_hermite_form(data):
    p = data.draw(presentations())
    w = data.draw(words(p.generators))
    assert abelianized_trivial(p, w) == _hnf_reference(p, w)


@PROPERTY
@given(st.data())
def test_relator_conjugates_and_commutators_pass(data):
    p = data.draw(presentations())
    w = EMPTY
    for _ in range(data.draw(st.integers(0, 4))):
        a = data.draw(words(p.generators, 2))
        if p.relators and data.draw(st.booleans()):
            r = data.draw(st.sampled_from(p.relators))
            factor = _power(r, data.draw(st.integers(-2, 2)))
        else:
            b = data.draw(words(p.generators, 2))
            factor = a * b * a.inverse() * b.inverse()
        w = w * a * factor * a.inverse()
    assert abelianized_trivial(p, w)


@PROPERTY
@given(st.lists(st.integers(-6, 6).filter(bool), max_size=3),
       st.integers(-12, 12))
def test_one_generator_gcd_law(exponents, m):
    x = Word.of("x")
    p = GroupPresentation(["x"], [_power(x, e) for e in exponents])
    g = math.gcd(*exponents)
    assert abelianized_trivial(p, _power(x, m)) == (m % g == 0 if g else m == 0)
