import copy
import itertools
import pickle

import pytest
from hypothesis import example, given, settings, strategies as st

from smforge.words import (
    _REGISTRY,
    EMPTY,
    AlphabetMorphism,
    Word,
    WordError,
    atom,
    atoms,
    copy_alphabet,
    cyclic_min,
    free_reduce,
    is_cyclically_reduced,
    reduced_words,
    rotations,
    splice,
    symmetrized_closure,
)

x, y = atoms(["x", "y"])
# The atoms that random sets are drawn from.
POOL = atoms([f"pool{i}" for i in range(40)]) + (x, y)

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)


def W(text):
    return Word.from_tokens(text)


def all_words(alphabet, n):
    """Every word (reduced or not) of length exactly n."""
    sigs = [(a, s) for a in alphabet for s in (1, -1)]
    for tup in itertools.product(sigs, repeat=n):
        yield Word(tup)


class TestAtoms:
    def test_interned(self):
        assert atom("x") is x
        assert atom("zz") is atom("zz")

    def test_ids_positive_and_distinct(self):
        assert x.id != y.id
        assert x.id >= 1 and y.id >= 1

    def test_hash_is_id(self):
        for a in (x, y, atom("zz")):
            assert hash(a) == a.id == a

    @PROPERTY
    @given(st.lists(st.sampled_from(POOL), unique=True, max_size=len(POOL)))
    def test_sets_iterate_as_their_ids_do(self, subset):
        # Every set of atoms iterates in the order of the same set of ids.
        assert ([a.id for a in frozenset(subset)]
                == list(frozenset(a.id for a in subset)))

    def test_an_atom_is_no_sign(self):
        # An atom equals its id, so the atom whose id is 1 equals 1.
        one = next(a for a in _REGISTRY.values() if a.id == 1)
        assert one == 1
        with pytest.raises(WordError, match="bad letter"):
            Word([(x, one)])

    def test_a_bool_is_no_sign(self):
        # True equals 1, but a word spelled with it would write true.
        with pytest.raises(WordError, match="bad letter"):
            Word([(x, True)])

    def test_copies_are_the_interned_atom(self):
        assert copy.copy(x) is x and copy.deepcopy(x) is x
        assert pickle.loads(pickle.dumps((x, -1)))[0] is x

    def test_an_atom_is_its_own_atom(self):
        assert atom(atom("x")) is atom("x")

    def test_words_copy_and_pickle(self):
        w = W("x y^-1 x")
        for dup in (copy.copy(w), copy.deepcopy(w),
                    pickle.loads(pickle.dumps(w))):
            assert dup == w and dup.tokens() == w.tokens()
            assert all(a is b for (a, _), (b, _) in zip(dup, w))

    def test_bad_names(self):
        with pytest.raises(WordError):
            atom("")
        with pytest.raises(WordError):
            atom("a b")
        with pytest.raises(WordError):
            atom("a^2")

    def test_empty_word_token_is_no_name(self):
        # Word.of(atom("ε")).tokens() would read back as the empty word.
        with pytest.raises(WordError, match="empty-word token"):
            atom("ε")
        with pytest.raises(WordError):
            W("x ε^-1")


class TestTokens:
    def test_roundtrip(self):
        for text in ["x", "x^-1", "x y^-1 x", "ε"]:
            assert W(text).tokens() == text

    def test_empty(self):
        assert W("") == EMPTY
        assert W("ε") == EMPTY
        assert EMPTY.tokens() == "ε"

    def test_bad_token(self):
        with pytest.raises(WordError):
            W("x^2")


class TestAlgebra:
    def test_mul_does_not_reduce(self):
        w = W("x") * W("x^-1")
        assert len(w) == 2
        assert free_reduce(w) == EMPTY

    def test_inverse_involution(self):
        for w in all_words([x, y], 3):
            assert w.inverse().inverse() == w

    def test_inverse_cancels(self):
        for w in all_words([x, y], 3):
            assert free_reduce(w * w.inverse()) == EMPTY
            assert free_reduce(w.inverse() * w) == EMPTY

    def test_immutable(self):
        with pytest.raises(AttributeError):
            W("x").letters = ()

    def test_slice_is_a_word_and_index_a_letter(self):
        w = W("x y^-1 x")
        assert type(w[1:]) is Word and w[1:] == W("y^-1 x")
        assert type(w[:0]) is Word and w[:0] == EMPTY
        assert w[1] == (y, -1)

    def test_key_matches_equality(self):
        seen = {}
        for w in all_words([x, y], 2):
            r = free_reduce(w)
            seen.setdefault(r.key(), r)
            assert seen[r.key()] == r


def _stack_pass(letters):
    """Free reduction as a stack that keeps the reduced letters: the
    reference free_reduce must agree with."""
    out = []
    for a, s in letters:
        if out and out[-1][0] is a and out[-1][1] == -s:
            out.pop()
        else:
            out.append((a, s))
    return tuple(out)


_LETTERS = st.sampled_from([(x, 1), (x, -1), (y, 1), (y, -1)])


@st.composite
def _folded_words(draw):
    """Letter tuples of up to 64 letters over {x, y}: a random word with
    up to three pieces u . u^-1 put in, each u random, so cancellations
    come nested, and a piece may go in again, so they repeat."""
    letters = draw(st.lists(_LETTERS, max_size=16))
    for _ in range(draw(st.integers(0, 3))):
        u = draw(st.lists(_LETTERS, max_size=4))
        piece = u + [(a, -s) for a, s in reversed(u)]
        for _ in range(draw(st.integers(1, 2))):
            pos = draw(st.integers(0, len(letters)))
            letters[pos:pos] = piece
    return tuple(letters)


class TestFreeReduce:
    def test_exhaustive_idempotent_and_fixed(self):
        # Every length-<=5 word over {x,y}: reduction is idempotent, and the
        # result has no adjacent cancelling pair.
        for n in range(6):
            for w in all_words([x, y], n):
                r = free_reduce(w)
                assert r.is_reduced()
                assert free_reduce(r) == r
                assert len(r) <= len(w)
                assert (len(w) - len(r)) % 2 == 0

    def test_nested(self):
        assert free_reduce(W("x y y^-1 x^-1 x x")) == W("x x")

    def test_reduced_detects(self):
        assert W("x y").is_reduced()
        assert not W("x x^-1").is_reduced()

    @PROPERTY
    @given(_folded_words())
    @example(W("x x x^-1 x^-1").letters)
    @example(W("x x^-1 x x^-1 x").letters)
    @example(W("y x x^-1 y^-1 y x x^-1 y^-1 y").letters)
    def test_agrees_with_a_plain_stack_pass(self, letters):
        assert free_reduce(Word(letters)).letters == _stack_pass(letters)


def _reduced():
    return st.lists(st.sampled_from([(x, 1), (x, -1), (y, 1), (y, -1)]),
                    max_size=5).map(lambda ls: free_reduce(Word(ls)))


@st.composite
def _reduced_triples(draw):
    """(a.b, b^-1.c, c^-1.d), each piece reduced: the shared b and c make
    deep cancellation at the junctions common, and empty b and c give
    unrelated pieces."""
    a, b, c, d = (draw(_reduced()) for _ in range(4))
    return tuple(free_reduce(u).letters
                 for u in (a * b, b.inverse() * c, c.inverse() * d))


def _check_splice(left, mid, right):
    product, dl, dr = splice(left, mid, right)
    assert product == free_reduce(Word(left + mid + right)).letters
    # Each depth is half the letters lost at its junction.
    inner = free_reduce(Word(left + mid)).letters
    assert 2 * dl == len(left) + len(mid) - len(inner)
    assert 2 * dr == len(inner) + len(right) - len(product)


class TestSplice:
    @PROPERTY
    @given(_reduced_triples())
    def test_agrees_with_free_reduce(self, triple):
        _check_splice(*triple)

    @PROPERTY
    @given(_reduced_triples(),
           st.sampled_from([{0}, {2}, {0, 2}, {1}, {0, 1, 2}]))
    def test_empty_pieces(self, triple, empty):
        # an empty piece is skipped without a scan: left, right or both
        _check_splice(*(() if i in empty else p for i, p in enumerate(triple)))

    def test_mid_cancels_and_left_meets_right(self):
        assert splice(W("x y").letters, W("y^-1").letters,
                      W("x^-1").letters) == ((), 1, 1)

    def test_empty_pieces_pass_through(self):
        # The kernel's splice(pre, (), post) relies on this: with two
        # pieces empty, the third comes back itself, not a copy.
        t = W("x y^-1 x").letters
        assert splice(t, (), ())[0] is t
        assert splice((), t, ())[0] is t
        assert splice((), (), t)[0] is t
        assert splice((), (), ()) == ((), 0, 0)


class TestCyclic:
    def test_rotations_count(self):
        w = W("x y x")
        assert len(rotations(w)) == 3
        assert rotations(EMPTY) == [EMPTY]

    def test_cyclically_reduced(self):
        assert is_cyclically_reduced(W("x y"))
        assert not is_cyclically_reduced(W("x y x^-1"))
        assert not is_cyclically_reduced(W("x x^-1"))

    def test_cyclic_min_is_rotation_invariant(self):
        w = W("y x x")
        for r in rotations(w):
            assert cyclic_min(r) == cyclic_min(w)


class TestSymmetrized:
    def test_single_relator(self):
        got = symmetrized_closure([W("x y")])
        want = {W("x y"), W("y x"), W("y^-1 x^-1"), W("x^-1 y^-1")}
        assert got == want

    def test_counts_against_enumeration(self):
        # Brute-force oracle: collect rotations of r and r^-1 by hand.
        r = W("x x y")
        manual = set()
        for v in (r, r.inverse()):
            for i in range(len(v)):
                manual.add(Word(v.letters[i:] + v.letters[:i]))
        assert symmetrized_closure([r]) == manual

    def test_rejects_non_cyclically_reduced(self):
        with pytest.raises(WordError):
            symmetrized_closure([W("x y x^-1")])
        with pytest.raises(WordError):
            symmetrized_closure([EMPTY])


class TestMorphism:
    def test_copy_alphabet(self):
        m = copy_alphabet([x, y], "{}#1")
        assert m[x].name == "x#1"
        assert m(W("x y^-1")).tokens() == "x#1 y#1^-1"

    def test_distributes_over_product(self):
        m = copy_alphabet([x, y], "{}#d")
        for u in all_words([x, y], 2):
            for v in all_words([x, y], 2):
                assert m(u * v) == m(u) * m(v)
                assert m(u.inverse()) == m(u).inverse()

    def test_injective_required(self):
        z = atom("z#same")
        with pytest.raises(WordError):
            AlphabetMorphism({x: z, y: z})

    def test_outside_domain(self):
        m = copy_alphabet([x], "{}#2")
        with pytest.raises(WordError):
            m(W("y"))


class TestEnumeration:
    def test_reduced_words_count(self):
        # Over k generators: 1 + sum 2k*(2k-1)^(i-1) reduced words up to n.
        ws = list(reduced_words([x, y], 3))
        assert len(ws) == 1 + 4 + 4 * 3 + 4 * 9
        assert len(set(ws)) == len(ws)
        for w in ws:
            assert w.is_reduced()

    def test_deterministic_order(self):
        a = [w.tokens() for w in reduced_words([x, y], 2)]
        b = [w.tokens() for w in reduced_words([y, x], 2)]
        assert a == b

    def test_no_word_is_shorter_than_nothing(self):
        assert list(reduced_words([x, y], -1)) == []
        assert list(reduced_words([x, y], 0)) == [EMPTY]
