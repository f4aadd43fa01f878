"""Free-group words over interned atoms.

Atoms are the indivisible symbols everything else is built from: tape
letters, state letters, rule letters in presentations.  They are interned
globally by name, so two alphabets that mention the same name share the
same atom.  An atom is an int equal to its id, so that sets, dicts and
tuples of atoms hash and compare in C.  A Word is an immutable sequence of
signed atoms, and its letters are its hashable key; nothing here reduces
automatically.  Free reduction is an explicit step: ``free_reduce``
for arbitrary words, and ``splice`` for a product of three pieces that are
each already reduced, where only the two junctions can cancel: it runs
one junction scan, ``_join``, at each of them.  ``free_reduce`` keeps the
survivors of the one free-reduction scan, ``_cancellations``, whose
pairing of cancelled letters the trapezium rows read too.
"""
from __future__ import annotations

from typing import Iterable, Iterator, Mapping


class SmforgeError(ValueError):
    """Base class of the errors this package raises."""


class WordError(SmforgeError):
    pass


class InvariantError(SmforgeError):
    """A self-check failed: a bug in this package, not bad input."""


class Atom(int):
    """An interned symbol: an int equal to its id, which is also its hash.
    Interning makes two atoms with the same id the same atom, and copies
    and unpickled atoms are interned by name too."""

    def __new__(cls, id: int, name: str):
        self = int.__new__(cls, id)
        self.id = id
        self.name = name
        return self

    def __repr__(self):
        return f"Atom({self.name})"

    def __reduce__(self):
        return atom, (self.name,)


_REGISTRY: dict[str, Atom] = {}


def atom(name: str | Atom) -> Atom:
    """The unique atom with this display name, created if new; an atom is
    its own atom.  Only a new name is validated: the empty-word token is
    no name, or a one-letter word would read back empty."""
    a = _REGISTRY.get(name)
    if a is not None:
        return a
    if isinstance(name, Atom):
        return name
    if not name:
        raise WordError("atom name must be nonempty")
    if name == EMPTY_TOKEN:
        raise WordError(f"atom name {name!r} is the empty-word token")
    if any(c.isspace() for c in name) or "^" in name:
        raise WordError(f"atom name {name!r} may not contain whitespace or '^'")
    a = _REGISTRY[name] = Atom(len(_REGISTRY) + 1, name)
    return a


def atoms(names: Iterable[str]) -> tuple[Atom, ...]:
    return tuple(atom(n) for n in names)


Letter = tuple[Atom, int]

EMPTY_TOKEN = "ε"  # ε


class Word:
    """Immutable word in the free group on the atom registry.

    Letters are (atom, sign) pairs with sign in {+1, -1}.  Multiplication
    concatenates without reducing; use free_reduce().  The
    constructor checks its letters; words derived from valid words
    (products, inverses, slices, rotations) are built unchecked.
    """

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[Letter] = ()):
        letters = tuple(letters)
        for a, s in letters:
            # An atom equals its id and True equals 1, but neither is a
            # sign: only the ints 1 and -1 are.
            if (not isinstance(a, Atom) or type(s) is not int
                    or s not in (1, -1)):
                raise WordError(f"bad letter {(a, s)!r}")
        _set_letters(self, letters)

    @classmethod
    def _of(cls, letters: tuple) -> "Word":
        """A Word from a tuple of letters known to be valid, unchecked."""
        w = _new(cls)
        _set_letters(w, letters)
        return w

    def __setattr__(self, *a):
        raise AttributeError("Word is immutable")

    def __reduce__(self):  # copies and pickles rebuild past the guard
        return Word, (self.letters,)

    def __deepcopy__(self, memo):  # immutable, so shared, as tuples are
        return self

    # -- construction ------------------------------------------------------

    @staticmethod
    def of(*items) -> "Word":
        """Build a word from atoms, names, or (atom, sign) pairs."""
        letters = [it if isinstance(it, tuple) else (it, 1) for it in items]
        return Word([(atom(a), s) for a, s in letters])

    @staticmethod
    def from_tokens(text: str) -> "Word":
        """Parse the serialization format: space-separated tokens, each
        ``name`` or ``name^-1``; the single token ε denotes the empty word."""
        text = text.strip()
        if text == "" or text == EMPTY_TOKEN:
            return Word()
        letters = []
        for tok in text.split():
            if tok.endswith("^-1"):
                letters.append((atom(tok[:-3]), -1))
            elif "^" in tok:
                raise WordError(f"bad token {tok!r}")
            else:
                letters.append((atom(tok), 1))
        return Word(letters)

    def tokens(self) -> str:
        if not self.letters:
            return EMPTY_TOKEN
        return " ".join(a.name if s > 0 else f"{a.name}^-1" for a, s in self.letters)

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other: "Word") -> "Word":
        return Word._of(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word._of(tuple([(a, -s) for a, s in reversed(self.letters)]))

    def is_reduced(self) -> bool:
        return len(free_reduce(self)) == len(self.letters)

    # -- views -------------------------------------------------------------

    def __len__(self):
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Word._of(self.letters[i])
        return self.letters[i]

    def __bool__(self):
        return bool(self.letters)

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        return f"Word({self.tokens()})"

    def key(self) -> tuple[Letter, ...]:
        """Hashable key: the letters themselves, which hash in C."""
        return self.letters

    def sort_key(self):
        return (len(self.letters), tuple((a.name, -s) for a, s in self.letters))


# The slot's own setter writes past the immutability guard.
_set_letters = Word.letters.__set__
_new = object.__new__
EMPTY = Word()


def _cancellations(letters: tuple) -> tuple[list, list]:
    """The one free-reduction scan, a single stack pass: partner[t] is the
    position of the letter that letter t cancels against, or None, and
    survivors lists, in order, the positions whose letters spell the
    reduced word."""
    partner: list = [None] * len(letters)
    survivors: list[int] = []
    for t, (a, s) in enumerate(letters):
        if survivors and letters[survivors[-1]] == (a, -s):
            u = survivors.pop()
            partner[u], partner[t] = t, u
        else:
            survivors.append(t)
    return partner, survivors


def free_reduce(w: Word) -> Word:
    """Free reduction: the letters that survive the one scan."""
    letters = w.letters
    return Word._of(tuple([letters[t] for t in _cancellations(letters)[1]]))


def _join(left: tuple, right: tuple) -> tuple[tuple, int]:
    """The reduced product of two reduced letter tuples, with the number
    of letters cancelled at their junction; an empty piece passes the
    other through."""
    if not left or not right:
        return left or right, 0
    n, i = len(left), 0
    k = n if n < len(right) else len(right)
    while i < k:
        (a, s), (b, t) = left[-1 - i], right[i]
        if a is not b or s != -t:
            break
        i += 1
    return left[:n - i] + right[i:], i


def splice(left: tuple, mid: tuple, right: tuple) -> tuple[tuple, int, int]:
    """The reduced product of three reduced letter tuples, with the number
    of letters cancelled at the left junction (left against mid) and then
    at the right one (what is left of left.mid against right).  Each
    junction is one _join, so every piece must already be reduced; an
    empty piece passes through without a scan or a copy."""
    inner, i = _join(left, mid)
    product, j = _join(inner, right)
    return product, i, j


def rotations(w: Word) -> list[Word]:
    if not w:
        return [w]
    return [Word._of(w.letters[i:] + w.letters[:i]) for i in range(len(w))]


def is_cyclically_reduced(w: Word) -> bool:
    """w and all its rotations are reduced, exactly when w.w is."""
    return (w * w).is_reduced()


def cyclic_min(w: Word) -> Word:
    """Canonical representative of the rotation class (lexicographic minimum)."""
    return min(rotations(w), key=lambda v: v.sort_key())


def symmetrized_closure(relators: Iterable[Word]) -> frozenset[Word]:
    """All cyclic permutations of the relators and their inverses.

    Every relator must be cyclically reduced and nonempty.
    """
    out = set()
    for r in relators:
        if not r:
            raise WordError("empty relator")
        if not is_cyclically_reduced(r):
            raise WordError(f"relator {r.tokens()!r} is not cyclically reduced")
        for v in (r, r.inverse()):
            out.update(rotations(v))
    return frozenset(out)


class AlphabetMorphism:
    """An injective atom-to-atom map, applied letterwise to words."""

    def __init__(self, mapping: Mapping[Atom, Atom]):
        self.mapping = dict(mapping)
        if len(set(self.mapping.values())) != len(self.mapping):
            raise WordError("alphabet morphism is not injective")

    def __getitem__(self, a: Atom) -> Atom:
        return self.mapping[a]

    def __call__(self, w: Word) -> Word:
        try:
            return Word(tuple((self.mapping[a], s) for a, s in w.letters))
        except KeyError as e:
            raise WordError(f"letter {e.args[0]!r} outside morphism domain") from None


def copy_alphabet(base: Iterable[Atom], fmt: str) -> AlphabetMorphism:
    """Deterministic renaming copy of an alphabet, e.g. fmt='{}#1'."""
    return AlphabetMorphism({a: atom(fmt.format(a.name)) for a in base})


def reduced_words(alphabet: Iterable[Atom], max_len: int) -> Iterator[Word]:
    """All reduced words of length <= max_len, breadth-first in name order;
    derived from the alphabet's atoms, they are built unchecked."""
    if max_len < 0:
        return
    sigs = []
    for a in sorted(alphabet, key=lambda a: a.name):
        sigs.extend([(a, 1), (a, -1)])
    frontier = [()]
    yield Word._of(())
    for _ in range(max_len):
        nxt = []
        for tup in frontier:
            for let in sigs:
                if tup and tup[-1][0] is let[0] and tup[-1][1] == -let[1]:
                    continue
                new = tup + (let,)
                nxt.append(new)
                yield Word._of(new)
        frontier = nxt
