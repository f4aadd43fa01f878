import hashlib
import json
import random
import re

import pytest

from smforge import encode
from smforge.encode import (
    IMPOSSIBLE,
    AreaResult,
    DoubledAlphabet,
    EncodeError,
    GroupPresentation,
    abelianized_trivial,
    area_oracle,
    build_tilde_presentation,
    certify_h_invariance,
    emulation_history,
    h_ext,
    history_block_count,
    positivizing_computation,
    presentation_to_machine,
    rule_h_defect,
    stored_relators,
)
from smforge.fixtures import commutator_presentation, z2_presentation
from smforge.machine import (accept_configuration, input_configuration,
                             parse_admissible, run)
from smforge.primitive import build_lr, home_configuration
from smforge.search import BOUNDED, FOUND, accepts
from smforge.serialize import SerializeError, machine_dumps, machine_from_dict
from smforge.words import EMPTY, Word, atom, atoms, free_reduce, reduced_words


def W(text):
    return Word.from_tokens(text)


def H(*signed):
    """History word from (name, sign) pairs."""
    return Word((atom(n), s) for n, s in signed)


class TestPresentation:
    def test_basic(self):
        p = z2_presentation()
        assert [a.name for a in p.generators] == ["x"]
        assert [r.tokens() for r in p.relators] == ["x x"]

    def test_rejects_unreduced_relator(self):
        with pytest.raises(EncodeError, match="cyclically reduced"):
            GroupPresentation(atoms(["x"]), [W("x x x^-1")])
        with pytest.raises(EncodeError, match="cyclically reduced"):
            GroupPresentation(atoms(["x", "y"]), [W("x y x^-1")])

    def test_rejects_empty_relator(self):
        with pytest.raises(EncodeError, match="empty"):
            GroupPresentation(atoms(["x"]), [EMPTY])

    def test_rejects_stray_letters(self):
        with pytest.raises(EncodeError, match="non-generators"):
            GroupPresentation(atoms(["x"]), [W("x z")])

    def test_rejects_repeated_generator(self):
        with pytest.raises(EncodeError, match="repeated"):
            GroupPresentation(atoms(["x", "x"]), [])

    def test_dict_round_trip(self):
        p = commutator_presentation()
        q = GroupPresentation.from_dict(p.to_dict())
        assert q.name == p.name
        assert q.generators == p.generators
        assert q.relators == p.relators
        assert q.dumps() == p.dumps()

    def test_schema_rejects_junk(self):
        doc = z2_presentation().to_dict()
        doc["extra"] = 1
        with pytest.raises(EncodeError, match="bad presentation"):
            GroupPresentation.from_dict(doc)
        doc = z2_presentation().to_dict()
        doc["schema_version"] = 99
        with pytest.raises(EncodeError, match="schema_version"):
            GroupPresentation.from_dict(doc)

    @pytest.mark.parametrize("key, value, message", [
        ("relators", ["x^2"], "bad token 'x^2'"),
        ("generators", ["x y"],
         "atom name 'x y' may not contain whitespace or '^'"),
    ], ids=["relator_token", "generator_name"])
    def test_word_errors_become_encode_errors(self, key, value, message):
        doc = z2_presentation().to_dict()
        doc[key] = value
        with pytest.raises(EncodeError) as info:
            GroupPresentation.from_dict(doc)
        assert type(info.value) is EncodeError
        assert str(info.value) == message

    def test_file_round_trip(self, tmp_path):
        p = z2_presentation()
        path = tmp_path / "z2.json"
        p.save(path)
        q = GroupPresentation.load(path)
        assert q.dumps() == p.dumps()
        # canonical bytes: rewriting changes nothing
        q.save(path)
        assert json.loads(path.read_text(encoding="utf-8"))["name"] == "z2"

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope", encoding="utf-8")
        with pytest.raises(SerializeError, match="not valid JSON"):
            GroupPresentation.load(path)

    def test_word_vector(self):
        p = commutator_presentation()
        assert p.word_vector(W("x y x y^-1")) == (2, 0)
        with pytest.raises(EncodeError, match="not a generator"):
            p.word_vector(W("z"))


class TestDoubledAlphabet:
    def setup_method(self):
        self.d = DoubledAlphabet(atoms(["x", "y"]))

    def test_letters(self):
        assert [a.name for a in self.d.letters] == ["x", "y", "x~", "y~"]

    def test_bar_is_an_involution(self):
        for y in self.d.letters:
            assert self.d.bar(self.d.bar(y)) is y

    def test_positivize_unbar_round_trip(self):
        for w in reduced_words(atoms(["x", "y"]), 3):
            pos = self.d.positivize(w)
            assert all(s == 1 for _, s in pos)
            assert len(pos) == len(w)
            assert self.d.unbar(pos) == w

    def test_mirror(self):
        v = Word.of(self.d.prime(atom("x")), (self.d.prime(atom("y~")), -1))
        assert self.d.mirror(v) == W("x y")

    def test_rejects_foreign_letters(self):
        with pytest.raises(EncodeError):
            self.d.positivize(W("z"))
        with pytest.raises(EncodeError):
            self.d.unprime(W("x"))

    def test_bar_and_unbar_refuse_foreign_letters(self):
        with pytest.raises(EncodeError, match="^'z' is not a doubled letter$"):
            self.d.bar(atom("z"))
        with pytest.raises(EncodeError, match="^'z' is not a doubled letter$"):
            self.d.unbar(W("z"))


class TestStoredRelators:
    def test_z2_keeps_the_inverse(self):
        assert [r.tokens() for r in stored_relators(z2_presentation())] == \
            ["x x", "x^-1 x^-1"]

    def test_rotations_are_deduplicated(self):
        p = GroupPresentation(atoms(["x", "y"]), [W("x y"), W("y x")])
        assert [r.tokens() for r in stored_relators(p)] == \
            ["x y", "y^-1 x^-1"]

    def test_tilde_presentation(self):
        t = build_tilde_presentation(z2_presentation())
        assert [a.name for a in t.generators] == ["x", "x~"]
        assert [r.tokens() for r in t.relators] == ["x x", "x~ x~", "x x~"]
        # the cancellation relator has area one in the tilde group
        assert area_oracle(t, W("x~ x"), 1).area == 1


class TestEncoderMachine:
    def setup_method(self):
        self.m = presentation_to_machine(z2_presentation())

    def test_rule_inventory(self):
        names = sorted(r.name for r in self.m.rules)
        assert names == ["omega", "rho(0,1)", "rho(0,2)", "rho(1,1)",
                         "rho(1,2)", "sigma(x)", "sigma(x~)", "tau1(x)",
                         "tau1(x~)", "tau2(x)", "tau2(x~)"]

    def test_state_letters(self):
        assert len(self.m.parts[0].letters) == 6
        assert [a.name for a in self.m.parts[1].letters] == \
            ["q1.s", "q1.f", "q1.x", "q1.x~", "q1.0.1", "q1.1.1"]

    def test_omega_locks_everything(self):
        om = self.m.rule("omega")
        assert om.locked(0) and om.locked(1)

    def test_reserved_generator_names(self):
        for bad in ("s", "f", "0", "1.2"):
            with pytest.raises(EncodeError, match="collides"):
                presentation_to_machine(GroupPresentation([atom(bad)], []))

    @pytest.mark.parametrize("other, message", [
        ("x~", "the bar 'x~' of generator 'x' is another letter"),
        ("x'", "the prime \"x'\" of generator 'x' is another letter")])
    def test_generator_clashing_with_a_doubled_letter(self, other, message):
        # x~ stands for x^-1 and x' is x's service-tape copy
        with pytest.raises(EncodeError, match=re.escape(message)):
            presentation_to_machine(GroupPresentation(atoms(["x", other]), []))

    def test_serializes(self):
        text = machine_dumps(self.m)
        again = machine_from_dict(json.loads(text))
        assert machine_dumps(again) == text

    def test_sigma_writes_both_tapes(self):
        c0 = input_configuration(self.m)
        c1 = self.m.apply(c0, self.m.rule("sigma(x~)"))
        assert c1.tapes[0] == W("x~")
        assert c1.tapes[1] == W("x~'")


class TestPositivizing:
    def test_single_inverse_letter(self):
        m = presentation_to_machine(z2_presentation())
        assert positivizing_computation(m, W("x^-1")) == \
            H(("tau1(x)", 1), ("tau2(x)", 1))

    def test_mixed_word(self):
        m = presentation_to_machine(commutator_presentation())
        assert positivizing_computation(m, W("x y^-1 x")) == \
            H(("sigma(x)", -1), ("tau1(y)", 1), ("tau2(y)", 1),
              ("sigma(x)", 1))

    def test_positive_words_need_nothing(self):
        m = presentation_to_machine(commutator_presentation())
        assert positivizing_computation(m, W("x y x")) == EMPTY

    def test_runs_to_the_positive_spelling(self):
        m = presentation_to_machine(commutator_presentation())
        d = m.meta["doubled"]
        for w in reduced_words(atoms(["x", "y"]), 3):
            c = run(m, input_configuration(m, w),
                    positivizing_computation(m, w))
            assert c.end.tapes[0] == d.positivize(w)
            assert not c.end.tapes[1]
            assert c.end.states == input_configuration(m).states

    def test_non_input_letter_refused(self):
        m = presentation_to_machine(z2_presentation())
        with pytest.raises(EncodeError, match="^'z' is not an input letter$"):
            positivizing_computation(m, W("z"))

    @staticmethod
    def prepending(m, w):
        """The reference: each letter's block prepended to pre, which
        copies the list built so far, so quadratic in |w|."""
        d = encode._encoder_meta(m)["doubled"]
        pre, post = [], []
        for a, s in free_reduce(w):
            z = a if s > 0 else d.bar(a)
            post += encode._sigma(z, 1)
            pre = ((encode._tau(a, 1) if s < 0 else []) + encode._sigma(z, -1)
                   + pre)
        return free_reduce(Word(pre + post))

    @pytest.mark.parametrize("fixture", [z2_presentation,
                                         commutator_presentation])
    def test_matches_the_prepending_reference(self, fixture):
        p = fixture()
        m = presentation_to_machine(p)
        rng = random.Random(11)
        letters = [(a, s) for a in p.generators for s in (1, -1)]
        for n in (0, 1, 2, 3, 5, 8, 13, 40, 200, 2000):
            w = Word([rng.choice(letters) for _ in range(n)])
            assert positivizing_computation(m, w) == self.prepending(m, w)


class TestAbelianized:
    def test_z2_parity(self):
        p = z2_presentation()
        for k in range(-4, 5):
            w = Word([(atom("x"), 1 if k > 0 else -1)] * abs(k))
            assert abelianized_trivial(p, w) == (k % 2 == 0)

    def test_commutators_pass(self):
        p = commutator_presentation()
        assert abelianized_trivial(p, W("x y x^-1 y^-1"))
        assert abelianized_trivial(p, W("y^-1 x y x^-1"))
        assert not abelianized_trivial(p, W("x y"))

    def test_no_relators(self):
        p = GroupPresentation(atoms(["x"]), [])
        assert abelianized_trivial(p, EMPTY)
        assert not abelianized_trivial(p, W("x"))

    def test_no_generators(self):
        # The trivial presentation: a word is trivial when it reduces away.
        p = GroupPresentation([], [])
        assert abelianized_trivial(p, EMPTY)
        assert abelianized_trivial(p, W("x y y^-1 x^-1"))
        assert not abelianized_trivial(p, W("x"))

    def test_order_five(self):
        p = GroupPresentation(atoms(["x"]), [W("x x x x x")], name="z5")
        hits = [k for k in range(1, 11)
                if abelianized_trivial(p, Word([(atom("x"), 1)] * k))]
        assert hits == [5, 10]


class TestAreaOracle:
    def test_even_powers(self):
        p = z2_presentation()
        for k, a in ((0, 0), (2, 1), (4, 2), (6, 3)):
            res = area_oracle(p, Word([(atom("x"), 1)] * k), 3)
            assert res.status == FOUND and res.area == a

    def test_odd_powers_are_impossible(self):
        res = area_oracle(z2_presentation(), W("x x x"), 5)
        assert res.status == IMPOSSIBLE
        assert not res.found

    def test_bound_limited(self):
        res = area_oracle(z2_presentation(), W("x x x x"), 1)
        assert res.status == BOUNDED

    def test_path_replays(self):
        p = commutator_presentation()
        res = area_oracle(p, W("x y y x^-1 y^-1 y^-1"), 3)
        assert res.found and res.area == 2
        assert res.words[0] == W("x y y x^-1 y^-1 y^-1")
        assert res.words[-1] == EMPTY
        assert len(res.words) == len(res.steps) + 1
        u = res.words[0]
        for (s, pos), nxt in zip(res.steps, res.words[1:]):
            u = free_reduce(Word(u.letters[:pos]) * s * Word(u.letters[pos:]))
            assert u == nxt

    def test_stored_moves_only_use_stored_words(self):
        p = commutator_presentation()
        stored = set(stored_relators(p))
        res = area_oracle(p, W("y^-1 x y x^-1"), 2, moves="stored")
        assert res.found
        assert all(s in stored for s, _ in res.steps)

    def test_deterministic(self):
        p = z2_presentation()
        a = area_oracle(p, W("x x x x"), 3)
        b = area_oracle(p, W("x x x x"), 3)
        assert a.steps == b.steps and a.words == b.words

    def test_unknown_move_set_is_rejected_on_every_path(self):
        # the empty word and an abelianized refutation return early
        for text in ("ε", "x", "x x"):
            with pytest.raises(EncodeError, match="unknown move set 'bogus'"):
                area_oracle(z2_presentation(), W(text), 2, moves="bogus")

    def test_exhausted_capped_search_stays_bounded(self):
        # the length cap makes the search space finite, so running out of
        # words certifies nothing
        w = W("x y x^-1 y^-1")
        for rels, explored in (([W("x x")], 912), ([], 0)):
            res = area_oracle(GroupPresentation(atoms(["x", "y"]), rels), w, 60)
            assert (res.status, res.explored) == (BOUNDED, explored)


def _trivial_words(p, seed, count):
    """Seeded products of one or two conjugates g r^±1 g^-1 of relators,
    with conjugators g of length at most three."""
    rng = random.Random(seed)
    letters = [(a, s) for a in p.generators for s in (1, -1)]
    out = []
    for _ in range(count):
        w = EMPTY
        for _ in range(rng.randint(1, 2)):
            g = Word([rng.choice(letters) for _ in range(rng.randint(0, 3))])
            r = rng.choice(p.relators)
            w = w * g * (r if rng.random() < 0.5 else r.inverse()) * g.inverse()
        out.append(free_reduce(w))
    return out


def test_area_results_are_pinned():
    """Every field of the area oracle's answers, under both move sets, and
    three emulation histories hash to the digest they had before insertions
    were spliced at the junctions."""
    h = hashlib.sha256()
    for seed, p in enumerate((z2_presentation(), commutator_presentation())):
        for w in _trivial_words(p, seed, 16):
            for moves in ("symmetrized", "stored"):
                res = area_oracle(p, w, max_area=2, moves=moves)
                h.update(repr((res.status, res.area,
                               [(s.tokens(), pos) for s, pos in res.steps],
                               [v.tokens() for v in res.words],
                               res.explored)).encode())
    for p, text in ((z2_presentation(), "x x x x"),
                    (z2_presentation(), "x^-1 x^-1"),
                    (commutator_presentation(), "x y y x^-1 y^-1 y^-1")):
        m = presentation_to_machine(p)
        h.update(emulation_history(m, W(text), max_area=3).tokens().encode())
    assert h.hexdigest() == ("15fe203e71a188fdedc5b01bf180f371"
                             "31a75efd472d14315f6d62f082b7d1a1")


def test_wide_area_digest_is_pinned():
    """1,024 answers of the area oracle, over both move sets and max_area
    1 and 2 (a mix of found and bound-limited), hash to the digest they
    had when the oracle ran its own layer loop."""
    h = hashlib.sha256()
    statuses = set()
    for seed, p in enumerate((z2_presentation(), commutator_presentation())):
        for w in _trivial_words(p, 100 + seed, 128):
            for moves in ("symmetrized", "stored"):
                for max_area in (1, 2):
                    res = area_oracle(p, w, max_area, moves=moves)
                    statuses.add(res.status)
                    h.update(repr((res.status, res.area,
                                   [(s.tokens(), pos) for s, pos in res.steps],
                                   [v.tokens() for v in res.words],
                                   res.explored)).encode())
    assert statuses == {FOUND, BOUNDED}
    assert h.hexdigest() == ("0e1fba578e13ae21c257e3c66f5e86da"
                             "6129e6ecfca4b6d100ff1be9b7823328")


def _pinned_presentations():
    """Encoder inputs beyond the two fixtures: a free group, a one-letter
    relator (its rho chain has no middle column), relators that coincide
    up to rotation or inversion, and three generators."""
    return [
        z2_presentation(),
        commutator_presentation(),
        GroupPresentation(atoms(["a", "b"]), [], name="F2"),
        GroupPresentation(atoms(["x", "y"]), [W("x"), W("y y y")], name="Z3"),
        GroupPresentation(atoms(["a", "b"]), [
            W("a b a^-1 b^-1"), W("b a^-1 b^-1 a"), W("b a b^-1 a^-1"),
            W("a a"), W("a^-1 a^-1"), W("b^-1 a b a^-1")], name="collide"),
        GroupPresentation(atoms(["x", "y", "z"]), [
            W("x y x^-1 y^-1 z^-1"), W("x z x^-1 z^-1"), W("y z^-1 y^-1 z"),
            W("x^-1 y^-1 z^-1 z^-1")], name="H3"),
    ]


def test_encoder_machines_are_pinned():
    """Every byte of the encoder machine, its rule names in order, each
    rule's parts and domains, each part's letters and the meta the
    emulation reads, hashed by names and tokens only."""
    h = hashlib.sha256()
    for p in _pinned_presentations():
        m = presentation_to_machine(p)
        meta = m.meta
        h.update(machine_dumps(m).encode())
        h.update(repr([r.name for r in m.rules]).encode())
        for r in m.rules:
            h.update(repr([(rp.frm.name, rp.to.name, rp.left.tokens(),
                            rp.right.tokens()) for rp in r.parts]).encode())
            h.update(repr([sorted(a.name for a in d)
                           for d in r.domains]).encode())
        h.update(repr([[a.name for a in part.letters]
                       for part in m.parts]).encode())
        h.update(repr([meta["kind"], meta["presentation"].dumps(),
                       [y.name for y in meta["doubled"].letters],
                       [r.tokens() for r in meta["stored"]],
                       [r.tokens() for r in meta["positive"]],
                       [(Word._of(k).tokens(), ri)
                        for k, ri in meta["index"].items()]]).encode())
    assert h.hexdigest() == ("6dacdfd5aedb215603feabe7e352604f"
                             "335ceb7dffc54d1c6d5e93ae7cb9cda9")


# Explicit derivations for emulation_history, between them reaching every
# branch of the insertion realizer: a whole relator deleted through the
# inverse rho chain, a forward rho chain with nothing cancelled, a forward
# one whose k > 0 cancelled letters drop a pair and cascade, and popped
# service letters that cancel and that are restored.
_DERIVATIONS = [
    (z2_presentation, "", [("x x", 0), ("x^-1 x^-1", 2)]),
    (z2_presentation, "x x", [("x^-1 x^-1", 1)]),
    (z2_presentation, "x^-1 x^-1", [("x x", 1)]),
    (z2_presentation, "x x", [("x x", 0), ("x^-1 x^-1", 4),
                              ("x^-1 x^-1", 2)]),
    (commutator_presentation, "x y x^-1 y^-1",
     [("x y x^-1 y^-1", 3), ("y x y^-1 x^-1", 6), ("y x y^-1 x^-1", 5)]),
    (commutator_presentation, "y x y^-1 x^-1",
     [("x y x^-1 y^-1", 1), ("x y x^-1 y^-1", 8), ("y x y^-1 x^-1", 5)]),
    (commutator_presentation, "y x y^-1 x^-1",
     [("x y x^-1 y^-1", 3), ("x y x^-1 y^-1", 8), ("y x y^-1 x^-1", 3)]),
]


def test_canonical_histories_are_pinned():
    """The explicit derivations above, seeded oracle derivations and
    positivizing histories of seeded words, on Z2 and the commutator
    presentation, hash to the digest they had when each block had its
    own builder.  Every emulation history is run to acceptance."""
    h = hashlib.sha256()
    for fixture, text, steps in _DERIVATIONS:
        m = presentation_to_machine(fixture())
        w = W(text)
        hist = emulation_history(m, w, steps=[(W(s), pos)
                                              for s, pos in steps])
        assert run(m, input_configuration(m, w), hist).end == \
            accept_configuration(m)
        h.update(hist.tokens().encode())
    for seed, p in enumerate((z2_presentation(), commutator_presentation())):
        m = presentation_to_machine(p)
        rng = random.Random(40 + seed)
        letters = [(a, s) for a in p.generators for s in (1, -1)]
        for w in _trivial_words(p, 20 + seed, 10):
            hist = emulation_history(m, w, max_area=3)
            assert run(m, input_configuration(m, w), hist).end == \
                accept_configuration(m)
            h.update(hist.tokens().encode())
        for _ in range(10):
            w = Word([rng.choice(letters) for _ in range(rng.randint(0, 8))])
            h.update(positivizing_computation(m, w).tokens().encode())
    assert h.hexdigest() == ("1e356c980366a254f28e8696bfc79249"
                             "0a27882731bedbe191d54c496805a358")


class TestEmulation:
    def setup_method(self):
        self.m = presentation_to_machine(z2_presentation())

    def accepting(self, m, w, **kw):
        h = emulation_history(m, w, **kw)
        c = run(m, input_configuration(m, w), h)
        assert c.end == accept_configuration(m)
        return h

    def test_trivial_input(self):
        assert self.accepting(self.m, EMPTY) == H(("omega", 1))
        assert self.accepting(self.m, W("x x^-1")) == H(("omega", 1))

    def test_square_is_three_steps(self):
        h = self.accepting(self.m, W("x x"))
        assert h == H(("rho(0,2)", -1), ("rho(0,1)", -1), ("omega", 1))

    def test_even_powers(self):
        for k in (2, 4, 6, -2, -4):
            w = Word([(atom("x"), 1 if k > 0 else -1)] * abs(k))
            h = self.accepting(self.m, w, max_area=4)
            assert history_block_count(self.m, h)["rho"] == abs(k) // 2

    def test_odd_powers_raise(self):
        with pytest.raises(EncodeError, match="impossible"):
            emulation_history(self.m, W("x x x"))

    def test_commutator_words(self):
        m = presentation_to_machine(commutator_presentation())
        for text, cells in (("x y x^-1 y^-1", 1),
                            ("y^-1 x y x^-1", 1),
                            ("x y y x^-1 y^-1 y^-1", 2),
                            ("y x x y^-1 x^-1 x^-1", 2)):
            h = self.accepting(m, W(text), max_area=3)
            assert history_block_count(m, h)["rho"] == cells

    def test_explicit_steps(self):
        # inserting x^-1 x^-1 at the far end deletes the suffix literally
        h = emulation_history(self.m, W("x x x x"),
                              steps=[(W("x^-1 x^-1"), 4),
                                     (W("x^-1 x^-1"), 2)])
        c = run(self.m, input_configuration(self.m, W("x x x x")), h)
        assert c.end == accept_configuration(self.m)
        assert len(h) == 5

    def test_explicit_steps_refused(self):
        with pytest.raises(EncodeError,
                           match="^'x x x x' is not a stored relator$"):
            emulation_history(self.m, W("x x"), steps=[(W("x x x x"), 0)])
        with pytest.raises(EncodeError, match="^derivation does not end at "
                           "the empty word$"):
            emulation_history(self.m, W("x x"), steps=[])

    def test_rho_blocks_match_the_oracle(self):
        p = commutator_presentation()
        m = presentation_to_machine(p)
        for text in ("x y x^-1 y^-1", "x x y x^-1 x^-1 y^-1"):
            res = area_oracle(p, W(text), 3, moves="stored")
            h = self.accepting(m, W(text), max_area=3)
            assert history_block_count(m, h)["rho"] == res.area


class TestBlockCount:
    def setup_method(self):
        self.m = presentation_to_machine(z2_presentation())

    def test_counts_both_directions(self):
        h = H(("tau1(x)", 1), ("tau2(x)", 1))
        assert history_block_count(self.m, h)["tau"] == 1
        assert history_block_count(self.m, h.inverse())["tau"] == 1

    def test_rho_chain_orientation(self):
        fwd = H(("rho(0,1)", 1), ("rho(0,2)", 1))
        bwd = fwd.inverse()
        assert history_block_count(self.m, fwd)["rho"] == 1
        assert history_block_count(self.m, bwd)["rho"] == 1

    def test_negative_square(self):
        h = emulation_history(self.m, W("x^-1 x^-1"))
        assert history_block_count(self.m, h) == \
            {"sigma": 2, "tau": 2, "rho": 1, "omega": 1}

    def test_reduces_before_counting(self):
        h = H(("sigma(x)", 1), ("rho(0,1)", 1), ("rho(0,1)", -1),
              ("sigma(x)", -1))
        assert history_block_count(self.m, h) == \
            {"sigma": 0, "tau": 0, "rho": 0, "omega": 0}


class TestHInvariant:
    def setup_method(self):
        self.m = presentation_to_machine(z2_presentation())

    def test_input_value(self):
        assert h_ext(self.m, input_configuration(self.m, W("x x x"))) == \
            W("x x x")
        assert h_ext(self.m, accept_configuration(self.m)) == EMPTY

    def test_defects(self):
        stored = self.m.meta["stored"]
        for r in self.m.rules:
            d = rule_h_defect(self.m, r)
            if r.name == "rho(0,1)":
                assert d == stored[0]
            elif r.name == "rho(1,1)":
                assert d == stored[1]
            else:
                assert d == EMPTY

    @pytest.mark.parametrize("config, message", [
        ("q0.s q0.s^-1", "standard three-part configuration expected"),
        ("q0.s q1.f q2.s", r"state columns out of step: \['s', 'f', 's'\]"),
    ], ids=["off_base", "out_of_step"])
    def test_h_ext_refusals(self, config, message):
        with pytest.raises(EncodeError, match=f"^{message}$"):
            h_ext(self.m, parse_admissible(self.m.hw, config))

    def test_other_machines_configuration_refused(self):
        """An LR home configuration lies on a standard three-part base, but
        its state letters are not the encoder's."""
        m = build_lr(["a"])
        with pytest.raises(EncodeError, match="^unexpected state letter 'p1'$"):
            h_ext(self.m, home_configuration(m, W("a")))

    def test_non_encoder_refused(self):
        m = build_lr(["a"])
        with pytest.raises(EncodeError, match="^'LR' is not an encoder machine$"):
            h_ext(m, input_configuration(m))

    def test_unexpected_right_write(self):
        with pytest.raises(EncodeError,
                           match=r"^tau1\(a\): unexpected right write$"):
            rule_h_defect(self.m, build_lr(["a"]).rule("tau1(a)"))

    def test_constant_along_computations(self):
        m = presentation_to_machine(commutator_presentation())
        p = m.meta["presentation"]
        w = W("x y x^-1 y^-1")
        h = emulation_history(m, w, max_area=2)
        c = run(m, input_configuration(m, w), h)
        values = [h_ext(m, aw) for aw in c.configs]
        # the class, not the word, is constant: successive quotients die
        for a, b in zip(values, values[1:]):
            res = area_oracle(p, a * b.inverse(), 2)
            assert res.found

    def test_certification(self):
        cert = certify_h_invariance(self.m)
        assert set(cert) == {r.name for r in self.m.rules}
        assert all(res.found for res in cert.values())

    def test_odd_inputs_never_accepted(self):
        # certified invariant plus the parity obstruction closes every
        # bound; the bounded search agrees on what it can see
        certify_h_invariance(self.m)
        p = self.m.meta["presentation"]
        for k in (1, 3):
            w = Word([(atom("x"), 1)] * k)
            assert not abelianized_trivial(p, w)
            assert accepts(self.m, w, bound=6).status != FOUND
