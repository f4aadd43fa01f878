"""Acceptance suite: one test per shipped guarantee, each aggregating an
exhaustive or certified check at desk scale.  Counts frozen into the
asserts come from the deterministic enumerations themselves; a drift
means the semantics changed, not just the test."""
import itertools
import random
import time
from fractions import Fraction

from smforge import search
from smforge.encode import (abelianized_trivial, certify_h_invariance,
                            emulation_history, history_block_count,
                            presentation_to_machine)
from smforge.enhance import (accepting_computation_from_history,
                             build_enhanced_standard)
from smforge.fixtures import (one_sector_left_multiplier, paired_multiplier,
                              toy_deleter, two_sided_multiplier,
                              z2_presentation)
from smforge.group import (computation_to_trapezium, conjugator_from_accepting,
                           dehn_cell_bound_check, letter_types,
                           machine_to_group, modified_length,
                           modified_length_from_types, trapezium_to_computation,
                           validate_trapezium)
from smforge.machine import (AdmissibleWord, accept_configuration,
                             input_configuration, run)
from smforge.primitive import (build_lr, home_configuration,
                               standard_lr_computation)
from smforge.words import (EMPTY, Word, atom, atoms, free_reduce,
                           reduced_words)

Y = atom("y")


def y_power(k: int) -> Word:
    return Word([(Y, 1 if k >= 0 else -1)] * abs(k))


def a_len(c: AdmissibleWord) -> int:
    return sum(len(t) for t in c.tapes)


def test_01_primitive_exactness():
    # LR({y}), each reduced u with ||u|| <= 4: the minimal computation
    # between the two home configurations is the standard copy, of
    # length exactly 2||u|| + 1.
    t0 = time.monotonic()
    m = build_lr(["y"])
    for k in range(-4, 5):
        u = y_power(k)
        res = search.bfs_reach(m, home_configuration(m, u, 1),
                               home_configuration(m, u, 2), 9)
        assert res.status == search.FOUND
        assert res.length == 2 * len(u) + 1
        assert res.history == standard_lr_computation(m, u)
    assert time.monotonic() - t0 < 10


def test_02_primitive_time_bound():
    # Exhaustive sweep of reduced LR({y}) computations in the standard
    # base, histories <= 9, both endpoint a-lengths <= 3: every one
    # satisfies t <= 2 max(|W_0|_a, |W_t|_a) + 1.  The prune only cuts
    # branches that cannot return to a-length <= 3 in the remaining
    # steps (each step moves the a-length by at most 2).
    t0 = time.monotonic()
    m = build_lr(["y"])
    y1, y2 = atom("y#1"), atom("y#2")
    D = 9

    def prune(c, depth):
        return a_len(c) - 2 * (D - depth) > 3

    starts = []
    for states in itertools.product(*[p.letters for p in m.parts]):
        for t1 in reduced_words([y1], 3):
            for t2 in reduced_words([y2], 3):
                if len(t1) + len(t2) <= 3:
                    starts.append(AdmissibleWord(
                        m.hw, [(q, 1) for q in states], [t1, t2]))
    assert len(starts) == 200

    seen = checked = 0
    for start in starts:
        n0 = a_len(start)
        for steps, end in search.reduced_computations(m, start, D, prune=prune):
            seen += 1
            if a_len(end) <= 3:
                checked += 1
                assert len(steps) <= 2 * max(n0, a_len(end)) + 1
    assert (seen, checked) == (1326, 514)
    assert time.monotonic() - t0 < 60


def _factorable(lens, steps):
    """Existence of H = H1 H2^l H2bar H3: prefix all -2, suffix all +2,
    middle constant and equal to ||H2|| with the rules exactly periodic
    (or shorter than one period)."""
    t = len(steps)
    deltas = [lens[i + 1] - lens[i] for i in range(t)]
    for h1 in range(t + 1):
        if any(d != -2 for d in deltas[:h1]):
            break
        for h3 in range(t - h1 + 1):
            if any(d != 2 for d in deltas[t - h3:]):
                continue
            mid = steps[h1:t - h3]
            if not mid:
                return True
            c = lens[h1]
            if c == 0 or any(deltas[i] != 0 for i in range(h1, t - h3)):
                continue
            if len(mid) < c or all(mid[i] == mid[i % c] for i in range(len(mid))):
                return True
    return False


def test_03_multiplication_histories():
    t0 = time.monotonic()

    # One-letter multiplication, standard base: the history is the
    # right-to-left copy of the reduced u_t u_0^-1, lengths are convex
    # and bounded by the endpoints.
    m = one_sector_left_multiplier(("a", "b"))
    ab = atoms(["a", "b"])
    rule_letter = {f"mul({a.name})": a for a in ab}
    D = 8

    def prune(c, depth):
        return len(c.tapes[0]) - (D - depth) > 4

    seen = 0
    for u0 in reduced_words(ab, 4):
        start = AdmissibleWord(m.hw, [(atom("Q0"), 1), (atom("Q1"), 1)], [u0])
        for steps, end in search.reduced_computations(m, start, D, prune=prune):
            seen += 1
            ut = end.tapes[0]
            v = free_reduce(ut * u0.inverse())
            assert v.letters == tuple(
                (rule_letter[r.name], s) for r, s in reversed(steps))
            assert len(steps) <= len(u0) + len(ut)
            lens = [len(u0)]
            c = start
            for r, s in steps:
                c = m.try_apply(c, r, s)
                lens.append(len(c.tapes[0]))
            for j in range(1, len(lens) - 1):
                if lens[j - 1] < lens[j]:
                    assert lens[j] < lens[j + 1]
            assert max(lens) <= max(lens[0], lens[-1])
    assert seen == 222913

    # Two-letter multiplication: both sides written in one step halves
    # the history bound.
    pm = paired_multiplier(("a", "b"))
    seen = 0
    for u0 in reduced_words(pm.sector_alphabets[0], 2):
        start = AdmissibleWord(pm.hw, [(atom("Q0"), 1), (atom("Q1"), 1)], [u0])
        for steps, end in search.reduced_computations(pm, start, 4):
            seen += 1
            lens = [len(u0)]
            c = start
            for r, s in steps:
                c = pm.try_apply(c, r, s)
                lens.append(len(c.tapes[0]))
            for j in range(1, len(lens) - 1):
                if lens[j - 1] < lens[j]:
                    assert lens[j] < lens[j + 1]
            assert max(lens) <= max(lens[0], lens[-1])
            assert 2 * len(steps) <= lens[0] + lens[-1]
    assert seen == 10465

    # Mirror base Q0 Q0^-1: every reduced computation factors as
    # shrink / cyclic-permutation power / grow.  Empty tapes are
    # excluded (a mirror pair with nothing between it is not a reduced
    # word) and stay excluded under conjugation.
    seen = 0
    for u0 in reduced_words(ab, 2):
        if not u0.letters:
            continue
        start = AdmissibleWord(m.hw, [(atom("Q0"), 1), (atom("Q0"), -1)], [u0])
        for steps, end in search.reduced_computations(m, start, 8):
            if not steps:
                continue
            seen += 1
            lens = [len(u0)]
            c = start
            key = []
            for r, s in steps:
                c = m.try_apply(c, r, s)
                lens.append(len(c.tapes[0]))
                key.append((r.name, s))
            assert _factorable(lens, key)
    assert seen == 209920
    assert time.monotonic() - t0 < 120


def test_04_enhanced_language_equality():
    # The enhanced deleter accepts exactly what the deleter accepts, and
    # the canonical accepting computation has length exactly 7||H|| + 6.
    # Certification is by explicit run-validated witness inside the
    # stated search bound; the bound itself is 7 TM_S(2) + 6.
    t0 = time.monotonic()
    s = toy_deleter()
    e = build_enhanced_standard(s)
    tf = search.time_function(s, 2, 6)
    assert tf.values == {0: 1, 1: 2, 2: 3} and all(tf.complete.values())
    bound = 7 * tf.values[2] + 6
    acc = accept_configuration(e)
    for k in range(-2, 3):
        alpha = y_power(k)
        res = search.accepts(s, alpha, bound=6)
        assert res.found and res.length == abs(k) + 1
        witness = accepting_computation_from_history(e, res.history)
        assert len(witness) == 7 * res.length + 6 <= bound
        comp = run(e, input_configuration(e, alpha), witness)
        assert comp.ok and comp.end == acc
    assert time.monotonic() - t0 < 300


def test_05_encoder_word_problem():
    # <x | x^2>: words of length <= 3 are accepted iff the exponent sum
    # is even.  Even side: explicit accepting witness plus the certified
    # minimum from the bidirectional search, which dominates the
    # relator-block count of its own history.  Odd side: the h-invariant
    # is rule-by-rule certified, so the abelianized obstruction rules
    # out acceptance at any bound; a small exhaustive search agrees.
    t0 = time.monotonic()
    m = presentation_to_machine(z2_presentation())
    p = m.meta["presentation"]
    cert = certify_h_invariance(m)
    assert set(cert) == {r.name for r in m.rules}
    assert all(res.found for res in cert.values())
    acc = accept_configuration(m)
    for k in range(-3, 4):
        w = Word([(atom("x"), 1 if k >= 0 else -1)] * abs(k))
        if k % 2 == 0:
            h = emulation_history(m, w, max_area=3)
            assert len(h) <= 40
            comp = run(m, input_configuration(m, w), h)
            assert comp.ok and comp.end == acc
            res = search.meet_reach(m, input_configuration(m, w), acc, len(h))
            assert res.found
            blocks = history_block_count(m, res.history)["rho"]
            assert res.length >= blocks
            assert abelianized_trivial(p, w)
        else:
            assert not abelianized_trivial(p, w)
            assert search.accepts(m, w, bound=6).status != search.FOUND
    assert time.monotonic() - t0 < 300


def _brute_modified(types: str, delta: Fraction) -> Fraction:
    # Minimum over every segmentation into blocks of size one or two,
    # two-letter blocks being exactly the theta/a pairs.
    single = {"q": Fraction(1), "t": Fraction(1), "a": delta}
    k = len(types)
    best = None
    for cuts in itertools.product([1, 2], repeat=k):
        pos, cost, ok = 0, Fraction(0), True
        for step in cuts:
            if pos >= k:
                break
            block = types[pos:pos + step]
            if len(block) == 1:
                cost += single[block]
            elif set(block) == {"t", "a"}:
                cost += 1
            else:
                ok = False
                break
            pos += step
        if ok and pos == k:
            best = cost if best is None else min(best, cost)
    return best


def test_06_modified_length():
    # DP against brute-force segmentation for every letter-type sequence
    # up to length 6, tied to concrete words over a five-generator slice
    # of M(LR({y})); the three base cases are exact rationals.
    t0 = time.monotonic()
    m = build_lr(["y"])
    n = m.n_parts
    delta = Fraction(1, 2 * n + 2)
    assert delta == Fraction(1, 8)
    assert modified_length(m, Word.of(atom("p1"))) == 1
    assert modified_length(m, Word.of(atom("zeta.0"))) == 1
    assert modified_length(m, Word.of(atom("y#1"))) == delta
    assert modified_length(m, Word.from_tokens("zeta.0 y#1")) == 1
    assert modified_length(m, Word.from_tokens("y#1 zeta.0")) == 1

    slice_of = {"q": [atom("p1"), atom("q1")],
                "a": [atom("y#1"), atom("y#2")],
                "t": [atom("zeta.0")]}
    rng = random.Random(64290)
    count = 0
    for k in range(1, 7):
        for types in itertools.product("qat", repeat=k):
            types = "".join(types)
            w = Word([(rng.choice(slice_of[t]), rng.choice((1, -1)))
                      for t in types])
            assert letter_types(m, w) == types
            got = modified_length(m, w)
            assert got == _brute_modified(types, delta)
            assert got == modified_length_from_types(types, n)
            count += 1
    assert count == 1092

    # Concatenation bracket: |s1| + |s2| - delta <= |s1 s2| <= |s1| + |s2|.
    seqs = [t for k in range(1, 6) for t in
            ("".join(s) for s in itertools.product("qat", repeat=k))]
    pairs = 0
    for t1 in seqs:
        for t2 in seqs:
            if len(t1) + len(t2) > 6:
                continue
            whole = modified_length_from_types(t1 + t2, n)
            parts = (modified_length_from_types(t1, n)
                     + modified_length_from_types(t2, n))
            assert parts - delta <= whole <= parts
            pairs += 1
    assert pairs == 4923
    assert time.monotonic() - t0 < 30


def _random_computation(m, rng):
    alphabet = sorted(m.sector_alphabets[m.input_sectors[0]],
                      key=lambda a: a.name)
    u = EMPTY
    for _ in range(rng.randint(0, 3)):
        choices = [(a, e) for a in alphabet for e in (1, -1)
                   if not (u.letters and u.letters[-1] == (a, -e))]
        a, e = rng.choice(choices)
        u = Word(u.letters + ((a, e),))
    start = input_configuration(m, (u,))
    steps = []
    c = start
    for _ in range(rng.randint(0, 6)):
        options = []
        for rule, sign in m.signed_rules():
            if steps and steps[-1] == (rule.name, -sign):
                continue
            if m.try_apply(c, rule, sign) is not None:
                options.append((rule, sign))
        if not options:
            break
        rule, sign = options[rng.randrange(len(options))]
        c = m.try_apply(c, rule, sign)
        steps.append((rule.name, sign))
    history = Word([(atom(name), s) for name, s in steps])
    return run(m, start, history)


def test_07_trapezium_soundness():
    # Fifty seeded random computations across the fixture machines:
    # round-trip, full validation, the per-row cell-count bracket
    # l_a - l_b <= cells <= l_a + 3 l_b, and the cubic cell bound.
    t0 = time.monotonic()
    machines = [toy_deleter(), one_sector_left_multiplier(),
                two_sided_multiplier(), build_lr(["y"])]
    rng = random.Random(1728)
    done = 0
    while done < 50:
        m = machines[done % len(machines)]
        comp = _random_computation(m, rng)
        trap = computation_to_trapezium(m, comp)
        assert validate_trapezium(trap)
        back = trapezium_to_computation(trap)
        assert back.history_word() == comp.history_word()
        assert back.configs == comp.configs

        def edge_count(path, kind):
            return sum(1 for eid, _ in path if trap.edges[eid].kind == kind)

        for j, row in enumerate(trap.rows):
            cells = sum(1 for c in trap.cells if c.row == j)
            for side in (row.bottom, row.top):
                l_b = edge_count(side, "q")
                l_a = edge_count(side, "a")
                assert l_a - l_b <= cells <= l_a + 3 * l_b
        perimeter = (len(trap.bottom) + len(trap.top)
                     + len(trap.left) + len(trap.right))
        assert dehn_cell_bound_check(trap.n_cells(), perimeter)
        done += 1
    assert time.monotonic() - t0 < 60


def test_08_conjugator_witness():
    # Every accepted input of the two interior-writing fixtures yields a
    # conjugator of combinatorial length equal to the minimal accepting
    # history, at least the machine's time function, and the boundary
    # identity gamma W_acc gamma^-1 = W_alpha holds exactly against the
    # validated diagram.
    t0 = time.monotonic()
    for m, inputs in [
        (toy_deleter(), [y_power(k) for k in range(-3, 4)]),
        (one_sector_left_multiplier(("a", "b")),
         reduced_words(atoms(["a", "b"]), 3)),
    ]:
        tf = search.time_function(m, 3, 8)
        assert all(tf.complete.values())
        for alpha in inputs:
            res = search.accepts(m, alpha, bound=8)
            assert res.found
            comp = run(m, input_configuration(m, (alpha,)), res.history)
            gamma = conjugator_from_accepting(m, comp)
            assert len(gamma) == res.length == len(res.history)
            assert res.length >= tf.values[len(alpha)]
            trap = computation_to_trapezium(m, comp)
            assert validate_trapezium(trap)
            expected = free_reduce(
                comp.start.to_word().inverse() * gamma
                * comp.end.to_word() * gamma.inverse())
            assert trap.boundary_word() == expected
    assert time.monotonic() - t0 < 60


def test_09_presentation_counts():
    t0 = time.monotonic()
    lr = build_lr(["y"])

    def theta_q(p):  # the relators that carry a state letter
        return [w for w in p.relators if any(a in lr.hw.part_of for a, _ in w)]

    mp = machine_to_group(lr)
    assert len(mp.generators) == 17
    assert len(theta_q(mp)) == 9
    assert len(theta_q(machine_to_group(lr, strict=True))) == 6
    assert time.monotonic() - t0 < 1
