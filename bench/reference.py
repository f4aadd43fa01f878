"""Reference answers for the benchmark, each with its source.

No answer here comes from running smforge: they are counts frozen in the
acceptance suite or laws from the theory the package implements.  Found
histories, area certificates and trapezia are not compared with stored
outputs; the workloads check them by replaying them.
"""
from __future__ import annotations

# Frozen enumeration counts, copied from tests/test_acceptance.py.
FROZEN = {
    "sweep.standard": 222913,      # test_03, one-letter multiplier, standard base
    "sweep.paired": 10465,         # test_03, paired multiplier
    "sweep.mirror": 209920,        # test_03, mirror base Q0 Q0^-1
    "sweep.lr_y": (1326, 514),     # test_02, (computations seen, endpoints checked)
    "cli.present.lr_y.generators": 17,  # test_09, |generators of M(LR({y}))|
}

# Where every reference answer comes from, per workload and query kind.
SOURCES = {
    "sweep": {
        "standard": "frozen count 222913, tests/test_acceptance.py::test_03",
        "paired": "frozen count 10465, tests/test_acceptance.py::test_03",
        "mirror": "frozen count 209920, tests/test_acceptance.py::test_03",
        "lr_y": "frozen counts (1326, 514) and the primitive time bound "
                "t <= 2 max(|W_0|_a, |W_t|_a) + 1, tests/test_acceptance.py::test_02",
    },
    "decide": {
        "z2": "<x | x^2>: w is trivial iff its exponent sum is even",
        "zxz": "<x, y | [x, y]>: w is trivial iff both exponent sums are zero",
        "search": "trivial inputs are never UNREACHABLE and a found history "
                  "replays to the accept configuration; non-trivial inputs "
                  "are never FOUND",
        "emulation": "trivial inputs: the emulation history replays to the "
                     "accept configuration",
        "area": "a product of k conjugates of relators has area <= k; the "
                "insertion certificate replays to the empty word",
        "time_function": "TM(n) = n + 1 for toy_deleter, TM(n) = n for the "
                         "one-sector multiplier",
    },
    "diagram": {
        "enhanced": "length law 7||H|| + 6 with ||H|| = |k| + 1 for y^k; "
                    "ends in the accept configuration",
        "lr": "length law 2||u|| + 1; ends in the level-2 home configuration",
        "random": "trapezium_to_computation replays the computation; the "
                  "per-row cell bracket l_a - l_b <= cells <= l_a + 3 l_b",
        "conjugator": "length equals the number of steps and "
                      "gamma W_end gamma^-1 = W_start on the validated boundary",
    },
    "cli": {
        "tm": "exit 0 found / 1 unreachable / 3 bound-limited, with lengths "
              "|k| + 1 (toy_deleter) and |u| (multiplier); trivial_acceptor "
              "has no rules, so a non-empty input is UNREACHABLE",
        "tm_table": "TM(n) = n + 1 for toy_deleter",
        "trapezium": "length law 2||u|| + 1",
        "present": "17 generators for M(LR({y})), tests/test_acceptance.py::test_09",
        "encode": "rule count 3|Y| + sum of positivized stored relator "
                  "lengths + 1, from the construction in smforge.encode",
        "determinism": "two invocations of one query print identical bytes",
    },
}


def exponent_sums(word, generators) -> tuple[int, ...]:
    """Exponent sum of each generator name in a word."""
    sums = dict.fromkeys(generators, 0)
    for a, s in word.letters:
        sums[a.name] += s
    return tuple(sums[g] for g in generators)


def z2_trivial(word) -> bool:
    return exponent_sums(word, ("x",))[0] % 2 == 0


def zxz_trivial(word) -> bool:
    return exponent_sums(word, ("x", "y")) == (0, 0)


def lr_length(u_len: int) -> int:
    """Standard LR computation: 2||u|| + 1 steps."""
    return 2 * u_len + 1


def deleter_length(k: int) -> int:
    """Shortest accepting computation of toy_deleter on y^k."""
    return abs(k) + 1


def enhanced_length(history_len: int) -> int:
    """Accepting computation of the enhanced machine: 7||H|| + 6."""
    return 7 * history_len + 6


def multiplier_length(u_len: int) -> int:
    """Shortest accepting computation of the multiplier on u: TM(n) = n."""
    return u_len


def tm_deleter(n: int) -> int:
    return n + 1


def tm_multiplier(n: int) -> int:
    return n


def encoder_rule_count(n_generators: int, positive_lengths) -> int:
    """sigma, tau1, tau2 per letter of the doubled alphabet, one rho per
    letter of each positivized stored relator, and omega."""
    return 3 * 2 * n_generators + sum(positive_lengths) + 1
