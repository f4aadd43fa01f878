"""The answers smforge certifies are values.

A rule application (``ApplyOutcome``), a reachability verdict
(``ReachResult``), a time function (``TimeFunction``) and an area
(``AreaResult``) are named tuples: no field can be changed after the
query, each copy or pickle gives back the same fields, and the same
query asked twice gives equal answers.
"""
import copy
import pickle

import pytest

from smforge.encode import IMPOSSIBLE, AreaResult, area_oracle
from smforge.fixtures import (commutator_presentation, toy_deleter,
                              trivial_acceptor, z2_presentation)
from smforge.machine import AdmissibleWord, ApplyOutcome, input_configuration
from smforge.search import (BOUNDED, FOUND, UNREACHABLE, ReachResult,
                            TimeFunction, accepts, time_function)
from smforge.words import Word


def W(text):
    return Word.from_tokens(text)


# One machine per fixture, so that configurations of two runs share the
# hardware and can be equal.
DELETER, ACCEPTOR = toy_deleter(), trivial_acceptor()


def _apply(rule, sign=1):
    c = input_configuration(DELETER, W("y y"))
    return DELETER.apply_ex(c, DELETER.rule(rule), sign)


# name -> (query, type, first field): the status, or ok for ApplyOutcome.
QUERIES = {
    "apply_ok": (lambda: _apply("del", -1), ApplyOutcome, True),
    "apply_failed": (lambda: _apply("acc"), ApplyOutcome, False),
    "reach_found_bfs": (lambda: accepts(DELETER, W("y^-1"), 10),
                        ReachResult, FOUND),
    "reach_found_meet": (lambda: accepts(DELETER, W("y y"), 10, "meet"),
                         ReachResult, FOUND),
    "reach_unreachable": (lambda: accepts(ACCEPTOR, W("y"), 50),
                          ReachResult, UNREACHABLE),
    "reach_bounded": (lambda: accepts(DELETER, W("y y y"), 2),
                      ReachResult, BOUNDED),
    "time_function_rejecting": (lambda: time_function(ACCEPTOR, 1, 4),
                                TimeFunction, None),
    "time_function_bounded": (lambda: time_function(DELETER, 3, 2),
                              TimeFunction, None),
    "area_found": (lambda: area_oracle(commutator_presentation(),
                                       W("x y x^-1 y^-1 x y x^-1 y^-1"), 3),
                   AreaResult, FOUND),
    "area_impossible": (lambda: area_oracle(z2_presentation(), W("x"), 3),
                        AreaResult, IMPOSSIBLE),
    "area_bounded": (lambda: area_oracle(z2_presentation(), W("x x x x"), 1),
                     AreaResult, BOUNDED),
}


@pytest.fixture(params=sorted(QUERIES))
def answer(request):
    query, kind, status = QUERIES[request.param]
    res = query()
    assert type(res) is kind
    assert status is None or res[0] == status
    return query, res


def _plain(value):
    """The value with a configuration replaced by its tokens: an unpickled
    configuration carries its own hardware, so it equals no original."""
    if isinstance(value, AdmissibleWord):
        return value.to_word().tokens()
    return value


def test_fields_and_defaults_are_pinned():
    assert ApplyOutcome._fields == ("ok", "result", "reason")
    assert ApplyOutcome(False) == (False, None, None)
    assert ReachResult._fields == ("status", "history", "length", "explored")
    assert ReachResult(BOUNDED) == (BOUNDED, None, None, 0)
    assert TimeFunction._fields == ("values", "complete", "rejected")
    assert AreaResult._fields == ("status", "area", "steps", "words",
                                  "explored")
    assert AreaResult(IMPOSSIBLE) == (IMPOSSIBLE, None, (), (), 0)


def test_fields_cannot_be_set(answer):
    _, res = answer
    for name in res._fields + ("found", "extra"):
        with pytest.raises(AttributeError):
            setattr(res, name, None)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickles_give_back_the_fields(answer, protocol):
    _, res = answer
    dup = pickle.loads(pickle.dumps(res, protocol))
    assert type(dup) is type(res)
    assert list(map(_plain, dup)) == list(map(_plain, res))


def test_deep_copies_give_back_the_answer(answer):
    _, res = answer
    dup = copy.deepcopy(res)
    assert type(dup) is type(res) and dup == res


def test_the_same_query_gives_equal_answers(answer):
    query, res = answer
    assert query() == res
