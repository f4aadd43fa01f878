"""Command line front end.

Every subcommand reads JSON produced by this package (machines,
presentations) and writes canonical JSON, DOT, or plain text, so output
is byte-identical across runs.  Exit codes: 0 success or an affirmative
answer, 1 a certified negative answer, 2 bad input, 3 bound exhausted
with nothing certified either way, 4 an internal invariant violated.
"""

from __future__ import annotations

import argparse
import os
import sys

from .words import InvariantError, SmforgeError, Word
from .machine import MachineError, input_configuration, parse_admissible, run
from .serialize import (SCHEMA_VERSION, dumps_canonical, load_machine,
                        machine_dumps)
from .primitive import build_lr, build_rl
from .enhance import (add_historical_sectors, build_enhanced_standard,
                      make_cyclic, pad_locked)
from .encode import GroupPresentation, presentation_to_machine
from .group import (BoundaryWriteError, GroupError, computation_to_trapezium,
                    conjugator_from_accepting, machine_to_group,
                    trapezium_dumps, trapezium_to_dot, validate_trapezium)
from . import search

# 0 yes / 1 no / 2 bad input / 3 bound exhausted / 4 invariant violation.
OK, NEGATIVE, BAD_INPUT, BOUND, INVARIANT = 0, 1, 2, 3, 4

_ERRORS = (SmforgeError, OSError, UnicodeError)


def _emit(text: str, args) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text)
    else:  # UTF-8 whatever the locale, like the files
        sys.stdout.flush()
        sys.stdout.buffer.write(text.encode("utf-8"))


def _answer(args, m, **fields) -> None:
    """A JSON answer about machine m: the shared header, then fields."""
    _emit(dumps_canonical({"schema_version": SCHEMA_VERSION,
                           "machine": m.name, **fields}), args)


def _text(arg: str) -> str:
    """A word or name argument decoded as UTF-8 whatever the locale.  File
    names stay as the locale decoded them, which is how they reopen."""
    return os.fsencode(arg).decode("utf-8", "surrogateescape")


def _start_config(m, args):
    if args.start is not None:
        return parse_admissible(m.hw, Word.from_tokens(args.start))
    inputs = [Word.from_tokens(t) for t in (args.input or [])]
    if len(inputs) < len(m.input_sectors):
        inputs += [Word()] * (len(m.input_sectors) - len(inputs))
    return input_configuration(m, tuple(inputs))


# -- construction subcommands -----------------------------------------------

def cmd_primitive(args) -> int:
    letters = [s for s in args.letters.split(",") if s]
    if not letters:
        raise MachineError("need at least one letter")
    build = build_lr if args.kind == "lr" else build_rl
    m = build(letters, **({"name": args.name} if args.name else {}))
    _emit(machine_dumps(m), args)
    return OK


def cmd_encode(args) -> int:
    p = GroupPresentation.load(args.presentation)
    _emit(machine_dumps(presentation_to_machine(p)), args)
    return OK


def _transform(fn):
    def go(args) -> int:
        _emit(machine_dumps(fn(load_machine(args.machine))), args)
        return OK
    return go


# The pipeline stages carry in-memory provenance that JSON does not keep,
# so each stage subcommand starts over from the base machine.
cmd_historical = _transform(add_historical_sectors)
cmd_pad = _transform(lambda m: pad_locked(add_historical_sectors(m)))
cmd_enhance = _transform(build_enhanced_standard)
cmd_cyclic = _transform(make_cyclic)


# -- running subcommands -----------------------------------------------------

def cmd_run(args) -> int:
    m = load_machine(args.machine)
    start = _start_config(m, args)
    comp = run(m, start, Word.from_tokens(args.history), strict=False)
    if args.format == "json":
        _answer(args, m, start=start.tokens(), history=args.history,
                ok=comp.ok, configs=[c.tokens() for c in comp.configs],
                failed_at=comp.failed_at, reason=comp.reason)
    else:
        lines = [c.tokens() for c in comp.configs]
        if not comp.ok:
            lines.append(f"# failed at step {comp.failed_at}: {comp.reason}")
        _emit("\n".join(lines) + "\n", args)
    return OK if comp.ok else NEGATIVE


def cmd_tm(args) -> int:
    m = load_machine(args.machine)
    if (args.max_n is None) == (args.input is None and args.start is None):
        raise MachineError("pass either an input to decide or --max-n for "
                           "the time function table")
    if args.max_nodes < 1:
        raise MachineError("--max-nodes must be positive")
    if args.bound < 0 or (args.max_n or 0) < 0:
        raise MachineError("--bound and --max-n must not be negative")
    if args.max_n is not None:
        tf = search.time_function(m, args.max_n, args.bound, args.method,
                                  args.max_nodes)
        _answer(args, m, bound=args.bound, max_n=args.max_n, method=args.method,
                values={str(n): v for n, v in tf.values.items()},
                complete={str(n): c for n, c in tf.complete.items()},
                rejected=[[w.tokens() for w in ws] for ws in tf.rejected])
        return OK if all(tf.complete.values()) else BOUND
    start = _start_config(m, args)
    res = search.tm_of_config(m, start, args.bound, args.method,
                              args.max_nodes)
    _answer(args, m, start=start.tokens(), bound=args.bound,
            method=args.method, status=res.status, length=res.length,
            history=None if res.history is None else res.history.tokens(),
            explored=res.explored)
    if res.found:
        return OK
    return NEGATIVE if res.status == search.UNREACHABLE else BOUND


# -- group subcommands -------------------------------------------------------

def cmd_present(args) -> int:
    _emit(machine_to_group(load_machine(args.machine),
                           strict=args.strict).dumps(), args)
    return OK


def _computation(m, args):
    start = _start_config(m, args)
    comp = run(m, start, Word.from_tokens(args.history), strict=False)
    if not comp.ok:
        raise MachineError(
            f"history fails at step {comp.failed_at}: {comp.reason}")
    return comp


def cmd_trapezium(args) -> int:
    m = load_machine(args.machine)
    trap = computation_to_trapezium(m, _computation(m, args))
    try:
        validate_trapezium(trap)
    except GroupError as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return INVARIANT
    _emit(trapezium_to_dot(trap) if args.format == "dot"
          else trapezium_dumps(trap), args)
    return OK


def cmd_conjugator(args) -> int:
    m = load_machine(args.machine)
    comp = _computation(m, args)
    try:
        g = conjugator_from_accepting(m, comp)
    except BoundaryWriteError as e:
        print(f"no conjugator: {e}", file=sys.stderr)
        return NEGATIVE
    if args.format == "json":
        _answer(args, m, start=comp.configs[0].tokens(),
                end=comp.end.tokens(), gamma=g.tokens(), length=len(g))
    else:
        _emit(g.tokens() + "\n", args)
    return OK


# -- parser ------------------------------------------------------------------

def _arg(*flags, **kw):
    return flags, kw


_MACHINE = _arg("machine", metavar="MACHINE.json")
_CONFIG = [_arg("--input", action="append", type=_text, metavar="TOKENS",
                help="input word, once per input sector"),
           _arg("--start", type=_text, metavar="TOKENS",
                help="full start configuration (overrides --input)")]
_HISTORY = _arg("--history", required=True, type=_text, metavar="TOKENS")


# (name, help, options); each name runs cmd_<name>, and every subcommand
# takes -o/--output as well.
_COMMANDS = [
    ("primitive", "build an LR or RL machine", [
        _arg("--kind", choices=["lr", "rl"], default="lr"),
        _arg("--letters", required=True, type=_text, metavar="A,B,..."),
        _arg("--name", type=_text)]),
    ("encode", "machine of a group presentation",
     [_arg("presentation", metavar="PRESENTATION.json")]),
    ("historical", "add history-recording sectors to a base machine",
     [_MACHINE]),
    ("pad", "historical sectors plus locked padding, from a base machine",
     [_MACHINE]),
    ("enhance", "full pipeline from a base machine: historical, pad, compose",
     [_MACHINE]),
    ("cyclic", "close a machine into a cyclic one", [_MACHINE]),
    ("run", "apply a history to a configuration",
     [_MACHINE, *_CONFIG, _HISTORY,
      _arg("--format", choices=["json", "text"], default="json")]),
    ("tm", "acceptance search / time function", [
        _MACHINE, *_CONFIG,
        _arg("--bound", type=int, required=True),
        _arg("--max-n", type=int, dest="max_n",
             help="tabulate TM(n) for n up to this instead"),
        _arg("--method", choices=["bfs", "meet"], default="bfs"),
        _arg("--max-nodes", type=int, dest="max_nodes", metavar="N",
             default=200_000,
             help="stop a search bound-limited after visiting N "
                  "configurations (default 200000)")]),
    ("present", "presentation of the group M(S)", [
        _MACHINE,
        _arg("--strict", action="store_true", help="drop the part-0 relations")]),
    ("trapezium", "flatten a computation to a diagram",
     [_MACHINE, *_CONFIG, _HISTORY,
      _arg("--format", choices=["json", "dot"], default="json")]),
    ("conjugator", "side word conjugating end to start",
     [_MACHINE, *_CONFIG, _HISTORY,
      _arg("--format", choices=["json", "text"], default="text")]),
]


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as bad input: one line, exit 2, like any other."""

    def error(self, message):
        raise SmforgeError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="smforge",
        description="S-machines, their groups, and the diagrams between them.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, hlp, options in _COMMANDS:
        p = sub.add_parser(name, help=hlp)
        for flags, kw in options:
            p.add_argument(*flags, **kw)
        p.add_argument("-o", "--output", metavar="FILE",
                       help="write here instead of stdout")
        p.set_defaults(func=globals()[f"cmd_{name}"])
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except Exception as e:
        if isinstance(e, _ERRORS) and not isinstance(e, InvariantError):
            print(f"error: {e}", file=sys.stderr)
            return BAD_INPUT
        # a bug: one line and exit 4, never a traceback
        print("internal error:", *f"{type(e).__name__}: {e}".split(), file=sys.stderr)
        return INVARIANT


if __name__ == "__main__":
    sys.exit(main())
