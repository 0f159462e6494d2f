"""Batch command-line front end.

Subcommands expose enumeration, character comparison, the verification
suites, the Whittaker data, and the difference-Toda eigen checks.  Output
is JSON-lines: one record per check, then a trailing summary object.
Each subcommand is a generator of records; `main` writes them one at a
time and checks the time budget after each.  Every record is encoded by
one encoder chosen at import, the C encoder wherever the accelerator is
there, as exactly `json.dumps(record, sort_keys=True)`, and it is counted
in the summary only once it is encoded.  Identical configuration and
seed produce byte-identical output.

The command line is `qtoda <command> --flag value ...`, read by
`parse_args` straight from the `SUBCOMMANDS` table, which lists each
command's flags with their types, choices, defaults and whether they are
required; `-h`/`--help` and `--version` print their text from the same
table.  Each flag is written in full, as `--flag value` or `--flag=value`
(no abbreviations).  Reading the table builds no parser and imports no
module beyond those the subcommands need.

Exit codes: 0 all pass; 1 at least one failing check, or an error raised
while the records were being made; 2 usage error, printed as one
`error: ...` line on stderr with nothing on stdout; 3 time budget exceeded
(set via the QTODA_TIME_BUDGET env var, seconds).  Any exception raised
after the config echo, `MemoryError` included, becomes one
`{"status": "error"}` record, followed by a summary with
`"complete": false`.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
from json.encoder import c_make_encoder, encode_basestring_ascii
from types import SimpleNamespace
from typing import Dict, Iterator, Optional, Sequence, TextIO

from . import __version__
from .characters import character_records
from .fixed_points import (all_degrees, check_degree, check_row,
                           enumerate_points, kostant_count, shifted)
from .operators import (
    ModuleContext,
    ModuleVector,
    relation_records,
    summation_records,
)
from .symbolic import UsageError, json_int, tv_ring
from .toda import toda_records
from .whittaker import (
    eigen_records,
    pairing_two_path_record,
    sheaf_rgamma,
    whittaker_k,
    whittaker_pair_closed,
    whittaker_records,
    whittaker_w,
)

# Everything imported so far lives as long as the process; keep the cyclic
# collector from rescanning it on every older-generation pass.
gc.freeze()

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

BUDGET_ENV = "QTODA_TIME_BUDGET"

# Every record goes through one encoder built here with the settings of
# json.dumps(record, sort_keys=True), which builds one, and a float closure,
# per call.  The C encoder keeps no markers dict: one shared across records
# keeps the ids a failed encode left in it, so a later record could be taken
# for a cycle.  Records are trees built per record, and a cycle raises
# RecursionError, which `main` turns into an error record.
_ENCODER = json.JSONEncoder(sort_keys=True)
if c_make_encoder is None:
    _encode = _ENCODER.encode
else:
    _c_encoder = c_make_encoder(
        None, _ENCODER.default, encode_basestring_ascii, None,
        _ENCODER.key_separator, _ENCODER.item_separator, _ENCODER.sort_keys,
        _ENCODER.skipkeys, _ENCODER.allow_nan)

    def _encode(record: dict) -> str:
        return "".join(_c_encoder(record, 0))


class BudgetExceeded(Exception):
    pass


class Reporter:
    """Collects records, enforces the time budget, writes JSON lines."""

    def __init__(self, stream: TextIO, budget: Optional[float]):
        self.stream = stream
        self.deadline = time.monotonic() + budget if budget else None
        self.counts: Dict[str, int] = {}
        self.records_written = 0

    def emit(self, record: dict) -> None:
        """Write the record as one line; it is counted only once encoded."""
        line = _encode(record) + "\n"
        status = record.get("status")
        if status:
            self.counts[status] = self.counts.get(status, 0) + 1
        self.stream.write(line)
        self.records_written += 1

    def checkpoint(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceeded()

    def summary(self, complete: bool) -> dict:
        return {
            "summary": True,
            "complete": complete,
            "counts": dict(sorted(self.counts.items())),
            "records": self.records_written,
        }

    def exit_code(self, complete: bool) -> int:
        if self.counts.get("error"):
            return EXIT_FAIL
        if not complete:
            return EXIT_BUDGET
        return EXIT_FAIL if self.counts.get("fail") else EXIT_PASS


def _parse_degree(text: str, n: int) -> tuple:
    try:
        degree = tuple(json_int(x) for x in text.split(","))
    except UsageError:
        raise UsageError(f"cannot parse degree vector {text!r}")
    return check_degree(n, degree)


def _vector_json(x: ModuleVector) -> dict:
    """The component's coefficients in the order it holds them: a Whittaker
    component's, that of `enumerate_points`, the order of the rows."""
    return {"degree": list(x.degree), "coeffs": [
        {"point": p.rows_json(), "value": c.to_json()}
        for p, c in x.coeffs.items()]}


# ---------------------------------------------------------------------------
# Subcommands: each takes the parsed arguments and yields records
# ---------------------------------------------------------------------------

def cmd_enumerate(args) -> Iterator[dict]:
    degree = args.degree_vector
    points = enumerate_points(args.n, degree)
    for p in points:
        yield {"point": p.rows_json()}
    expected = kostant_count(args.n, degree)
    yield {
        "check": "count-matches-root-combinations",
        "count": len(points),
        "expected": expected,
        "status": "pass" if len(points) == expected else "fail",
    }


def cmd_characters(args) -> Iterator[dict]:
    return character_records(tv_ring(args.n), args.degree_vector)


def cmd_whittaker(args) -> Iterator[dict]:
    """Both Whittaker components at one degree, their pairing, then the
    two-path pairing check and the eigen checks that land on it."""
    ctx, degree = ModuleContext(args.n), args.degree_vector
    yield {"vector": "structure-sheaf",
           **_vector_json(whittaker_k(ctx, degree))}
    yield {"vector": "dual", **_vector_json(whittaker_w(ctx, degree))}
    yield {"pairing": whittaker_pair_closed(ctx, degree).to_json(),
           "rgamma": sheaf_rgamma(ctx, degree).to_json()}
    yield pairing_two_path_record(ctx, degree)
    for i in range(1, args.n):
        if degree[i - 1] > 0:
            yield from eigen_records(ctx, i, shifted(degree, i, -1))


def cmd_toda(args) -> Iterator[dict]:
    ctx = ModuleContext(args.n)
    yield from toda_records(ctx, args.box)
    for name, series in (("I", whittaker_pair_closed),
                         ("J", sheaf_rgamma)):
        for d in all_degrees(args.n, args.box):
            yield {"series": name, "degree": list(d),
                   "value": series(ctx, d).to_json()}


SUITES = {
    "relations": relation_records,
    "summation": summation_records,
    "whittaker": whittaker_records,
    "toda": toda_records,
}


def cmd_verify(args) -> Iterator[dict]:
    ctx = ModuleContext(args.n)
    for name in SUITES if args.suite == "full" else [args.suite]:
        # the summation suite draws its rows at random and has no box
        params = (args.seed, args.i) if name == "summation" else (args.box,)
        yield from SUITES[name](ctx, *params)


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

_N = ("--n", {"type": json_int, "required": True,
              "help": "rank parameter (>= 2)"})
_OUT = ("--out", {"help": "write the report to this path"})
_DEGREE = ("--degree", {"required": True,
                        "help": "comma-separated degree vector"})
_BOX = ("--box", {"type": json_int, "required": True,
                  "help": "componentwise degree cap"})

# (name, help, command, flags) per subcommand.  A flag is (--name, options):
# its value read by `type` (kept as text when absent) and checked against
# `choices`, and when the flag is not given, `required` or its `default`
# (None when absent).
SUBCOMMANDS = (
    ("enumerate", "list fixed points and cross-check the count",
     cmd_enumerate, [_N, _OUT, _DEGREE]),
    ("characters", "compare closed-form characters against the chain oracle",
     cmd_characters, [_N, _OUT, _DEGREE]),
    ("verify", "run a verification suite", cmd_verify, [
        _N, _OUT, _BOX,
        ("--suite", {"default": "full", "choices": ("full",) + tuple(SUITES),
                     "help": "the suite to run"}),
        ("--seed", {"type": json_int, "default": 0,
                    "help": "picks the summation suite's random rows"}),
        ("--i", {"type": json_int, "help": "restrict the summation-identity "
                                      "suite to one row index"})]),
    ("whittaker", "emit Whittaker data at one degree", cmd_whittaker,
     [_N, _OUT, _DEGREE]),
    ("toda", "difference-Toda eigen checks", cmd_toda, [_N, _OUT, _BOX]),
)

_HELP = ("-h", "--help")


def _flag_help(options: dict) -> str:
    """A flag's help line: its help text, its choices and its default."""
    parts = [options.get("help", "")]
    if "choices" in options:
        parts.append(f"one of {', '.join(options['choices'])}")
    if "default" in options:
        parts.append(f"default {options['default']}")
    return "; ".join(parts)


def _help(row: Optional[tuple] = None) -> str:
    """The help text of the command line, or of one `SUBCOMMANDS` row."""
    if row is None:
        head = ["usage: qtoda <command> [--flag value ...]",
                "       qtoda -h | --help | --version", "",
                "Exact verification engine for the fixed-point module, its",
                "operator relations, and the difference-Toda "
                "eigen-equations.", "", "commands:"]
        items = [(name, text) for name, text, _, _ in SUBCOMMANDS]
        tail = ["", "Run 'qtoda <command> --help' for the flags of a "
                    "command."]
    else:
        name, text, _, flags = row
        usage = " ".join(f"{flag} {flag[2:].upper()}" if opts.get("required")
                         else f"[{flag} {flag[2:].upper()}]"
                         for flag, opts in flags)
        head = [f"usage: qtoda {name} {usage}", "", text, "",
                "flags, each given as --flag value or --flag=value:"]
        items = [(f"{flag} {flag[2:].upper()}", _flag_help(opts))
                 for flag, opts in flags] + [(", ".join(_HELP),
                                              "show this help")]
        tail = []
    width = max(len(item) for item, _ in items)
    return "\n".join(head + [f"  {item:<{width}}  {text}"
                             for item, text in items] + tail)


def parse_args(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The command line `<command> --flag value ...`, read against
    `SUBCOMMANDS`: `command`, `fn` and one field per flag of the command,
    its value read and checked, or its default.  Each flag is written in
    full, as `--flag value` or `--flag=value`; a value after a space that
    starts with `-` must be a negative number.  `-h`/`--help`, first or
    after the command, and a leading `--version` print their text and give
    None.  Anything else raises UsageError."""
    commands = {row[0]: row for row in SUBCOMMANDS}
    if not argv:
        raise UsageError(f"missing command; one of {', '.join(commands)}")
    head, *rest = argv
    if head in _HELP or head == "--version":
        print(_help() if head in _HELP else __version__)
        return None
    if head not in commands:
        raise UsageError(f"unknown command {head!r}; "
                         f"one of {', '.join(commands)}")
    row = commands[head]
    name, _, fn, flags = row
    options = dict(flags)
    given: Dict[str, str] = {}
    tokens = iter(rest)
    for token in tokens:
        if token in _HELP:
            print(_help(row))
            return None
        flag, eq, value = token.partition("=")
        if not flag.startswith("--"):
            raise UsageError(f"unexpected argument {token!r}")
        if flag not in options:
            raise UsageError(f"{name} has no flag {flag}")
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("-") \
                    and not value[1:2].isdigit():
                raise UsageError(f"{flag} needs a value")
        given[flag] = value
    missing = [flag for flag, opts in flags
               if opts.get("required") and flag not in given]
    if missing:
        raise UsageError(f"{name} needs {', '.join(missing)}")
    args = SimpleNamespace(command=name, fn=fn)
    for flag, opts in flags:
        value = opts.get("default")
        if flag in given:
            try:
                value = opts.get("type", str)(given[flag])
            except UsageError as exc:
                raise UsageError(f"{flag}: {exc}") from None
            if "choices" in opts and value not in opts["choices"]:
                raise UsageError(f"{flag} must be one of "
                                 f"{', '.join(opts['choices'])}, "
                                 f"not {value!r}")
        setattr(args, flag[2:], value)
    return args


def _budget() -> Optional[float]:
    raw = os.environ.get(BUDGET_ENV)
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        raise UsageError(f"{BUDGET_ENV} must be a number of seconds")
    if not value > 0:  # NaN included
        raise UsageError(f"{BUDGET_ENV} must be a positive number of seconds")
    return value


def _config_echo(args) -> dict:
    keys = ("command", "n", "degree", "box", "seed", "suite", "i")
    cfg = {k: getattr(args, k) for k in keys
           if getattr(args, k, None) is not None}
    return {"version": __version__, "config": cfg}


def main(argv: Optional[Sequence[str]] = None) -> int:
    stream = sys.stdout
    close = False
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            return EXIT_PASS
        budget = _budget()
        if args.n < 2:
            raise UsageError("rank parameter must be at least 2")
        if getattr(args, "box", None) is not None and args.box < 0:
            raise UsageError("box must be nonnegative")
        if getattr(args, "i", None) is not None:
            if args.suite not in ("summation", "full"):
                raise UsageError(f"--i does not apply to suite {args.suite}")
            check_row(args.n, args.i)
        if getattr(args, "degree", None) is not None:
            args.degree_vector = _parse_degree(args.degree, args.n)
        if args.out:
            try:
                stream = open(args.out, "w")
            except OSError as exc:
                raise UsageError(
                    f"cannot write {args.out}: {exc.strerror}") from exc
            close = True
        rep = Reporter(stream, budget)
        rep.emit(_config_echo(args))
        complete = True
        error = None
        try:
            for record in args.fn(args):
                rep.emit(record)
                rep.checkpoint()
        except BudgetExceeded:
            complete = False
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        # written after the except block has dropped the traceback, and with
        # it the generator frame and the context's memos, so a MemoryError
        # leaves room to write the record
        if error is not None:
            rep.emit({"status": "error", "error": error})
            complete = False
        rep.emit(rep.summary(complete))
        return rep.exit_code(complete)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if close:
            stream.close()


if __name__ == "__main__":
    sys.exit(main())
