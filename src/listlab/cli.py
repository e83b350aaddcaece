"""Command-line entry point for reproducible experiments.

Every command echoes its fully resolved configuration as a ``# config``
header line, writes CSV for tables and newline-delimited JSON for event
logs, renders exact rationals as ``num/den`` strings, and exits 0 only when
all checks of the invoked command pass (nonzero codes name the failure
class so CI can tell them apart).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Optional

from . import dmtf, findvalue
from .harness import (
    Counterexample,
    Schedule,
    account,
    check_linearizable,
    explore_check,
    run,
)
from .merges import build_lower_bound_instance, ratio_limit
from .seqcore import distance

EXIT_OK = 0
EXIT_BAD_ARGS = 1
EXIT_CHECK_FAILED = 2
EXIT_NOT_LINEARIZABLE = 3
EXIT_INVARIANT_VIOLATION = 4
EXIT_INCOMPLETE = 5


class _BadInput(Exception):
    """Input a command cannot run on; ``main`` prints it as one line."""


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as bad input (exit 1), like every other."""

    def error(self, message):
        raise _BadInput(message)


class _Int:
    """argparse type: an integer, no smaller than ``low`` if one is given."""

    def __init__(self, low: Optional[int] = None):
        self.low = low

    def __call__(self, text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if self.low is not None and value < self.low:
            raise argparse.ArgumentTypeError(f"must be >= {self.low}, got {value}")
        return value


def _hex(text: str) -> str:
    """argparse type of --tape: hex-encoded coin bits."""
    try:
        bytes.fromhex(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not hex: {text!r}") from None
    return text


def _schedule(text: str) -> Schedule:
    """argparse type of --schedule: a JSON pid array or schedule object,
    whose values ``Schedule.validate`` checks against the workload."""
    try:
        data = json.loads(text)
        if isinstance(data, (list, dict)):
            return Schedule.from_json(data)
    except (TypeError, ValueError) as exc:  # bad JSON or a malformed merge
        raise argparse.ArgumentTypeError(f"cannot read {text!r}: {exc}") from None
    raise argparse.ArgumentTypeError("must be a JSON pid array or schedule object")


def _read_json(path: str, what: str):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError covers bad JSON
        raise _BadInput(f"cannot read {what} {path}: {exc}") from None


def _positive_ints(value, what: str) -> list[int]:
    if not isinstance(value, list) or not all(
        type(x) is int and x >= 1 for x in value
    ):
        raise _BadInput(f"{what} must be a JSON array of positive integers")
    return value


def _emit(*outputs: tuple[str, Optional[str]]) -> None:
    """Write each ``(text, path)``; a path of None means stdout.

    Every path is opened before any text is written, so an unwritable path
    leaves no output behind: a file opened here is removed again if it did
    not exist, and an existing file is not truncated.
    """
    files, created = [], []
    try:
        for _, out in outputs:
            if out:
                existed = Path(out).exists()
                files.append(open(out, "a"))
                if not existed:
                    created.append(out)
    except OSError as exc:
        for f in files:
            f.close()
        for path in created:
            Path(path).unlink()
        raise _BadInput(f"cannot write {out}: {exc}") from None
    files = iter(files)
    for text, out in outputs:
        if out:
            with next(files) as f:
                f.truncate(0)
                f.write(text)
        else:
            sys.stdout.write(text)


def _config_header(args: argparse.Namespace, keys: list[str]) -> str:
    resolved = {k: getattr(args, k) for k in keys}
    return "# config " + json.dumps(resolved, sort_keys=True, default=Schedule.to_json)


def _frac(x) -> str:
    return str(Fraction(x))


def cmd_distance(args) -> int:
    seq = _positive_ints(_read_json(args.sequence, "sequence"), "sequence")
    prof = distance(seq, args.ell)
    lines = [_config_header(args, ["sequence", "ell"])]
    if args.format == "json":
        lines.append(json.dumps(
            {"per_index": list(prof.per_index), "total": prof.total}
        ))
    else:
        lines.append("index,distance")
        lines.extend(f"{j},{d}" for j, d in enumerate(prof.per_index, start=1))
        lines.append(f"total,{prof.total}")
    _emit(("\n".join(lines) + "\n", args.out))
    return EXIT_OK


_LADDER = (1, 2, 5, 10, 20, 50, 100)


def cmd_merge_ratio(args) -> int:
    p, ell = args.p, args.ell
    if ell % p != 0:
        raise _BadInput(f"{p} does not divide {ell}")
    limit = ratio_limit(p, ell)
    rungs = sorted({x for x in _LADDER if x <= min(args.r, args.s)}
                   | {min(args.r, args.s)})
    lines = [_config_header(args, ["p", "ell", "r", "s"]),
             "r,s,avg_hi,avg_lo,ratio,limit,gap"]
    ratios = []
    for x in rungs:
        inst = build_lower_bound_instance(p, ell, x, x)
        hi = inst.avg_distance(inst.merge_hi)
        lo = inst.avg_distance(inst.merge_lo)
        ratio = hi / lo
        ratios.append(ratio)
        lines.append(
            f"{x},{x},{_frac(hi)},{_frac(lo)},{_frac(ratio)},"
            f"{_frac(limit)},{_frac(limit - ratio)}"
        )
    _emit(("\n".join(lines) + "\n", args.out))
    monotone = all(a < b for a, b in zip(ratios, ratios[1:]))
    below = all(r < limit for r in ratios)
    return EXIT_OK if monotone and below else EXIT_CHECK_FAILED


def cmd_dmtf(args) -> int:
    raw = _read_json(args.workload, "workload")
    if not isinstance(raw, list) or not raw:
        raise _BadInput("workload must be a JSON array of per-process request arrays")
    workload = [
        tuple(_positive_ints(w, f"the requests of process {pid}"))
        for pid, w in enumerate(raw, start=1)
    ]
    schedule = args.schedule
    try:
        schedule.validate(workload)
    except ValueError as exc:
        raise _BadInput(f"--schedule: {exc}") from None
    if schedule.kind == "random" and schedule.seed is None:
        schedule.seed = args.seed
    state = dmtf.init(list(range(1, args.ell + 1)), len(workload), args.phi)
    history = run(state, workload, schedule, step_bound=args.budget)

    header = _config_header(args, ["workload", "schedule", "ell", "phi", "seed", "budget"])
    verdict = check_linearizable(history)
    linearizable = not isinstance(verdict, Counterexample)
    violations = dmtf.snapshot_invariants(state) if history.completed else []
    cost_lines = [header, "op_level,item_level,actual,n_completed,linearizable"]
    if linearizable:
        rep = account(history)
        cost_lines.append(f"{rep.csv_row()},true")
    else:
        cost_lines.append(f",,{len(history.accesses())},,false")
    costs_path = args.costs or (args.out + ".costs.csv" if args.out else None)
    _emit((header + "\n" + history.to_jsonl(), args.out),
          ("\n".join(cost_lines) + "\n", costs_path))

    if not linearizable:
        print(f"not linearizable: {verdict.reason}", file=sys.stderr)
        return EXIT_NOT_LINEARIZABLE
    if violations:
        for v in violations:
            print(f"invariant violation: {v}", file=sys.stderr)
        return EXIT_INVARIANT_VIOLATION
    if not history.completed:
        # the budget is checked before every step, so a shorter run means
        # the explicit schedule ran out first
        if len(history.schedule) < args.budget:
            print("schedule exhausted with pending operations", file=sys.stderr)
        else:
            print("step bound exceeded with pending operations", file=sys.stderr)
        return EXIT_INCOMPLETE
    return EXIT_OK


def cmd_explore(args) -> int:
    items = list(range(1, args.ell + 1))
    target = args.item if args.item is not None else args.ell
    workload = tuple((target,) * args.requests for _ in range(args.p))

    def factory():
        state = dmtf.init(items, args.p, args.phi)
        if args.inject_corruption:
            state.arena[1].old = dmtf.NULL
        return state

    report = explore_check(factory, workload, step_bound=args.budget)
    lines = [
        _config_header(args, ["p", "ell", "phi", "requests", "item", "budget",
                              "inject_corruption"]),
        "states,histories,bound_hits,violations",
        f"{report.states},{report.histories},{report.bound_hits},"
        f"{len(report.violations)}",
    ]
    lines.extend(f"# violation {v}" for v in report.violations[:20])
    _emit(("\n".join(lines) + "\n", args.out))
    return EXIT_OK if not report.violations else EXIT_INVARIANT_VIOLATION


def cmd_findvalue(args) -> int:
    lines = [_config_header(args, ["mode", "n", "seed", "tapes", "tape"])]
    if args.mode == "deterministic":
        reads, opt = findvalue.run_deterministic(list(range(args.n)))
        lines.append("inputs,reads,opt_reads,ratio")
        lines.append(f"{args.n},{reads},{opt},{_frac(Fraction(reads, opt))}")
        ok = reads == 3 * args.n
    elif args.mode == "exact":
        expected = findvalue.exact_expected_reads(args.n)
        opt = findvalue.OPT_READS_PER_INPUT * args.n
        lines.append("inputs,expected_reads,opt_reads,ratio")
        lines.append(f"{args.n},{_frac(expected)},{opt},{_frac(expected / opt)}")
        ok = expected == args.n * Fraction(23, 8)
    elif args.mode == "mc":
        mean = findvalue.monte_carlo_expected_reads(args.tapes, args.seed)
        exact = Fraction(23, 8)
        within = abs(mean - exact) <= exact / 100
        lines.append("tapes,mean_reads,exact,within_1pct")
        lines.append(f"{args.tapes},{_frac(mean)},{_frac(exact)},{str(within).lower()}")
        ok = within
    elif args.mode == "tape":
        tape = findvalue.CoinTape.from_hex(args.tape) if args.tape else (
            findvalue.CoinTape.from_seed(args.seed, 4 * args.n)
        )
        if len(tape.bits) < 4 * args.n:
            raise _BadInput(f"--tape has {len(tape.bits)} bits; "
                            f"--n {args.n} needs {4 * args.n}")
        reads = findvalue.run_randomized(list(range(args.n)), tape=tape)
        lines.append("inputs,reads")
        lines.append(f"{args.n},{reads}")
        ok = True
    else:  # adversary
        maps = list(product((1, 2), (0, 2), (0, 1)))
        forced = [findvalue.lower_bound_adversary(f) for f in maps]
        lines.append("f0,f1,f2,forced_reads")
        lines.extend(f"{f0},{f1},{f2},{r}" for (f0, f1, f2), r in zip(maps, forced))
        lines.append(f"min,,,{min(forced)}")
        ok = min(forced) == 3
    _emit(("\n".join(lines) + "\n", args.out))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _with_config(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """argv with the --config file's values put ahead of the command's own
    arguments, to be parsed like them; argparse keeps the last value a flag
    is given, so an explicit flag wins in any syntax.

    Keys are flag destinations (``inject_corruption``); other keys are
    ignored.  A switch takes true or false, an integer flag a JSON integer,
    and any other flag a string as its text or a value as its JSON text.
    """
    locate = _Parser(add_help=False)
    locate.add_argument("command", nargs="?")
    locate.add_argument("--config")
    found, _ = locate.parse_known_args(argv)
    commands = parser._subparsers._group_actions[0].choices
    if found.config is None or found.command not in commands:
        return argv
    config = _read_json(found.config, "config")
    if not isinstance(config, dict):
        raise _BadInput("config must be a JSON object")
    given = []
    for key, value in config.items():
        flag = "--" + key.replace("_", "-")
        action = commands[found.command]._option_string_actions.get(flag)
        if action is None or action.dest in ("help", "config"):
            continue
        if action.nargs == 0:
            if type(value) is not bool:
                raise _BadInput(f"config {key} must be true or false")
            given += [flag] * value
        elif isinstance(value, str) and not isinstance(action.type, _Int):
            given.append(f"{flag}={value}")
        else:
            given.append(f"{flag}={json.dumps(value)}")
    at = argv.index(found.command) + 1
    return argv[:at] + given + argv[at:]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="listlab", description="distributed list accessing laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file with parameter defaults")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--seed", type=_Int(), default=0)

    p = sub.add_parser("distance", help="distance profile of a sequence")
    common(p)
    p.add_argument("sequence", help="JSON file with an array of item ids")
    p.add_argument("--ell", type=_Int(1), required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("merge-ratio", help="average-distance ratio ladder")
    common(p)
    p.add_argument("--p", type=_Int(2), required=True)
    p.add_argument("--ell", type=_Int(1), required=True)
    p.add_argument("--r", type=_Int(1), required=True)
    p.add_argument("--s", type=_Int(1), required=True)
    p.set_defaults(func=cmd_merge_ratio)

    p = sub.add_parser("dmtf", help="run a workload under a schedule")
    common(p)
    p.add_argument("--workload", required=True,
                   help="JSON file: one request array per process")
    p.add_argument("--schedule", type=_schedule, default='{"kind": "round_robin"}',
                   help="JSON schedule spec or pid array")
    p.add_argument("--ell", type=_Int(2), required=True)
    p.add_argument("--phi", type=_Int(1), default=1)
    p.add_argument("--budget", type=_Int(1), default=1_000_000)
    p.add_argument("--costs", help="cost report path")
    p.set_defaults(func=cmd_dmtf)

    p = sub.add_parser("explore", help="exhaustive schedule exploration")
    common(p)
    p.add_argument("--p", type=_Int(1), default=2)
    p.add_argument("--ell", type=_Int(2), default=2)
    p.add_argument("--phi", type=_Int(1), default=1)
    p.add_argument("--requests", type=_Int(0), default=1)
    p.add_argument("--item", type=_Int(1), default=None,
                   help="requested item (default: the rear item)")
    p.add_argument("--budget", type=_Int(1), default=400)
    p.add_argument("--inject-corruption", action="store_true",
                   help="corrupt a node field to exercise the checkers")
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("findvalue", help="three-process register game")
    common(p)
    p.add_argument("--mode", required=True,
                   choices=["deterministic", "exact", "mc", "tape", "adversary"])
    p.add_argument("--n", type=_Int(1), default=1)
    p.add_argument("--tapes", type=_Int(1), default=1_000_000)
    p.add_argument("--tape", type=_hex, help="hex-encoded coin bits for tape mode")
    p.set_defaults(func=cmd_findvalue)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_with_config(parser, argv))
        return args.func(args)
    except _BadInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS


if __name__ == "__main__":
    sys.exit(main())
