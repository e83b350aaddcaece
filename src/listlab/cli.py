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


_SCHEDULE_KINDS = ("explicit", "round_robin", "random", "sequential")


def _parse_schedule(spec: str, workload: list[tuple[int, ...]]) -> Schedule:
    """The --schedule value, with every pid checked against 1..p."""
    try:
        data = json.loads(spec)
    except ValueError as exc:
        raise _BadInput(f"--schedule is not JSON: {exc}") from None
    if isinstance(data, list):
        data = {"kind": "explicit", "pids": data}
    if not isinstance(data, dict) or data.get("kind") not in _SCHEDULE_KINDS:
        raise _BadInput(
            "--schedule must be a pid array or an object whose kind is one of "
            + ", ".join(_SCHEDULE_KINDS)
        )
    p = len(workload)
    pids = data.get("pids")
    if pids is not None and not (
        isinstance(pids, list) and all(type(x) is int and 1 <= x <= p for x in pids)
    ):
        raise _BadInput(f"schedule pids must be integers from 1 to {p}")
    if data.get("seed") is not None and type(data["seed"]) is not int:
        raise _BadInput("schedule seed must be an integer")
    try:
        schedule = Schedule.from_json(data)
        if schedule.merge is not None:
            schedule.merge.validate(workload)
    except (TypeError, ValueError) as exc:
        raise _BadInput(f"schedule merge: {exc}") from None
    return schedule


def _init_state(items: list[int], p: int, phi: int) -> dmtf.SharedState:
    try:
        return dmtf.init(items, p, phi)
    except ValueError as exc:  # too few items, p < 1 or phi < 1
        raise _BadInput(str(exc)) from None


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _config_header(args: argparse.Namespace, keys: list[str]) -> str:
    resolved = {k: getattr(args, k) for k in keys}
    return "# config " + json.dumps(resolved, sort_keys=True)


def _frac(x) -> str:
    return str(Fraction(x))


def cmd_distance(args) -> int:
    seq = _positive_ints(_read_json(args.sequence, "sequence"), "sequence")
    if args.ell < 1:
        raise _BadInput("--ell must be >= 1")
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
    _emit("\n".join(lines) + "\n", args.out)
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
    _emit("\n".join(lines) + "\n", args.out)
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
    schedule = _parse_schedule(args.schedule, workload)
    if schedule.kind == "random" and schedule.seed is None:
        schedule.seed = args.seed
    if args.budget < 1:
        raise _BadInput("--budget must be >= 1")
    state = _init_state(list(range(1, args.ell + 1)), len(workload), args.phi)
    history = run(state, workload, schedule, step_bound=args.budget)

    header = _config_header(
        args, ["workload", "schedule", "ell", "phi", "seed", "budget"]
    )
    _emit(header + "\n" + history.to_jsonl(), args.out)

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
    _emit("\n".join(cost_lines) + "\n", costs_path)

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
    _init_state(items, args.p, args.phi)  # the factory's checks, up front
    if args.item is not None and args.item < 1:
        raise _BadInput("--item must be >= 1")
    if args.budget < 1:
        raise _BadInput("--budget must be >= 1")
    if args.requests < 0:
        raise _BadInput("--requests must be >= 0")
    target = args.item if args.item is not None else args.ell
    workload = tuple((target,) * args.requests for _ in range(args.p))

    def factory():
        state = dmtf.init(items, args.p, args.phi)
        if args.inject_corruption:
            state.arena[1].old = dmtf.NULL
        return state

    report = explore_check(factory, workload, step_bound=args.budget)
    lines = [
        _config_header(
            args,
            ["p", "ell", "phi", "requests", "item", "budget",
             "inject_corruption"],
        ),
        "states,histories,bound_hits,violations",
        f"{report.states},{report.histories},{report.bound_hits},"
        f"{len(report.violations)}",
    ]
    lines.extend(f"# violation {v}" for v in report.violations[:20])
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if not report.violations else EXIT_INVARIANT_VIOLATION


def cmd_findvalue(args) -> int:
    header = _config_header(args, ["mode", "n", "seed", "tapes", "tape"])
    lines = [header]
    ok = False
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
        reads = findvalue.run_randomized(list(range(args.n)), tape=tape)
        lines.append("inputs,reads")
        lines.append(f"{args.n},{reads}")
        ok = True
    elif args.mode == "adversary":
        lines.append("f0,f1,f2,forced_reads")
        forced = []
        for f0 in (1, 2):
            for f1 in (0, 2):
                for f2 in (0, 1):
                    r = findvalue.lower_bound_adversary((f0, f1, f2))
                    forced.append(r)
                    lines.append(f"{f0},{f1},{f2},{r}")
        lines.append(f"min,,,{min(forced)}")
        ok = min(forced) == 3
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _apply_config(args: argparse.Namespace, argv: list[str]) -> None:
    """Give --config values priority over defaults but not explicit flags."""
    if not getattr(args, "config", None):
        return
    config = _read_json(args.config, "config")
    if not isinstance(config, dict):
        raise _BadInput("config must be a JSON object")
    for key, value in config.items():
        flag = "--" + key.replace("_", "-")
        if hasattr(args, key) and flag not in argv:
            setattr(args, key, value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="listlab",
        description="distributed list accessing laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file with parameter defaults")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("distance", help="distance profile of a sequence")
    common(p)
    p.add_argument("sequence", help="JSON file with an array of item ids")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("merge-ratio", help="average-distance ratio ladder")
    common(p)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.set_defaults(func=cmd_merge_ratio)

    p = sub.add_parser("dmtf", help="run a workload under a schedule")
    common(p)
    p.add_argument("--workload", required=True,
                   help="JSON file: one request array per process")
    p.add_argument("--schedule", default='{"kind": "round_robin"}',
                   help="JSON schedule spec or pid array")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--phi", type=int, default=1)
    p.add_argument("--budget", type=int, default=1_000_000)
    p.add_argument("--costs", help="cost report path")
    p.set_defaults(func=cmd_dmtf)

    p = sub.add_parser("explore", help="exhaustive schedule exploration")
    common(p)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--ell", type=int, default=2)
    p.add_argument("--phi", type=int, default=1)
    p.add_argument("--requests", type=int, default=1)
    p.add_argument("--item", type=int, default=None,
                   help="requested item (default: the rear item)")
    p.add_argument("--budget", type=int, default=400)
    p.add_argument("--inject-corruption", action="store_true",
                   help="corrupt a node field to exercise the checkers")
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("findvalue", help="three-process register game")
    common(p)
    p.add_argument("--mode", required=True,
                   choices=["deterministic", "exact", "mc", "tape", "adversary"])
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--tapes", type=int, default=1_000_000)
    p.add_argument("--tape", help="hex-encoded coin bits for tape mode")
    p.set_defaults(func=cmd_findvalue)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(argv)
    try:
        _apply_config(args, list(argv))
        return args.func(args)
    except _BadInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS


if __name__ == "__main__":
    sys.exit(main())
