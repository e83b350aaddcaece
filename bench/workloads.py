"""The benchmark's four workloads over listlab's public functions.

Each workload generates its inputs from the seed, then offers a fixed list
of items.  One pass runs every item once; an item's run is timed, and its
check (against ``reference``, never against listlab itself) runs after the
timer stops.  Calls into listlab are wrapped in spans named after the
called function, which cost next to nothing with ``NullTracer``.  Probes
are extra calls made only in the traced run, splitting pipelines so that
each module gets spans of its own.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Any, Callable

from listlab import cli, dmtf, findvalue, harness, merges, seqcore
from listlab.harness import Schedule
from listlab.seqcore import CostModel

import reference
from spans import NullTracer


@dataclass
class Checks:
    """Reference checks attempted and failed, with the first failures."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


@dataclass
class Item:
    id: str
    run: Callable[[Any, str], Any]  # (tracer, item id) -> output, timed
    check: Callable[[Any, Checks], None]  # (output, checks), untimed


def _rate(spans, selfs, name: str, prefix) -> float:
    """Units of work per second of self time, over spans of one call."""
    chosen = [s for s in spans if s.name == name and s.item.startswith(prefix)]
    return sum(s.n for s in chosen) / sum(selfs[s.id] for s in chosen)


def _self_s(spans, selfs, name: str, prefix) -> float:
    return sum(selfs[s.id] for s in spans
               if s.name == name and s.item.startswith(prefix))


def _cli(tr, item_id: str, argv: list[str]) -> int:
    with tr.span(f"cli.{argv[0]}", item_id):
        return cli.main(argv)


class ModelCheck:
    name = "modelcheck"
    why = ("explore_check on three fixed p=2 ell=2 configurations: explorer "
           "cloning, state hashing, per-response linearization and replay; "
           "no native code, no oracle")
    STEP_BOUND = 200
    # Expected verdicts: "relink" configurations reach the pinned
    # stale-helper relink, reported only as duplicate settled items.  The
    # configurations are fixed and ignore the seed, and so is their order,
    # because an exploration's speed depends on which ran before it.
    CONFIGS = {((2, 1), (2,)): "relink", ((1,), (2,)): "relink",
               ((2,), (2,)): "clean"}

    def __init__(self, seed: int, tmp: Path):
        self.tmp = tmp
        self.reports: dict = {}

    @staticmethod
    def _state() -> dmtf.SharedState:
        return dmtf.init([1, 2], p=2, phi=1)

    @staticmethod
    def _item_id(config) -> str:
        return "modelcheck/" + repr(config).replace(" ", "")

    def shape(self) -> str:
        return (f"explore_check, step bound {self.STEP_BOUND}, on "
                f"{', '.join(map(self._item_id, self.CONFIGS))}; "
                "listlab explore with and without --inject-corruption")

    def warm_up(self) -> None:
        harness.explore_check(self._state, ((2,), (2,)), self.STEP_BOUND)

    def items(self) -> list[Item]:
        out = [Item(self._item_id(c), partial(self._explore, c),
                    partial(self._check_explore, c)) for c in self.CONFIGS]
        explore_out = str(self.tmp / "explore.csv")
        out.append(Item("modelcheck/cli-explore",
                        partial(_cli, argv=["explore", "--out", explore_out]),
                        partial(self._check_exit, 0)))
        out.append(Item("modelcheck/cli-corrupt",
                        partial(_cli, argv=["explore", "--inject-corruption",
                                            "--out", explore_out]),
                        partial(self._check_exit, 4)))
        return out

    def _explore(self, config, tr, item_id):
        with tr.span("harness.explore_check", item_id) as sp:
            rep = harness.explore_check(self._state, config, self.STEP_BOUND)
            sp.n = rep.states
        return rep

    def _check_explore(self, config, rep, checks: Checks) -> None:
        self.reports[config] = rep
        checks.expect(rep.bound_hits == 0, f"{config}: step bound hit")
        if self.CONFIGS[config] == "clean":
            checks.expect(not rep.violations, f"{config}: {rep.violations[:1]}")
        else:
            checks.expect(
                bool(rep.violations)
                and all("duplicate items" in v for v in rep.violations),
                f"{config}: expected only the relink, got {rep.violations[:1]}",
            )

    @staticmethod
    def _check_exit(expected: int, code: int, checks: Checks) -> None:
        checks.expect(code == expected, f"listlab explore exit {code} != {expected}")

    TERMINAL_CALLS = ("harness.run", "harness.to_jsonl", "dmtf.snapshot_invariants",
                      "harness.check_linearizable", "harness.verify_witness")

    def probes(self, tr) -> None:
        # explore_check piece by piece: the exploration, then its checks of
        # every terminal history as spans nested inside it
        for config in self.CONFIGS:
            iid = self._item_id(config)
            with tr.span("harness.explore_all", iid) as sp:
                rep = harness.ExploreReport(0, 0, 0)
                for history in harness.explore_all(self._state, config,
                                                   self.STEP_BOUND, rep):
                    self._terminal_checks(tr, iid, config, history)
                sp.n = rep.states

    def _terminal_checks(self, tr, item_id, config, history) -> None:
        state = self._state()
        with tr.span("harness.run", item_id):
            replay = harness.run(state, config,
                                 Schedule(kind="explicit", pids=history.schedule))
        with tr.span("harness.to_jsonl", item_id):
            replay.to_jsonl() == history.to_jsonl()
        with tr.span("dmtf.snapshot_invariants", item_id):
            dmtf.snapshot_invariants(state)
        with tr.span("harness.check_linearizable", item_id):
            witness = harness.check_linearizable(history)
        if isinstance(witness, harness.LinearizationWitness):
            with tr.span("harness.verify_witness", item_id):
                try:
                    harness.verify_witness(history, witness)
                except AssertionError:
                    pass

    def headline(self, best: dict[str, float]) -> dict:
        return {"verdict_s": (sum(best[self._item_id(c)] for c in self.CONFIGS), "s")}

    def fingerprints(self) -> dict:
        return {
            "explore" + repr(c).replace(" ", ""): [
                r.states, r.histories, r.bound_hits, len(r.violations)]
            for c, r in self.reports.items()
        }

    def layer_metrics(self, spans, selfs) -> dict:
        p = "modelcheck/("
        return {
            "harness.explore_all.states_per_s":
                (_rate(spans, selfs, "harness.explore_all", p), "states/s"),
            "harness.explore_check.terminal_s":
                (sum(_self_s(spans, selfs, call, p) for call in self.TERMINAL_CALLS),
                 "s"),
            "cli.explore.s":
                (_self_s(spans, selfs, "cli.explore", "modelcheck/cli-explore"), "s"),
        }


class Simulate:
    name = "simulate"
    why = ("seeded random-schedule interpreter runs, p=4 ell=64, uniform and "
           "hot-set mixes, each run checked, costed and serialized; plus the "
           "ratio experiments and their oracles")
    P, ELL, PHI = 4, 64, 4
    REQUESTS = 25      # per process and history
    HISTORIES = 4      # per request mix
    MIXES = ("uniform", "hot")
    HOT_ITEMS, HOT_SHARE = 4, 0.9
    TINY = 6           # tiny instances for the brute-force oracle check

    def __init__(self, seed: int, tmp: Path):
        rng = random.Random(seed)
        self.list_items = list(range(1, self.ELL + 1))
        hot = rng.sample(self.list_items, self.HOT_ITEMS)

        def request(mix: str) -> int:
            if mix == "hot" and rng.random() < self.HOT_SHARE:
                return rng.choice(hot)
            return rng.randint(1, self.ELL)

        self.runs = {
            f"simulate/{mix}/{k}": (
                tuple(tuple(request(mix) for _ in range(self.REQUESTS))
                      for _ in range(self.P)),
                rng.randrange(1 << 32),
            )
            for mix in self.MIXES for k in range(self.HISTORIES)
        }
        chase = tuple(range(6, 0, -1)) * 3
        paid = tuple(tuple(rng.randint(1, 5) for _ in range(8)) for _ in range(2))
        # (label, items, workload, oracle, cost model)
        self.ratio_cases = [
            ("chase-p2", list(range(1, 7)), (chase,) * 2, "free", CostModel.PARTIAL),
            ("chase-p3", list(range(1, 7)), (chase,) * 3, "free", CostModel.PARTIAL),
            ("paid-ell5", list(range(1, 6)), paid, "paid", CostModel.FULL),
        ]
        self.tiny = [tuple(rng.randint(1, 4) for _ in range(6))
                     for _ in range(self.TINY)]
        workload, sched_seed = self.runs["simulate/uniform/0"]
        self.cli_workload = tmp / "simulate-workload.json"
        self.cli_workload.write_text(json.dumps(workload))
        self.cli_argv = ["dmtf", "--workload", str(self.cli_workload),
                         "--ell", str(self.ELL), "--phi", str(self.PHI),
                         "--schedule", json.dumps({"kind": "random",
                                                   "seed": sched_seed}),
                         "--out", str(tmp / "dmtf.ndjson")]
        self.counts: dict[str, dict] = {}
        self.linearized: dict[str, tuple] = {}

    def shape(self) -> str:
        return (f"{self.HISTORIES} histories per mix ({', '.join(self.MIXES)}: "
                f"{self.HOT_SHARE:.0%} of requests to {self.HOT_ITEMS} items), "
                f"p={self.P} ell={self.ELL} phi={self.PHI}, {self.REQUESTS} "
                "requests per process; ratio set "
                f"{[c[0] for c in self.ratio_cases]}; listlab dmtf")

    def warm_up(self) -> None:
        workload, sched_seed = self.runs["simulate/uniform/0"]
        self._pipeline(tuple(w[:5] for w in workload), sched_seed, NullTracer(),
                       "warm-up")

    def items(self) -> list[Item]:
        out = [Item(iid, partial(self._pipeline, *run), partial(self._check_run, iid))
               for iid, run in self.runs.items()]
        out.append(Item("simulate/ratio", self._ratios, self._check_ratios))
        out.append(Item("simulate/cli-dmtf", partial(_cli, argv=self.cli_argv),
                        lambda code, checks: checks.expect(
                            code == 0, f"listlab dmtf exit {code}")))
        return out

    def _pipeline(self, workload, sched_seed, tr, item_id) -> dict:
        state = dmtf.init(self.list_items, self.P, self.PHI)
        with tr.span("harness.run", item_id) as sp:
            history = harness.run(state, workload,
                                  Schedule(kind="random", seed=sched_seed))
            # one invoke and one respond event per completed search
            sp.n = len(history.events) - 2 * sum(map(len, workload))
        n = len(history.events)
        with tr.span("harness.check_linearizable", item_id) as sp:
            witness = harness.check_linearizable(history)
            sp.n = n
        report, verified = None, False
        if isinstance(witness, harness.LinearizationWitness):
            with tr.span("harness.verify_witness", item_id) as sp:
                try:
                    harness.verify_witness(history, witness)
                    verified = True
                except AssertionError:
                    pass
                sp.n = n
            with tr.span("harness.account", item_id) as sp:
                report = harness.account(history)
                sp.n = n
        with tr.span("dmtf.snapshot_invariants", item_id) as sp:
            invariants = dmtf.snapshot_invariants(state)
            sp.n = len(state.arena)
        with tr.span("harness.to_jsonl", item_id) as sp:
            text = history.to_jsonl()
            sp.n = n
        with tr.span("harness.from_jsonl", item_id) as sp:
            back = harness.ExecutionHistory.from_jsonl(text)
            sp.n = n
        return {"state": state, "history": history, "witness": witness,
                "verified": verified, "report": report,
                "invariants": invariants, "back": back}

    def _check_run(self, item_id: str, out: dict, checks: Checks) -> None:
        h, rep, arena = out["history"], out["report"], out["state"].arena
        counts = reference.protocol_counts(h.events)
        self.counts[item_id] = counts
        requested = sorted(x for w in h.workload for x in w)
        checks.expect(h.completed and counts["searches"] == len(requested),
                      f"{item_id}: run incomplete")
        checks.expect(out["verified"], f"{item_id}: no verified witness")
        checks.expect(not out["invariants"], f"{item_id}: {out['invariants'][:1]}")
        checks.expect(out["back"] == h, f"{item_id}: jsonl round trip differs")
        invoked = {}
        found = True
        for ev in h.events:
            if ev["type"] == "invoke":
                invoked[ev["op"]] = ev["item"]
            elif ev["type"] == "respond":
                r = ev["result"]
                found &= 0 <= r < len(arena) and arena[r].item == invoked[ev["op"]]
        checks.expect(found, f"{item_id}: a search returned a node of another item")
        if rep is None:
            checks.expect(False, f"{item_id}: not costed")
            return
        self.linearized[item_id] = rep.linearized
        checks.expect(sorted(rep.linearized) == requested,
                      f"{item_id}: linearization is not a permutation of the requests")
        checks.expect(rep.op_level == reference.mtf_cost(rep.linearized, h.items),
                      f"{item_id}: op-level cost differs from move-to-front")
        checks.expect(rep.item_level == counts["inspected"]
                      and rep.actual == counts["accesses"],
                      f"{item_id}: item-level or actual cost differs from the log")

    def _ratios(self, tr, item_id) -> list:
        out = []
        for label, items, workload, oracle, model in self.ratio_cases:
            with tr.span("harness.ratio_experiment", item_id) as sp:
                res = harness.ratio_experiment(
                    items, workload, Schedule(kind="round_robin"), phi=1,
                    mode="linearization", oracle=oracle, model=model)
                sp.n = len(res.report.linearized)
            out.append((label, items, workload, model, res))
        return out

    def _check_ratios(self, out: list, checks: Checks) -> None:
        for label, items, workload, model, res in out:
            seq = res.report.linearized
            opt_full = res.opt_cost + (len(seq) if model is CostModel.PARTIAL else 0)
            checks.expect(opt_full <= reference.mtf_cost(seq, items),
                          f"{label}: oracle above move-to-front")
            if label.startswith("chase"):
                # chasing the rear item costs exactly p times the optimum
                checks.expect(res.ratio == len(workload), f"{label}: ratio {res.ratio}")
        for seq in self.tiny:
            init = [1, 2, 3, 4]
            checks.expect(seqcore.opt_free_cost(seq, init)
                          == reference.brute_free_cost(seq, init),
                          f"opt_free_cost{seq} differs from brute force")

    def probes(self, tr) -> None:
        state = dmtf.init(self.list_items, self.P, self.PHI)
        for e in self.runs["simulate/uniform/0"][0][0]:
            with tr.span("dmtf.run_solo", "simulate/solo") as sp:
                _, steps, _ = dmtf.run_solo(state, 1, e)
                sp.n = steps
        for seq in self.linearized.values():
            with tr.span("seqcore.mtf_run", "simulate/mtf") as sp:
                seqcore.mtf_run(seq, self.list_items)
                sp.n = len(seq)
        # ratio_experiment piece by piece
        for label, items, workload, oracle, model in self.ratio_cases:
            iid = f"simulate/ratio-pieces/{label}"
            state = dmtf.init(items, len(workload), 1)
            with tr.span("harness.run", iid):
                history = harness.run(state, workload, Schedule(kind="round_robin"))
            with tr.span("harness.account", iid):
                seq = harness.account(history).linearized
            with tr.span(f"seqcore.opt_{oracle}_cost", iid) as sp:
                if oracle == "free":
                    seqcore.opt_free_cost(seq, items, max_len=len(seq))
                else:
                    seqcore.opt_paid_cost(seq, items)
                sp.n = len(seq)

    def headline(self, best: dict[str, float]) -> dict:
        searches = len(self.runs) * self.P * self.REQUESTS
        return {
            "searches_per_s": (searches / sum(best[i] for i in self.runs), "searches/s"),
            "ratio_s": (best["simulate/ratio"], "s"),
        }

    def fingerprints(self) -> dict:
        # the determinism regression history of acceptance criterion 11
        state = dmtf.init([1, 2, 3], p=2, phi=2)
        history = harness.run(state, ((2, 1, 3), (3, 3, 1)),
                              Schedule(kind="random", seed=2026))
        blob = history.to_jsonl() + harness.account(history).csv_row()
        return {"criterion11_sha256": hashlib.sha256(blob.encode()).hexdigest()}

    def layer_metrics(self, spans, selfs) -> dict:
        runs = ("simulate/uniform/", "simulate/hot/")
        out = {
            "seqcore.opt_free_cost.requests_per_s": (_rate(
                spans, selfs, "seqcore.opt_free_cost", "simulate/ratio-pieces"), "requests/s"),
            "seqcore.opt_paid_cost.requests_per_s": (_rate(
                spans, selfs, "seqcore.opt_paid_cost", "simulate/ratio-pieces"), "requests/s"),
            "seqcore.mtf_run.requests_per_s": (_rate(
                spans, selfs, "seqcore.mtf_run", "simulate/mtf"), "requests/s"),
            "dmtf.run_solo.steps_per_s": (_rate(
                spans, selfs, "dmtf.run_solo", "simulate/solo"), "steps/s"),
            "dmtf.snapshot_invariants.nodes_per_s": (_rate(
                spans, selfs, "dmtf.snapshot_invariants", runs), "nodes/s"),
            "harness.run.accesses_per_s": (_rate(
                spans, selfs, "harness.run", runs), "accesses/s"),
            "harness.ratio_experiment.s": (_self_s(
                spans, selfs, "harness.ratio_experiment", "simulate/ratio"), "s"),
            "cli.dmtf.s": (_self_s(spans, selfs, "cli.dmtf", "simulate/cli-dmtf"), "s"),
        }
        for call in ("check_linearizable", "verify_witness", "account",
                     "to_jsonl", "from_jsonl"):
            out[f"harness.{call}.events_per_s"] = (
                _rate(spans, selfs, f"harness.{call}", runs), "events/s")
        for mix in self.MIXES:
            total: dict[str, int] = {}
            for iid, counts in self.counts.items():
                if iid.startswith(f"simulate/{mix}/"):
                    for k, v in counts.items():
                        total[k] = (max(total.get(k, 0), v) if k == "inspected_max"
                                    else total.get(k, 0) + v)
            per = total["searches"]
            out[f"dmtf.accesses_per_search.{mix}"] = (total["accesses"] / per, "1/search")
            out[f"dmtf.inspected_per_search.mean.{mix}"] = (
                total["inspected"] / per, "nodes/search")
            out[f"dmtf.inspected_per_search.max.{mix}"] = (total["inspected_max"], "nodes")
            for cls in ("head", "ann", "node"):
                for what in ("attempts", "failed"):
                    out[f"dmtf.cas.{what}.{cls}.{mix}"] = (
                        total[f"cas_{what}_{cls}"] / per, "1/search")
            out[f"dmtf.prepends.{mix}"] = (total["prepends"] / per, "1/search")
            out[f"dmtf.informs.{mix}"] = (total["informs"] / per, "1/search")
        return out


class Native:
    name = "native"
    why = ("search_native on real threads sharing one core, ell=64 phi=4: "
           "uniform on 1 and 2 threads, hot-set on 2; the only workload that "
           "runs the lock-striped backend")
    ELL, PHI, SEARCHES = 64, 4, 20_000
    # (variant, threads, request mix)
    VARIANTS = (("p1", 1, "uniform"), ("p2", 2, "uniform"), ("p2_hot", 2, "hot"))
    HOT_ITEMS, HOT_SHARE = 4, 0.9
    JOIN_TIMEOUT_S = 120

    def __init__(self, seed: int, tmp: Path):
        rng = random.Random(seed)
        self.list_items = list(range(1, self.ELL + 1))
        hot = rng.sample(self.list_items, self.HOT_ITEMS)

        def request(mix: str) -> int:
            if mix == "hot" and rng.random() < self.HOT_SHARE:
                return rng.choice(hot)
            return rng.randint(1, self.ELL)

        self.requests = {
            name: [[request(mix) for _ in range(self.SEARCHES // p)]
                   for _ in range(p)]
            for name, p, mix in self.VARIANTS
        }
        self.arena_nodes: dict[str, int] = {}

    def shape(self) -> str:
        return (f"{self.SEARCHES} searches per variant "
                f"{[v[0] for v in self.VARIANTS]}, ell={self.ELL} phi={self.PHI}, "
                f"hot-set {self.HOT_SHARE:.0%} of requests to {self.HOT_ITEMS} items")

    def warm_up(self) -> None:
        self._search([self.requests["p1"][0][:1000]], NullTracer(), "warm-up")

    def items(self) -> list[Item]:
        return [Item(f"native/{name}", partial(self._search, self.requests[name]),
                     partial(self._check, name))
                for name, _, _ in self.VARIANTS]

    def _search(self, seqs, tr, item_id) -> dict:
        p = len(seqs)
        state = dmtf.init(self.list_items, p, self.PHI)
        results: list = [None] * p
        parent = tr.current()

        def worker(pid: int) -> None:
            search, seq = dmtf.search_native, seqs[pid - 1]
            if isinstance(tr, NullTracer):
                results[pid - 1] = [search(state, pid, e) for e in seq]
                return
            got = []
            for e in seq:
                with tr.span("dmtf.search_native", item_id, parent) as sp:
                    got.append(search(state, pid, e))
                    sp.n = 1
            results[pid - 1] = got

        # Every variant runs on one core.  Under the GIL only one thread runs
        # Python at a time anyway; across two cores each hand-off of the GIL
        # also waits for a wake-up on the other core, and that cost made the
        # 2-thread rate vary by a fifth from run to run.
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
        try:
            threads = [threading.Thread(target=worker, args=(pid,), daemon=True)
                       for pid in range(1, p + 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(self.JOIN_TIMEOUT_S)
        finally:
            os.sched_setaffinity(0, cpus)
        return {"state": state, "seqs": seqs, "results": results,
                "stuck": any(t.is_alive() for t in threads)}

    def _check(self, name: str, out: dict, checks: Checks) -> None:
        state = out["state"]
        checks.expect(not out["stuck"], f"{name}: a search thread did not finish")
        if out["stuck"]:
            return
        ok = all(
            got is not None and len(got) == len(seq)
            and all(0 <= r < len(state.arena) and state.arena[r].item == e
                    for e, r in zip(seq, got))
            for seq, got in zip(out["seqs"], out["results"])
        )
        checks.expect(ok, f"{name}: a search returned a node of another item")
        violations = dmtf.snapshot_invariants(state)
        checks.expect(not violations, f"{name}: {violations[:1]}")
        self.arena_nodes[name] = len(state.arena)

    def probes(self, tr) -> None:
        pass

    def headline(self, best: dict[str, float]) -> dict:
        return {f"native_searches_per_s.{name}":
                (self.SEARCHES / best[f"native/{name}"], "searches/s")
                for name, _, _ in self.VARIANTS}

    def fingerprints(self) -> dict:
        return {"native.arena_nodes": dict(self.arena_nodes)}

    def layer_metrics(self, spans, selfs) -> dict:
        allocated = sum(self.arena_nodes.values()) - self.ELL * len(self.arena_nodes)
        return {
            "dmtf.search_native.searches_per_s":
                (_rate(spans, selfs, "dmtf.search_native", "native/p1"), "searches/s"),
            "dmtf.native.arena_nodes_per_search":
                (allocated / (self.SEARCHES * len(self.arena_nodes)), "nodes/search"),
        }


def canonical_sequences(max_len: int, max_items: int) -> list[tuple[int, ...]]:
    """Nonempty sequences of length <= max_len with items named in order of
    first occurrence, over at most max_items items."""
    out = []

    def rec(seq: list[int], used: int) -> None:
        if seq:
            out.append(tuple(seq))
        if len(seq) == max_len:
            return
        for x in range(1, min(used + 1, max_items) + 1):
            seq.append(x)
            rec(seq, max(used, x))
            seq.pop()

    rec([], 0)
    return out


class Combinatorics:
    name = "combinatorics"
    why = ("no shared list: distance on a 20k-request stream over 1000 items, "
           "the merge-ratio ladder, an exhaustive merge-bound sweep, and the "
           "register game")
    STREAM_ELL, STREAM_LEN = 1000, 20_000
    CLI_STREAM_LEN = 2_000
    DISTANCE_SAMPLES = 200
    LADDER_P, LADDER_ELL, LADDER_RS = 3, 9, 50
    SWEEP_ELL, SWEEP_LEN, SWEEP_SAMPLES = 4, 4, 50
    TAPES, CLI_TAPES, GAME_INPUTS = 200_000, 50_000, 1_000

    def __init__(self, seed: int, tmp: Path):
        rng = random.Random(seed)
        self.tmp = tmp
        self.stream = [rng.randint(1, self.STREAM_ELL) for _ in range(self.STREAM_LEN)]
        self.stream_samples = rng.sample(range(1, self.STREAM_LEN + 1),
                                         self.DISTANCE_SAMPLES)
        self.cli_stream = [rng.randint(1, self.STREAM_ELL)
                           for _ in range(self.CLI_STREAM_LEN)]
        self.cli_stream_path = tmp / "stream.json"
        self.cli_stream_path.write_text(json.dumps(self.cli_stream))
        # every item-disjoint pair up to renaming, as in acceptance criterion 3
        self.pairs = []
        for s1 in canonical_sequences(self.SWEEP_LEN, self.SWEEP_ELL - 1):
            k = max(s1)
            for s2 in canonical_sequences(self.SWEEP_LEN, self.SWEEP_ELL - k):
                self.pairs.append((s1, tuple(x + k for x in s2)))
        self.instances = sum(math.comb(len(a) + len(b), len(a)) for a, b in self.pairs)
        self.sweep_samples = set(rng.sample(range(self.instances), self.SWEEP_SAMPLES))
        self.mc_seed = rng.randrange(1 << 32)
        self.tape_seed = rng.randrange(1 << 32)
        self.game_inputs = [rng.randrange(1000) for _ in range(self.GAME_INPUTS)]
        self.ladder_argv = ["merge-ratio", "--p", str(self.LADDER_P),
                            "--ell", str(self.LADDER_ELL), "--r", str(self.LADDER_RS),
                            "--s", str(self.LADDER_RS),
                            "--out", str(tmp / "merge-ratio.csv")]
        self.sweep_counts: list[int] = []
        self.ladder_table: list[list[str]] = []

    def shape(self) -> str:
        return (f"distance on {self.STREAM_LEN} uniform requests over "
                f"{self.STREAM_ELL} items; listlab merge-ratio p={self.LADDER_P} "
                f"ell={self.LADDER_ELL} r=s={self.LADDER_RS}; sweep of "
                f"{len(self.pairs)} pairs, {self.instances} merges, ell="
                f"{self.SWEEP_ELL} length<={self.SWEEP_LEN}; {self.TAPES} tapes; "
                f"{self.GAME_INPUTS} game inputs; listlab distance and findvalue")

    def warm_up(self) -> None:
        seqcore.distance(self.stream[:2000], self.STREAM_ELL)
        findvalue.monte_carlo_expected_reads(10_000, self.mc_seed)

    def items(self) -> list[Item]:
        return [
            Item("combinatorics/distance", self._distance, self._check_distance),
            Item("combinatorics/merge-ratio", partial(_cli, argv=self.ladder_argv),
                 self._check_ladder),
            Item("combinatorics/sweep", self._sweep, self._check_sweep),
            Item("combinatorics/mc", self._monte_carlo, self._check_monte_carlo),
            Item("combinatorics/game", self._game, self._check_game),
            Item("combinatorics/cli-distance", self._cli_distance,
                 self._check_cli_distance),
            Item("combinatorics/cli-findvalue", self._cli_findvalue,
                 lambda codes, checks: checks.expect(
                     codes == [0, 0], f"listlab findvalue exits {codes}")),
        ]

    def _distance(self, tr, item_id):
        with tr.span("seqcore.distance", item_id) as sp:
            prof = seqcore.distance(self.stream, self.STREAM_ELL)
            sp.n = len(self.stream)
        return prof

    def _check_distance(self, prof, checks: Checks) -> None:
        checks.expect(
            all(prof.per_index[j - 1]
                == reference.naive_distance(self.stream, j, self.STREAM_ELL)
                for j in self.stream_samples)
            and prof.total == sum(prof.per_index),
            "distance differs from its definition on the stream")

    def _check_ladder(self, code: int, checks: Checks) -> None:
        checks.expect(code == 0, f"listlab merge-ratio exit {code}")
        lines = (self.tmp / "merge-ratio.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[2:]]
        self.ladder_table = rows
        limit = reference.ratio_limit(self.LADDER_P, self.LADDER_ELL)
        ratios = [Fraction(r[4]) for r in rows]
        checks.expect(
            bool(rows)
            and all(Fraction(r[5]) == limit and Fraction(r[2]) / Fraction(r[3])
                    == Fraction(r[4]) for r in rows)
            and all(a < b for a, b in zip(ratios, ratios[1:]))
            and ratios[-1] < limit and limit - ratios[-1] <= limit / 10,
            "merge-ratio table disagrees with the closed-form limit")

    def _sweep(self, tr, item_id) -> dict:
        ell = self.SWEEP_ELL
        k = best_bad = worst_bad = 0
        sampled = []
        for s1, s2 in self.pairs:
            seqs = (s1, s2)
            with tr.span("merges.enumerate_merges", item_id) as sp:
                all_merges = list(merges.enumerate_merges(seqs))
                sp.n = len(all_merges)
            for m in all_merges:
                with tr.span("merges.build_partitions", item_id) as sp:
                    parts = merges.build_partitions(s1, s2, m)
                    sp.n = 1
                with tr.span("merges.check_c_best", item_id) as sp:
                    slack, ok_best = merges.check_c_best(seqs, m, ell)
                    sp.n = 1
                with tr.span("merges.check_c_worst", item_id) as sp:
                    ratio, ok_worst = merges.check_c_worst(seqs, m, ell)
                    sp.n = 1
                best_bad += not ok_best
                worst_bad += not ok_worst
                if k in self.sweep_samples:
                    sampled.append((seqs, m, parts, slack, ratio))
                k += 1
        return {"instances": k, "best_bad": best_bad, "worst_bad": worst_bad,
                "sampled": sampled}

    def _check_sweep(self, out: dict, checks: Checks) -> None:
        self.sweep_counts = [out["instances"], out["best_bad"], out["worst_bad"]]
        checks.expect(out["instances"] == self.instances,
                      f"sweep saw {out['instances']} merges, not {self.instances}")
        ell = self.SWEEP_ELL
        for seqs, m, parts, slack, ratio in out["sampled"]:
            flat = [seqs[p - 1][i - 1] for p, i in m.steps]
            in_order = all(
                [i for p, i in m.steps if p == q] == list(range(1, len(seqs[q - 1]) + 1))
                for q in (1, 2))
            d_c = reference.naive_total(seqs[0] + seqs[1], ell)
            d_m = reference.naive_total(flat, ell)
            covers = sorted(i for part in parts.parts_i for i in part) == list(
                range(1, len(seqs[0]) + 1))
            checks.expect(
                in_order and covers and slack == d_m - 3 * d_c
                and ratio == Fraction(d_c, d_m),
                f"sweep instance {seqs} {m.steps} disagrees with the definitions")

    def _monte_carlo(self, tr, item_id):
        with tr.span("findvalue.monte_carlo_expected_reads", item_id) as sp:
            mean = findvalue.monte_carlo_expected_reads(self.TAPES, self.mc_seed)
            sp.n = self.TAPES
        return mean

    def _check_monte_carlo(self, mean, checks: Checks) -> None:
        exact = reference.READS_PER_INPUT
        checks.expect(abs(mean - exact) <= exact / 100,
                      f"Monte Carlo mean {float(mean)} not within 1% of 23/8")

    def _game(self, tr, item_id):
        n = len(self.game_inputs)
        with tr.span("findvalue.run_deterministic", item_id) as sp:
            det = findvalue.run_deterministic(self.game_inputs)
            sp.n = n
        tape = findvalue.CoinTape.from_seed(self.tape_seed, 4 * n)
        with tr.span("findvalue.run_randomized", item_id) as sp:
            rand = findvalue.run_randomized(self.game_inputs, tape=tape)
            sp.n = n
        with tr.span("findvalue.exact_expected_reads", item_id) as sp:
            exact = findvalue.exact_expected_reads(1)
            sp.n = 1
        return det, rand, exact

    def _check_game(self, out, checks: Checks) -> None:
        (reads, opt), rand, exact = out
        n = len(self.game_inputs)
        checks.expect(reads == 3 * n and opt == 2 * n,
                      f"deterministic game: {reads} reads, {opt} optimal")
        checks.expect(exact == reference.READS_PER_INPUT, f"exact expectation {exact}")
        # the tape-driven mean sits within a few hundredths of 23/8
        checks.expect(abs(Fraction(rand, n) - reference.READS_PER_INPUT)
                      <= reference.READS_PER_INPUT / 10,
                      f"randomized game: {rand} reads for {n} inputs")

    def _cli_distance(self, tr, item_id) -> int:
        return _cli(tr, item_id, ["distance", str(self.cli_stream_path),
                                  "--ell", str(self.STREAM_ELL),
                                  "--out", str(self.tmp / "distance.csv")])

    def _check_cli_distance(self, code: int, checks: Checks) -> None:
        checks.expect(code == 0, f"listlab distance exit {code}")
        rows = (self.tmp / "distance.csv").read_text().splitlines()[2:]
        per = [int(r.split(",")[1]) for r in rows[:-1]]
        checks.expect(
            len(per) == self.CLI_STREAM_LEN
            and rows[-1] == f"total,{sum(per)}"
            and all(per[j - 1] == reference.naive_distance(self.cli_stream, j,
                                                           self.STREAM_ELL)
                    for j in range(1, self.CLI_STREAM_LEN + 1, 97)),
            "listlab distance output differs from the definition")

    def _cli_findvalue(self, tr, item_id) -> list[int]:
        out = str(self.tmp / "findvalue.csv")
        return [
            _cli(tr, item_id, ["findvalue", "--mode", "mc", "--tapes",
                               str(self.CLI_TAPES), "--seed", str(self.mc_seed),
                               "--out", out]),
            _cli(tr, item_id, ["findvalue", "--mode", "exact", "--out", out]),
        ]

    def probes(self, tr) -> None:
        rungs = sorted({x for x in (1, 2, 5, 10, 20, 50) if x <= self.LADDER_RS}
                       | {self.LADDER_RS})
        iid = "combinatorics/ladder-pieces"
        for x in rungs:
            with tr.span("merges.build_lower_bound_instance", iid):
                inst = merges.build_lower_bound_instance(
                    self.LADDER_P, self.LADDER_ELL, x, x)
            for m in (inst.merge_hi, inst.merge_lo):
                with tr.span("merges.avg_distance", iid) as sp:
                    inst.avg_distance(m)
                    sp.n = len(m.steps)
                flat = m.flatten(inst.seqs)
                with tr.span("seqcore.distance", iid) as sp:
                    seqcore.distance(flat, self.LADDER_ELL)
                    sp.n = len(flat)
        iid = "combinatorics/sweep-pieces"
        for seqs in self.pairs:
            for m in merges.enumerate_merges(seqs):
                flat = m.flatten(seqs)
                with tr.span("seqcore.distance", iid) as sp:
                    seqcore.distance(flat, self.SWEEP_ELL)
                    sp.n = len(flat)

    def headline(self, best: dict[str, float]) -> dict:
        return {
            "distance_requests_per_s":
                (self.STREAM_LEN / best["combinatorics/distance"], "requests/s"),
            "merge_ratio_s": (best["combinatorics/merge-ratio"], "s"),
            "sweep_instances_per_s":
                (self.instances / best["combinatorics/sweep"], "instances/s"),
            "tapes_per_s": (self.TAPES / best["combinatorics/mc"], "tapes/s"),
            "game_inputs_per_s":
                (2 * self.GAME_INPUTS / best["combinatorics/game"], "inputs/s"),
        }

    def fingerprints(self) -> dict:
        return {"sweep.instances,c_best_violations,c_worst_violations":
                self.sweep_counts,
                "merge_ratio.r,s,avg_hi,avg_lo,ratio,limit,gap": self.ladder_table}

    def layer_metrics(self, spans, selfs) -> dict:
        sweep, ladder = "combinatorics/sweep", "combinatorics/ladder-pieces"
        return {
            "seqcore.distance.requests_per_s": (_rate(
                spans, selfs, "seqcore.distance", "combinatorics/distance"), "requests/s"),
            "seqcore.distance.few_distinct.requests_per_s": (_rate(
                spans, selfs, "seqcore.distance", ladder), "requests/s"),
            "seqcore.distance.short.requests_per_s": (_rate(
                spans, selfs, "seqcore.distance", "combinatorics/sweep-pieces"),
                "requests/s"),
            "merges.enumerate_merges.merges_per_s": (_rate(
                spans, selfs, "merges.enumerate_merges", sweep), "merges/s"),
            "merges.build_partitions.calls_per_s": (_rate(
                spans, selfs, "merges.build_partitions", sweep), "calls/s"),
            "merges.check_c_best.calls_per_s": (_rate(
                spans, selfs, "merges.check_c_best", sweep), "calls/s"),
            "merges.check_c_worst.calls_per_s": (_rate(
                spans, selfs, "merges.check_c_worst", sweep), "calls/s"),
            "merges.build_lower_bound_instance.s": (_self_s(
                spans, selfs, "merges.build_lower_bound_instance", ladder), "s"),
            "merges.avg_distance.requests_per_s": (_rate(
                spans, selfs, "merges.avg_distance", ladder), "requests/s"),
            "findvalue.monte_carlo_expected_reads.tapes_per_s": (_rate(
                spans, selfs, "findvalue.monte_carlo_expected_reads",
                "combinatorics/mc"), "tapes/s"),
            "findvalue.run_deterministic.inputs_per_s": (_rate(
                spans, selfs, "findvalue.run_deterministic", "combinatorics/game"),
                "inputs/s"),
            "findvalue.run_randomized.inputs_per_s": (_rate(
                spans, selfs, "findvalue.run_randomized", "combinatorics/game"),
                "inputs/s"),
            "findvalue.exact_expected_reads.s": (_self_s(
                spans, selfs, "findvalue.exact_expected_reads", "combinatorics/game"),
                "s"),
            "cli.distance.s": (_self_s(
                spans, selfs, "cli.distance", "combinatorics/cli-distance"), "s"),
            "cli.merge-ratio.s": (_self_s(
                spans, selfs, "cli.merge-ratio", "combinatorics/merge-ratio"), "s"),
            "cli.findvalue.s": (_self_s(
                spans, selfs, "cli.findvalue", "combinatorics/cli-findvalue"), "s"),
        }


WORKLOADS = {w.name: w for w in (ModelCheck, Simulate, Native, Combinatorics)}
