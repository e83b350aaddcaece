"""Driving, recording, and judging executions of the shared-list structure.

A schedule names which process takes the next machine step.  Replaying the
same (workload, schedule) pair is bit-identical, so histories double as
golden regression artifacts.  A history is a flat list of JSON-able events:

* ``invoke``   a process starts its next search,
* ``access``   one shared-memory access (read or compare-and-swap),
* ``respond``  the search returns, with the number of nodes it inspected.

Linearization follows the front-of-list rule: every completed search that
returns a node is placed at an event where that node was at the front of
the list, inside the search's own interval; searches for absent items may
sit anywhere in their interval.  Concurrent searches resolved by the same
move-to-front land on the same event and are ordered with the mover first.

Cost accounting happens at three granularities: the cost of sequential
move-to-front on the linearized sequence (operation level), the sum of node
inspections over all searches (item access level), and the raw count of
shared-memory accesses (actual).
"""

from __future__ import annotations

import itertools
import json
import random
import struct
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

from . import dmtf
from .dmtf import NOT_PRESENT, ProcessRun, SharedState
from .merges import Merge
from .seqcore import CostModel, mtf_run, opt_free_cost, opt_paid_cost

Workload = Sequence[Sequence[int]]


@dataclass
class Schedule:
    """How to pick the next process: an explicit pid list or a generator.

    Kinds: ``explicit`` (replay ``pids`` verbatim), ``round_robin``,
    ``random`` (seeded, among processes with pending work), ``sequential``
    (each operation runs to completion, ordered by ``merge`` or by plain
    concatenation).
    """

    kind: str = "round_robin"
    pids: Optional[Sequence[int]] = None
    seed: Optional[int] = None
    merge: Optional[Merge] = None

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.pids is not None:
            out["pids"] = list(self.pids)
        if self.seed is not None:
            out["seed"] = self.seed
        if self.merge is not None:
            out["merge"] = self.merge.to_json()
        return out

    @staticmethod
    def from_json(data) -> "Schedule":
        if isinstance(data, list):
            return Schedule(kind="explicit", pids=data)
        merge = Merge.from_json(data["merge"]) if "merge" in data else None
        return Schedule(data.get("kind"), data.get("pids"), data.get("seed"), merge)

    def validate(self, workload: Workload) -> None:
        """Raise ValueError unless this schedule can drive ``workload``: a
        known kind, pids that are integers from 1 to p, an integer seed or
        none, and a merge of the workload's sequences."""
        if self.kind not in ("explicit", "round_robin", "random", "sequential"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        p = len(workload)
        if self.pids is not None and not (
            isinstance(self.pids, (list, tuple))
            and all(type(x) is int and 1 <= x <= p for x in self.pids)
        ):
            raise ValueError(f"schedule pids must be integers from 1 to {p}")
        if self.seed is not None and type(self.seed) is not int:
            raise ValueError("schedule seed must be an integer")
        if self.merge is not None:
            self.merge.validate(workload)


@dataclass
class ExecutionHistory:
    p: int
    phi: int
    items: tuple[int, ...]
    workload: tuple[tuple[int, ...], ...]
    events: list[dict]
    schedule: list[int]
    completed: bool

    def accesses(self) -> list[dict]:
        return [e for e in self.events if e["type"] == "access"]

    def to_jsonl(self) -> str:
        meta = {
            "type": "meta",
            "p": self.p,
            "phi": self.phi,
            "items": list(self.items),
            "workload": [list(w) for w in self.workload],
            "schedule": self.schedule,
            "completed": self.completed,
        }
        lines = [json.dumps(meta, sort_keys=True)]
        lines.extend(json.dumps(e, sort_keys=True) for e in self.events)
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_jsonl(text: str) -> "ExecutionHistory":
        lines = [json.loads(l) for l in text.splitlines() if l.strip()]
        meta = lines[0]
        return ExecutionHistory(
            p=meta["p"],
            phi=meta["phi"],
            items=tuple(meta["items"]),
            workload=tuple(tuple(w) for w in meta["workload"]),
            events=lines[1:],
            schedule=list(meta["schedule"]),
            completed=meta["completed"],
        )


class _Driver:
    """Steps processes through their request sequences, recording events."""

    def __init__(self, state: SharedState, workload: Workload):
        if len(workload) != state.p:
            raise ValueError("workload must have one sequence per process")
        self.state = state
        self.workload = [tuple(w) for w in workload]
        self.runs: list[Optional[ProcessRun]] = [None] * state.p
        self.cursors = [0] * state.p
        self.opids = [0] * state.p
        # the fixed name of each handle: an initial node keeps its index, and
        # the node op k allocated at its invoke (handle ell + k) is named by
        # its owner, ell + (requests of the lower pids) + (its index in its
        # pid's sequence), whatever the interleaving
        self.names = list(range(len(state.arena)))
        self.offsets = list(itertools.accumulate(
            map(len, self.workload[:-1]), initial=len(state.arena)))
        self.events: list[dict] = []
        self.schedule: list[int] = []

    def pending(self, pid: int) -> bool:
        i = pid - 1
        return self.runs[i] is not None or self.cursors[i] < len(self.workload[i])

    def all_done(self) -> bool:
        return not any(self.pending(pid) for pid in range(1, self.state.p + 1))

    def op_done(self, pid: int) -> bool:
        """True when the op most recently invoked on pid has responded."""
        return self.runs[pid - 1] is None

    def step(self, pid: int) -> str:
        self.schedule.append(pid)
        i = pid - 1
        run = self.runs[i]
        if run is None:
            if self.cursors[i] >= len(self.workload[i]):
                return "noop"
            item = self.workload[i][self.cursors[i]]
            opid = len(self.names) - len(self.state.items)
            self.names.append(self.offsets[i] + self.cursors[i])
            self.opids[i] = opid
            self.events.append(
                {"type": "invoke", "pid": pid, "op": opid, "item": item}
            )
            run = ProcessRun(pid, item)
            self.runs[i] = run
            dmtf.step(self.state, run, None)  # the private allocation step
            return "stepped"
        finished = dmtf.step(self.state, run, self.events.append)
        if finished:
            self.events.append(
                {
                    "type": "respond",
                    "pid": pid,
                    "op": self.opids[i],
                    "result": run.result,
                    "inspected": run.inspected,
                }
            )
            self.runs[i] = None
            self.cursors[i] += 1
            return "responded"
        return "stepped"

    def mark(self, pid: int) -> tuple:
        """What ``undo`` needs to take back the next step of ``pid``.

        The pid's run is replaced by a copy for the step to change, so the
        original comes back untouched.  The state's journal must be on.
        """
        i = pid - 1
        run = self.runs[i]
        if run is not None:
            self.runs[i] = run.copy()
        return (run, self.cursors[i], self.opids[i], len(self.names),
                len(self.state.journal), len(self.events), len(self.schedule))

    def undo(self, pid: int, mark: tuple) -> None:
        i = pid - 1
        (self.runs[i], self.cursors[i], self.opids[i], n_names,
         n_journal, n_events, n_steps) = mark
        self.state.rollback(n_journal)
        del self.names[n_names:]
        del self.events[n_events:]
        del self.schedule[n_steps:]

    def history(self) -> ExecutionHistory:
        return ExecutionHistory(
            p=self.state.p,
            phi=self.state.phi,
            items=self.state.items,
            workload=tuple(self.workload),
            events=self.events,
            schedule=self.schedule,
            completed=self.all_done(),
        )


def _pids(schedule: Schedule, drv: _Driver) -> Iterator[int]:
    """The pid to step next, one per step, for each (validated) kind."""
    pids = range(1, drv.state.p + 1)
    if schedule.kind == "explicit":
        return iter(schedule.pids or [])
    if schedule.kind == "round_robin":
        return itertools.cycle(pids)
    if schedule.kind == "random":
        rng = random.Random(schedule.seed)
        # the callable never returns the sentinel None, so this never ends
        return iter(lambda: rng.choice([q for q in pids if drv.pending(q)]), None)
    return _sequential_pids(schedule.merge or Merge.concatenation(drv.workload), drv)


def _sequential_pids(merge: Merge, drv: _Driver) -> Iterator[int]:
    """Merge order, each operation stepped from its invoke to its response."""
    for pid, _idx in merge.steps:
        yield pid
        while not drv.op_done(pid):
            yield pid


def run(
    state: SharedState,
    workload: Workload,
    schedule: Schedule,
    step_bound: int = 1_000_000,
) -> ExecutionHistory:
    """Drive the interpreter to completion, or for ``step_bound`` steps.

    Raises ValueError before the first step if the schedule is not valid
    for the workload (see ``Schedule.validate``).
    """
    drv = _Driver(state, workload)
    schedule.validate(drv.workload)
    pids = _pids(schedule, drv)
    while not drv.all_done() and len(drv.schedule) < step_bound:
        pid = next(pids, None)
        if pid is None:
            break
        drv.step(pid)
    return drv.history()


# -- linearization -------------------------------------------------------------


@dataclass(frozen=True)
class WitnessEntry:
    opid: int
    pid: int
    item: int
    result: int
    point: int  # event index of the linearization point


@dataclass(frozen=True)
class LinearizationWitness:
    order: tuple[WitnessEntry, ...]

    def linearized_items(self) -> tuple[int, ...]:
        return tuple(w.item for w in self.order)


@dataclass(frozen=True)
class Counterexample:
    reason: str
    opid: Optional[int]
    prefix: tuple[dict, ...]


def _scan(events: list[dict]) -> tuple:
    """One pass over the events: each op's invoke and response and each
    reign of a front node, its start and the op that prepended it.

    The initial front (handle 0 by construction) reigns from -1 with no
    prepender.  Fronts never repeat because no node is prepended twice.
    """
    # opid -> [pid, item, invoke index, respond index, result], invoke order
    ops: dict[int, list] = {}
    active: dict[int, int] = {}  # pid -> opid currently running
    starts = [-1]
    preppers: list[Optional[int]] = [None]
    by_front = {0: 0}
    for t, ev in enumerate(events):
        kind = ev["type"]
        if kind == "access":
            if ev["kind"] == "cas" and ev["ok"] and ev["cell"] == ["head"]:
                by_front[ev["new"][0]] = len(starts)
                starts.append(t)
                preppers.append(active.get(ev["pid"]))
        elif kind == "invoke":
            ops[ev["op"]] = [ev["pid"], ev["item"], t, None, None]
            active[ev["pid"]] = ev["op"]
        elif kind == "respond":
            op = ops[ev["op"]]
            op[3] = t
            op[4] = ev["result"]
            active.pop(ev["pid"], None)
    starts.append(len(events) + 1)  # the end of the last reign
    return ops, starts, preppers, by_front


def _place(history: ExecutionHistory, opid: int, scan: tuple):
    """Place one responded op: (point, mover rank, respond index, entry), or
    a Counterexample.  Each op is placed on its own, so an op fails or not
    regardless of the others."""
    ops, starts, preppers, by_front = scan
    pid, item, invoke_t, respond_t, result = ops[opid]
    if result == NOT_PRESENT:
        if item in history.items:
            return Counterexample(
                f"op {opid} reported absent item {item} which is in the set",
                opid,
                tuple(history.events[: respond_t + 1]),
            )
        return (respond_t, 1, respond_t, WitnessEntry(opid, pid, item, result, respond_t))
    k = by_front.get(result)
    if k is not None:
        point = max(invoke_t, starts[k])
        if point <= respond_t and point < starts[k + 1]:
            mover = 0 if preppers[k] == opid else 1
            return (point, mover, respond_t, WitnessEntry(opid, pid, item, result, point))
    return Counterexample(
        f"op {opid} returned node {result}, never at the front during its interval",
        opid,
        tuple(history.events[: respond_t + 1]),
    )


def check_linearizable(history: ExecutionHistory):
    """Build a linearization witness, or the Counterexample of the first
    failing op in invoke order.

    Ops pending at the step bound are optional and left out.
    """
    scan = _scan(history.events)
    placed = []
    for opid, op in scan[0].items():
        if op[3] is None:
            continue
        got = _place(history, opid, scan)
        if isinstance(got, Counterexample):
            return got
        placed.append(got)
    placed.sort(key=lambda x: (x[0], x[1], x[2]))
    return LinearizationWitness(tuple(e for *_rest, e in placed))


def verify_witness(history: ExecutionHistory, witness: LinearizationWitness) -> None:
    """Check the witness against sequential move-to-front semantics.

    Move-to-front only reorders the item set, so each entry's item must be
    in the set exactly when it reports a node, and every returned node must
    hold the requested item.  Raises AssertionError on mismatch.
    """
    items = set(history.items)
    handle_items = {}
    for ev in history.events:
        if ev["type"] == "access" and ev["cell"][0] == "node" and ev["cell"][2] == "item":
            handle_items[ev["cell"][1]] = ev["value"]
    for entry in witness.order:
        if entry.result == NOT_PRESENT:
            assert entry.item not in items
            continue
        assert entry.item in items
        known = handle_items.get(entry.result)
        assert known is None or known == entry.item


# -- cost accounting -------------------------------------------------------------


@dataclass(frozen=True)
class CostReport:
    op_level: int
    item_level: int
    actual: int
    n_completed: int
    linearized: tuple[int, ...]

    def csv_row(self) -> str:
        return f"{self.op_level},{self.item_level},{self.actual},{self.n_completed}"


def account(history: ExecutionHistory) -> CostReport:
    """The three cost levels of a linearizable history."""
    witness = check_linearizable(history)
    if isinstance(witness, Counterexample):
        raise ValueError(f"history is not linearizable: {witness.reason}")
    present = [w.item for w in witness.order if w.result != NOT_PRESENT]
    op_level, _ = mtf_run(present, history.items, CostModel.FULL)
    item_level = actual = 0
    for ev in history.events:
        if ev["type"] == "access":
            actual += 1
        elif ev["type"] == "respond":
            item_level += ev["inspected"]
    return CostReport(op_level, item_level, actual, len(witness.order),
                      witness.linearized_items())


# oracle cost is linear in sequence length but factorial in list length,
# so only the list-length budget is kept protective here
_ORACLES = {
    "free": lambda seq, init: opt_free_cost(seq, init, max_len=10_000_000),
    "paid": opt_paid_cost,
}


@dataclass(frozen=True)
class RatioResult:
    ratio: Fraction
    dmtf_cost: int
    opt_cost: int
    mode: str
    oracle: str
    model: CostModel
    report: CostReport


def ratio_experiment(
    items: Sequence[int],
    workload: Workload,
    schedule: Schedule,
    phi: int = 1,
    mode: str = "linearization",
    merge_for_opt: Optional[Merge] = None,
    oracle: str = "free",
    model: CostModel = CostModel.FULL,
) -> RatioResult:
    """Measured item-access cost against an optimal sequential cost.

    ``fully_adversarial`` divides by the oracle cost of an independently
    supplied merge of the workload; ``linearization`` divides by the oracle
    cost of the linearized sequence of the run itself.  Under the partial
    model both sides drop one unit per request.
    """
    state = dmtf.init(items, len(workload), phi)
    history = run(state, workload, schedule)
    if not history.completed:
        raise RuntimeError("run did not complete; raise the step bound")
    report = account(history)
    if mode == "fully_adversarial":
        if merge_for_opt is None:
            raise ValueError("fully_adversarial mode needs a merge for the oracle")
        opt_seq = merge_for_opt.flatten(workload)
    elif mode == "linearization":
        opt_seq = report.linearized
    else:
        raise ValueError(f"unknown mode {mode!r}")
    opt = _ORACLES[oracle](opt_seq, list(items))
    dmtf_cost = report.item_level
    if model is CostModel.PARTIAL:
        dmtf_cost -= report.n_completed
        opt -= len(opt_seq)
    return RatioResult(
        Fraction(dmtf_cost, opt), dmtf_cost, opt, mode, oracle, model, report
    )


# -- exhaustive exploration --------------------------------------------------------


@dataclass
class ExploreReport:
    states: int
    histories: int
    bound_hits: int
    violations: list[str] = field(default_factory=list)


# A value v is stored as v + _OFFSET, past the sentinels (NOT_PRESENT is the
# lowest), and 0 stands for "none": no run in flight, or a dead local.
_OFFSET = 1 - NOT_PRESENT
_NODE_SLOTS = {"next": 0, "prev": 1, "old": 2, "new": 3}
_PC_CODES = {pc: i + _OFFSET for i, pc in enumerate(dmtf.PROGRAM_COUNTERS)}
# a run's slots: its pc, then each of dmtf.RUN_LOCALS
_RUN_SLOTS = 1 + len(dmtf.RUN_LOCALS)
_LOCAL_SLOTS = {name: 1 + k for k, name in enumerate(dmtf.RUN_LOCALS)}
_HANDLE_LOCALS = frozenset(dmtf.RUN_HANDLE_FIELDS)


def _run_writes(live_before, writes, pc: str) -> tuple:
    """The run slots a step to ``pc`` may change, as (slot, local or None
    for 0, is a handle): the locals it wrote that are live at ``pc``, and
    the locals that die."""
    live = dmtf.LIVE_LOCALS[pc]
    return tuple(
        (_LOCAL_SLOTS[x], x if x in live else None, x in _HANDLE_LOCALS)
        for x in dmtf.RUN_LOCALS
        if (x in live and x in writes) or (x in live_before and x not in live))


# the slots to rewrite for each step, by (pc code before, pc code after); a
# run is in flight from its invoke, which takes the ALLOC step, so the step
# out of ALLOC starts from code 0 (no run)
_STEP_WRITES = {
    (0 if pc == dmtf.ALLOC else _PC_CODES[pc], _PC_CODES[nxt]):
        _run_writes(dmtf.LIVE_LOCALS[pc], writes.split(), nxt)
    for pc, (_reads, writes, nexts) in dmtf.STEP_LOCALS.items() for nxt in nexts
}


class _KeyBuffer:
    """The explorer's state key, one fixed slot per cell, updated per step.

    Handles appear under their fixed names (``_Driver.names``), so states
    that differ only in the order of allocation have one key.  Pids are not
    permuted: the helpers read the announcements in pid order.  The slots,
    in order:

    * ``next``, ``prev``, ``old`` and ``new`` of each node the exploration
      can allocate, by fixed name.  A node's item is fixed by its owner, so
      it has no slot, and a node not yet allocated reads null everywhere,
      like a fresh one; its owner's run and cursor tell the two apart.
    * the two Head components, then both components of each announcement;
    * each pid's run: its pc, then its locals (``dmtf.RUN_LOCALS``), each 0
      where it is dead (``dmtf.LIVE_LOCALS``), all 0 when no run is in
      flight.  The pid and the item follow from the slot and the cursor,
      the result is None while a run is in flight, and ``inspected`` is
      read by no step, so none of them has a slot;
    * each pid's cursor.

    Every slot is bounded by the workload, so the typecode is the narrowest
    that holds the largest value the driver can reach, and the reachable
    keys are finite.  A step writes at most one shared cell, so
    ``after_step`` rewrites only the cells named by the journal entries the
    step appended, the run slots the step can change, and the cursor.
    """

    def __init__(self, drv: _Driver):
        state, p = drv.state, drv.state.p
        n_nodes = len(state.items) + sum(map(len, drv.workload))
        self.head_slot = 4 * n_nodes
        self.ann_slot = self.head_slot + 2
        self.run_slot = self.ann_slot + 2 * p
        self.cursor_slot = self.run_slot + p * _RUN_SLOTS
        largest = _OFFSET + max(*state.items, *itertools.chain(*drv.workload),
                                n_nodes, p + 1, state.phi, len(_PC_CODES))
        self.typecode = next(
            (t for t in "BHIQ" if largest < 1 << 8 * struct.calcsize(t)), None)
        if self.typecode is None:
            raise ValueError("item ids too large for the explorer's state key")
        self.raw = bytearray(struct.calcsize(self.typecode) * (self.cursor_slot + p))
        self.cells = memoryview(self.raw).cast(self.typecode)
        # codes[v + _OFFSET] is how a handle-valued cell stores value v
        self.codes: list[int] = []

    def encode(self, drv: _Driver) -> bytes:
        """Write every slot from the driver, and return the key."""
        state, cells = drv.state, self.cells
        self.codes[:] = range(_OFFSET)
        self.codes.extend(n + _OFFSET for n in drv.names)
        self.raw[:] = bytes(len(self.raw))
        for k in range(self.head_slot):
            cells[k] = dmtf.NULL + _OFFSET
        for handle in range(len(state.arena)):
            for fieldname in _NODE_SLOTS:
                self._put_node(state, drv.names, handle, fieldname)
        self._put_head(state)
        for j in range(state.p):
            self._put_ann(state, j)
        for i, run in enumerate(drv.runs):
            if run is not None:
                k = self.run_slot + i * _RUN_SLOTS
                cells[k] = _PC_CODES[run.pc]
                self._put_locals(k, run, _run_writes((), dmtf.RUN_LOCALS, run.pc))
            cells[self.cursor_slot + i] = drv.cursors[i] + _OFFSET
        return bytes(self.raw)

    def after_step(self, drv: _Driver, pid: int, n_journal: int) -> bytes:
        """The key after a step of ``pid`` that extended the state's journal
        from ``n_journal`` entries."""
        state = drv.state
        for entry in state.journal[n_journal:]:
            kind = entry[0]
            if kind == dmtf.JOURNAL_NODE:
                self._put_node(state, drv.names, entry[1], entry[2])
            elif kind == dmtf.JOURNAL_ANN:
                self._put_ann(state, entry[1])
            elif kind == dmtf.JOURNAL_HEAD:
                self._put_head(state)
            else:  # the invoke's fresh node: its cells already read null
                self.codes.append(drv.names[-1] + _OFFSET)
        i = pid - 1
        run = drv.runs[i]
        k = self.run_slot + i * _RUN_SLOTS
        if run is None:  # it responded
            for slot in range(k, k + _RUN_SLOTS):
                self.cells[slot] = 0
            self.cells[self.cursor_slot + i] = drv.cursors[i] + _OFFSET
        else:
            pc = _PC_CODES[run.pc]
            self._put_locals(k, run, _STEP_WRITES[self.cells[k], pc])
            self.cells[k] = pc
        return bytes(self.raw)

    def restore(self, drv: _Driver, key: bytes) -> None:
        """Take the buffer back to ``key`` after the driver undid a step."""
        self.raw[:] = key
        del self.codes[_OFFSET + len(drv.names):]

    def _put_node(self, state: SharedState, names: list[int], handle: int,
                  fieldname: str) -> None:
        self.cells[4 * names[handle] + _NODE_SLOTS[fieldname]] = \
            self.codes[getattr(state.arena[handle], fieldname) + _OFFSET]

    def _put_head(self, state: SharedState) -> None:
        g, h = state.head
        self.cells[self.head_slot] = self.codes[g + _OFFSET]
        self.cells[self.head_slot + 1] = self.codes[h + _OFFSET]

    def _put_ann(self, state: SharedState, j: int) -> None:
        a, b = state.ann[j]
        self.cells[self.ann_slot + 2 * j] = self.codes[a + _OFFSET]
        self.cells[self.ann_slot + 2 * j + 1] = b + _OFFSET

    def _put_locals(self, k: int, run: ProcessRun, writes: tuple) -> None:
        cells, codes = self.cells, self.codes
        for slot, name, is_handle in writes:
            if name is None:
                cells[k + slot] = 0
            elif is_handle:
                cells[k + slot] = codes[getattr(run, name) + _OFFSET]
            else:
                cells[k + slot] = getattr(run, name) + _OFFSET


def explore_all(
    state_factory: Callable[[], SharedState],
    workload: Workload,
    step_bound: int = 200,
    report: Optional[ExploreReport] = None,
) -> Iterator[ExecutionHistory]:
    """Enumerate schedules depth-first, pruning repeated canonical states.

    Yields the history of every terminating schedule that explores at least
    one new state on each prefix (pruned schedules revisit a state some other
    schedule already reached, so their reachable behavior is covered).  Paths
    cut off by the step bound count as ``bound_hits``.  A step back to a
    state on the current path is a schedule that can repeat forever with no
    op responding, and is reported as a violation.

    One driver is stepped in place: after each child the state's undo
    journal and the driver's saved fields restore the parent.  Each history
    is yielded with its own copies of the events and the schedule, so it
    stays valid while the exploration goes on.
    """
    if report is None:
        report = ExploreReport(0, 0, 0)
    drv = _Driver(state_factory(), workload)
    drv.state.journal = []
    keys = _KeyBuffer(drv)
    root = keys.encode(drv)
    seen = {root}
    report.states += 1
    yield from _explore(drv, keys, root, {}, seen, step_bound, report)


def _explore(drv: _Driver, keys: _KeyBuffer, key: bytes, path: dict, seen: set,
             step_bound: int, report: ExploreReport) -> Iterator[ExecutionHistory]:
    """Explore the children of the state ``key``; ``path`` maps each key on
    the path to it to the number of steps taken to reach it."""
    if drv.all_done():
        report.histories += 1
        yield replace(drv.history(), events=list(drv.events),
                      schedule=list(drv.schedule))
        return
    depth = len(drv.schedule)
    if depth >= step_bound:
        report.bound_hits += 1
        return
    path[key] = depth
    state = drv.state
    for pid in range(1, state.p + 1):
        if not drv.pending(pid):
            continue
        mark = drv.mark(pid)
        n_journal = len(state.journal)
        n_violations = len(state.transition_violations)
        outcome = drv.step(pid)
        for v in state.transition_violations[n_violations:]:
            report.violations.append(f"schedule {drv.schedule}: {v}")
        if outcome == "responded":
            # every response reached by the exploration must already
            # linearize against the path that produced it; each op is
            # judged once, here, so an earlier failure neither repeats nor
            # masks this one
            history = drv.history()
            verdict = _place(history, drv.opids[pid - 1], _scan(history.events))
            if isinstance(verdict, Counterexample):
                report.violations.append(
                    f"schedule {drv.schedule}: {verdict.reason}"
                )
        child = keys.after_step(drv, pid, n_journal)
        if child not in seen:
            seen.add(child)
            report.states += 1
            yield from _explore(drv, keys, child, path, seen, step_bound, report)
        elif child in path:
            start = path[child]
            report.violations.append(
                f"schedule {drv.schedule}: steps {start + 1} to {depth + 1} "
                f"return to the state after step {start}, so repeating them "
                "never terminates")
        drv.undo(pid, mark)
        keys.restore(drv, key)
    del path[key]


def explore_check(
    state_factory: Callable[[], SharedState],
    workload: Workload,
    step_bound: int = 200,
) -> ExploreReport:
    """Run the exploration and check every terminal history.

    Each terminating schedule must leave a state passing all snapshot
    invariants and produce a linearizable history.  Each op that does not
    linearize was already reported by the exploration at its own response,
    so only the witness, when there is one, is checked here.
    """
    report = ExploreReport(0, 0, 0)
    for history in explore_all(state_factory, workload, step_bound, report):
        # re-execute to recover the final state for snapshot checking
        state = state_factory()
        replay = run(state, workload, Schedule(kind="explicit", pids=history.schedule))
        if replay.to_jsonl() != history.to_jsonl():
            report.violations.append("replay mismatch")
            continue
        for v in dmtf.snapshot_invariants(state):
            report.violations.append(f"schedule {history.schedule}: {v}")
        witness = check_linearizable(history)
        if isinstance(witness, LinearizationWitness):
            try:
                verify_witness(history, witness)
            except AssertionError as exc:
                report.violations.append(
                    f"schedule {history.schedule}: witness replay failed: {exc}"
                )
    return report
