"""Lock-free distributed move-to-front over a shared doubly linked list.

The structure keeps one node per item of a static set.  A search walks the
list from the front; when it finds its item elsewhere than the front it
prepends a fresh copy of the node and then removes the one it found, with
all processes helping so that at most one copy is ever prepended and the
list stays intact for concurrent traversals (a removed node's ``next`` still
points at its last successor).  Each process announces its current search in
a shared array so that whoever moves the sought item to the front can inform
it, bounding the work of searchers that would otherwise overrun the list.

Two executions of the same protocol are provided:

* an interpreter that performs exactly one shared-memory access per step,
  driven by an external schedule (every interleaving is reachable and
  replayable), and
* a native backend for real threads, where plain reads on the traversal
  path are ordinary attribute loads.

Both write only through the compare-and-swap methods of ``SharedState``,
which take its striped locks, so one ``cas_node`` checks every transition
for both.  Both follow the identical access sequence for a solo run, which
the test suite checks by record/replay.

Shared cells hold item ids (positive ints) or node handles (indices into an
append-only arena).  Nodes are never reclaimed within a run, so handle reuse
is impossible.  Sentinels are negative ints.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

NULL = -1
DONE = -2
GONE = -3
NOT_PRESENT = -4
BOTTOM = 0  # "no item" slot of an announcement

_SENTINEL_NAMES = {NULL: "null", DONE: "done", GONE: "gone"}

Recorder = Callable[[dict], None]

# kinds of undo-journal entries, one per kind of shared write; the
# explorer's state key reads them to find the cells a step wrote
JOURNAL_ALLOC, JOURNAL_HEAD, JOURNAL_ANN, JOURNAL_NODE = (
    "alloc", "head", "ann", "node")


class Node:
    __slots__ = ("item", "next", "prev", "old", "new")

    def __init__(self, item: int):
        self.item = item
        self.next = NULL
        self.prev = NULL
        self.old = NULL
        self.new = NULL


def _legal_transition(fieldname: str, old_value: int, new_value: int) -> bool:
    if fieldname == "old":
        if old_value == NULL:
            return new_value >= 0
        return old_value >= 0 and new_value == DONE
    if fieldname == "new":
        if old_value == NULL:
            return new_value >= 0
        return old_value >= 0 and new_value == GONE
    if fieldname == "next":
        # set once from null, then redirected past removed successors
        return (old_value == NULL and new_value >= 0) or (
            old_value >= 0 and (new_value >= 0 or new_value == NULL)
        )
    if fieldname == "prev":
        return (old_value == NULL and new_value >= 0) or (
            old_value >= 0 and new_value >= 0
        )
    return False


class SharedState:
    """Arena of nodes plus the Head pair and the announcement array."""

    def __init__(self, items: Sequence[int], p: int, phi: int = 1):
        items = list(items)
        if len(items) < 2 or len(set(items)) != len(items):
            raise ValueError("need at least 2 distinct items")
        if any(x < 1 for x in items):
            raise ValueError("item ids must be positive")
        if p < 1:
            raise ValueError("p must be >= 1")
        if phi < 1:
            raise ValueError("phi must be >= 1")
        self.items = tuple(items)
        self.p = p
        self.phi = phi
        self.arena: list[Node] = []
        for item in items:
            node = Node(item)
            node.old = DONE
            self.arena.append(node)
        for i in range(len(items) - 1):
            self.arena[i].next = i + 1
            self.arena[i + 1].prev = i
        self.head: tuple[int, int] = (0, 1)
        self.ann: list[tuple[int, int]] = [(NULL, BOTTOM)] * p
        # bookkeeping for the invariant checker, not part of the protocol
        self.prepend_counts: dict[int, int] = {}
        self.transition_violations: list[str] = []
        # undo journal for in-place exploration; None (off) outside it
        self.journal: Optional[list[tuple]] = None
        # striped locks taken by every write, so that threads may share the
        # state: stripe ``handle & 15`` for a node's cells, stripe 16 for
        # allocation, Head and the announcement array
        self.cas_locks = tuple(threading.Lock() for _ in range(17))

    # -- shared-memory primitives (single access each) ------------------------

    def allocate(self, item: int) -> int:
        node = Node(item)
        with self.cas_locks[16]:
            self.arena.append(node)
            handle = len(self.arena) - 1
            if self.journal is not None:
                self.journal.append((JOURNAL_ALLOC,))
        return handle

    def node(self, handle: int) -> Node:
        if handle < 0:
            raise RuntimeError(
                f"dereferencing {_SENTINEL_NAMES.get(handle, handle)} as a node"
            )
        return self.arena[handle]

    def read_head(self, pid: int, rec: Optional[Recorder]) -> tuple[int, int]:
        value = self.head
        if rec:
            rec({"type": "access", "pid": pid, "kind": "read",
                 "cell": ["head"], "value": list(value)})
        return value

    def cas_head(self, pid: int, expected, new, rec: Optional[Recorder]) -> tuple:
        with self.cas_locks[16]:
            prior = self.head
            ok = prior == expected
            if ok:
                g = new[0]
                if self.journal is not None:
                    self.journal.append((JOURNAL_HEAD, prior, g,
                                         self.prepend_counts.get(g, 0)))
                self.head = new
                self.prepend_counts[g] = self.prepend_counts.get(g, 0) + 1
        if rec:
            rec({"type": "access", "pid": pid, "kind": "cas", "cell": ["head"],
                 "expected": list(expected), "new": list(new),
                 "prior": list(prior), "ok": ok})
        return prior

    def read_ann(self, pid: int, j: int, rec: Optional[Recorder]) -> tuple[int, int]:
        value = self.ann[j - 1]
        if rec:
            rec({"type": "access", "pid": pid, "kind": "read",
                 "cell": ["ann", j], "value": list(value)})
        return value

    def cas_ann(self, pid: int, j: int, expected, new, rec: Optional[Recorder]) -> tuple:
        with self.cas_locks[16]:
            prior = self.ann[j - 1]
            ok = prior == expected
            if ok:
                if self.journal is not None:
                    self.journal.append((JOURNAL_ANN, j - 1, prior))
                self.ann[j - 1] = new
        if rec:
            rec({"type": "access", "pid": pid, "kind": "cas", "cell": ["ann", j],
                 "expected": list(expected), "new": list(new),
                 "prior": list(prior), "ok": ok})
        return prior

    def read_node(self, pid: int, handle: int, fieldname: str,
                  rec: Optional[Recorder]) -> int:
        value = getattr(self.node(handle), fieldname)
        if rec:
            rec({"type": "access", "pid": pid, "kind": "read",
                 "cell": ["node", handle, fieldname], "value": value})
        return value

    def cas_node(self, pid: int, handle: int, fieldname: str, expected: int,
                 new: int, rec: Optional[Recorder]) -> int:
        node = self.node(handle)
        with self.cas_locks[handle & 15]:
            prior = getattr(node, fieldname)
            ok = prior == expected
            if ok:
                if self.journal is not None:
                    self.journal.append((JOURNAL_NODE, handle, fieldname, prior,
                                         len(self.transition_violations)))
                if not _legal_transition(fieldname, prior, new):
                    self.transition_violations.append(
                        f"node {handle}.{fieldname}: {prior} -> {new}"
                    )
                setattr(node, fieldname, new)
        if rec:
            rec({"type": "access", "pid": pid, "kind": "cas",
                 "cell": ["node", handle, fieldname], "expected": expected,
                 "new": new, "prior": prior, "ok": ok})
        return prior

    def rollback(self, mark: int) -> None:
        """Undo the journaled writes made since the journal was ``mark`` long.

        Entries are undone newest first, so each one finds the state as its
        write left it.
        """
        journal = self.journal
        while len(journal) > mark:
            entry = journal.pop()
            kind = entry[0]
            if kind == JOURNAL_NODE:
                _, handle, fieldname, prior, n_violations = entry
                setattr(self.arena[handle], fieldname, prior)
                del self.transition_violations[n_violations:]
            elif kind == JOURNAL_ANN:
                self.ann[entry[1]] = entry[2]
            elif kind == JOURNAL_HEAD:
                _, prior, g, count = entry
                self.head = prior
                if count:
                    self.prepend_counts[g] = count
                else:
                    del self.prepend_counts[g]
            else:
                self.arena.pop()

    # -- introspection ---------------------------------------------------------

    def walk(self) -> list[int]:
        """Handles currently in the list, front first (quiescent states)."""
        out = []
        seen = set()
        h = self.head[0]
        while h != NULL:
            if h in seen:
                raise RuntimeError("list walk does not terminate")
            seen.add(h)
            out.append(h)
            h = self.arena[h].next
        return out

    def list_items(self) -> list[int]:
        return [self.arena[h].item for h in self.walk()]

    def canonical(self) -> tuple:
        return (
            tuple((n.item, n.next, n.prev, n.old, n.new) for n in self.arena),
            self.head,
            tuple(self.ann),
        )

    def to_json(self) -> dict:
        return {
            "items": list(self.items),
            "p": self.p,
            "phi": self.phi,
            "head": list(self.head),
            "ann": [list(a) for a in self.ann],
            "arena": [
                {"item": n.item, "next": n.next, "prev": n.prev,
                 "old": n.old, "new": n.new}
                for n in self.arena
            ],
        }


def init(items: Sequence[int], p: int, phi: int = 1) -> SharedState:
    return SharedState(items, p, phi)


# -- the search program as an explicit machine ---------------------------------
#
# Each program counter value performs exactly one shared-memory access; the
# surrounding local computation is folded into that step.  ALLOC is the one
# exception: it allocates and initializes the private replacement node, which
# costs a step but no shared access.

ALLOC = "alloc"
ANNOUNCE = "announce"
GETHEAD = "gethead"
KATFRONT = "katfront"
UNANN_FRONT1 = "unann_front1"
UNANN_FRONT2 = "unann_front2"
KFOUND = "kfound"
READANN1 = "readann1"
UNANN_OTHER1 = "unann_other1"
SETGOLD = "setgold"
SETHNEW = "sethnew"
SETGPRIME = "setgprime"
READANN2 = "readann2"
UNANN_POSTMTF = "unann_postmtf"
READANN3 = "readann3"
UNANN_OTHER2 = "unann_other2"
NEXTPTR = "nextptr"
READANN4 = "readann4"
UNANN_END = "unann_end"
MTF_OUTER = "mtf_outer"
MTF_GETHEAD = "mtf_gethead"
MTF_GETOLD = "mtf_getold"
MTF_PREPCHECK = "mtf_prepcheck"
MTF_TRYPREPEND = "mtf_tryprepend"
MTF_SETNEXT = "mtf_setnext"
MTF_SETPREV = "mtf_setprev"
MTF_H1ITEM = "mtf_h1item"
MTF_READANN = "mtf_readann"
MTF_INFORMCHECK = "mtf_informcheck"
MTF_INFORM = "mtf_inform"
MTF_GETPREV = "mtf_getprev"
MTF_GETNEXT = "mtf_getnext"
MTF_REMOVE1 = "mtf_remove1"
MTF_REMOVE2 = "mtf_remove2"
MTF_GONE = "mtf_gone"
MTF_DONE = "mtf_done"

# every program counter; the explorer's state key stores a pc as its index here
PROGRAM_COUNTERS = (
    ALLOC, ANNOUNCE, GETHEAD, KATFRONT, UNANN_FRONT1, UNANN_FRONT2, KFOUND,
    READANN1, UNANN_OTHER1, SETGOLD, SETHNEW, SETGPRIME, READANN2,
    UNANN_POSTMTF, READANN3, UNANN_OTHER2, NEXTPTR, READANN4, UNANN_END,
    MTF_OUTER, MTF_GETHEAD, MTF_GETOLD, MTF_PREPCHECK, MTF_TRYPREPEND,
    MTF_SETNEXT, MTF_SETPREV, MTF_H1ITEM, MTF_READANN, MTF_INFORMCHECK,
    MTF_INFORM, MTF_GETPREV, MTF_GETNEXT, MTF_REMOVE1, MTF_REMOVE2, MTF_GONE,
    MTF_DONE,
)


@dataclass
class ProcessRun:
    """Program counter and locals of one in-flight search."""

    pid: int
    item: int
    pc: str = ALLOC
    g: int = NULL
    h: int = NULL
    h1: int = NULL
    h2: int = NULL
    hp: int = NULL   # h' of the pseudocode
    gp: int = NULL   # g'
    a: int = NULL
    b: int = BOTTOM
    c: int = 0
    eprime: int = BOTTOM
    pred: int = NULL
    succ: int = NULL
    j: int = 0
    inspected: int = 0
    result: Optional[int] = None

    @property
    def done(self) -> bool:
        return self.result is not None

    def copy(self) -> "ProcessRun":
        twin = ProcessRun.__new__(ProcessRun)
        twin.__dict__.update(self.__dict__)
        return twin

    def canonical(self) -> tuple:
        # the fields in declaration order: __init__ sets them in that order
        # and copy() keeps it
        return tuple(self.__dict__.values())


# the ProcessRun fields that hold a node handle (or a sentinel); every other
# field holds a pid, an item, a program counter or a count
RUN_HANDLE_FIELDS = ("g", "h", "h1", "h2", "hp", "gp", "a", "pred", "succ", "result")


def step(state: SharedState, run: ProcessRun, rec: Optional[Recorder] = None) -> bool:
    """Execute one machine step of ``run``; returns True when it responds."""
    if run.done:
        raise RuntimeError("stepping a completed operation")
    pid, e = run.pid, run.item
    pc = run.pc

    if pc == ALLOC:
        run.g = state.allocate(e)
        run.pc = ANNOUNCE

    elif pc == ANNOUNCE:
        state.cas_ann(pid, pid, (NULL, BOTTOM), (run.g, e), rec)
        run.pc = GETHEAD

    elif pc == GETHEAD:
        run.h1, run.h = state.read_head(pid, rec)
        run.pc = KATFRONT

    elif pc == KATFRONT:
        front_item = state.read_node(pid, run.h1, "item", rec)
        run.inspected += 1
        if front_item == e:
            run.pc = UNANN_FRONT1
        else:
            run.c = 0
            run.pc = READANN4 if run.h == NULL else KFOUND

    elif pc == UNANN_FRONT1:
        prior = state.cas_ann(pid, pid, (run.g, e), (NULL, BOTTOM), rec)
        run.a, run.b = prior
        if run.b == BOTTOM:
            run.pc = UNANN_FRONT2
        else:
            run.result = run.h1
    elif pc == UNANN_FRONT2:
        state.cas_ann(pid, pid, (run.a, run.b), (NULL, BOTTOM), rec)
        run.result = run.h1

    elif pc == KFOUND:
        node_item = state.read_node(pid, run.h, "item", rec)
        run.inspected += 1
        if node_item == e:
            run.pc = READANN1
        else:
            run.c = (run.c + 1) % state.phi
            run.pc = READANN3 if run.c == 0 else NEXTPTR

    elif pc == READANN1:
        run.a, run.b = state.read_ann(pid, pid, rec)
        run.pc = UNANN_OTHER1 if run.b == BOTTOM else SETGOLD
    elif pc == UNANN_OTHER1:
        state.cas_ann(pid, pid, (run.a, run.b), (NULL, BOTTOM), rec)
        run.result = run.a

    elif pc == SETGOLD:
        state.cas_node(pid, run.g, "old", NULL, run.h, rec)
        run.pc = SETHNEW
    elif pc == SETHNEW:
        state.cas_node(pid, run.h, "new", NULL, run.g, rec)
        run.pc = SETGPRIME
    elif pc == SETGPRIME:
        run.gp = state.read_node(pid, run.h, "new", rec)
        run.pc = READANN2 if run.gp == GONE else MTF_OUTER

    elif pc == READANN2:
        run.a, run.b = state.read_ann(pid, pid, rec)
        run.pc = UNANN_POSTMTF
    elif pc == UNANN_POSTMTF:
        state.cas_ann(pid, pid, (run.a, run.b), (NULL, BOTTOM), rec)
        run.result = run.a

    elif pc == READANN3:
        run.a, run.b = state.read_ann(pid, pid, rec)
        run.pc = UNANN_OTHER2 if run.b == BOTTOM else NEXTPTR
    elif pc == UNANN_OTHER2:
        state.cas_ann(pid, pid, (run.a, run.b), (NULL, BOTTOM), rec)
        run.result = run.a

    elif pc == NEXTPTR:
        run.h = state.read_node(pid, run.h, "next", rec)
        run.pc = READANN4 if run.h == NULL else KFOUND

    elif pc == READANN4:
        run.a, run.b = state.read_ann(pid, pid, rec)
        run.pc = UNANN_END
    elif pc == UNANN_END:
        state.cas_ann(pid, pid, (run.a, run.b), (NULL, BOTTOM), rec)
        run.result = run.a if run.b == BOTTOM else NOT_PRESENT

    # -- move-to-front ---------------------------------------------------------

    elif pc == MTF_OUTER:
        gp_old = state.read_node(pid, run.gp, "old", rec)
        run.pc = READANN2 if gp_old == DONE else MTF_GETHEAD
    elif pc == MTF_GETHEAD:
        run.h1, run.h2 = state.read_head(pid, rec)
        run.pc = MTF_GETOLD
    elif pc == MTF_GETOLD:
        run.hp = state.read_node(pid, run.h1, "old", rec)
        run.pc = MTF_PREPCHECK if run.hp == DONE else MTF_SETNEXT
    elif pc == MTF_PREPCHECK:
        gp_old = state.read_node(pid, run.gp, "old", rec)
        run.pc = MTF_TRYPREPEND if gp_old != DONE else MTF_OUTER
    elif pc == MTF_TRYPREPEND:
        state.cas_head(pid, (run.h1, run.h2), (run.gp, run.h1), rec)
        run.pc = MTF_OUTER
    elif pc == MTF_SETNEXT:
        state.cas_node(pid, run.h1, "next", NULL, run.h2, rec)
        run.pc = MTF_SETPREV
    elif pc == MTF_SETPREV:
        state.cas_node(pid, run.h2, "prev", NULL, run.h1, rec)
        run.pc = MTF_H1ITEM
    elif pc == MTF_H1ITEM:
        run.eprime = state.read_node(pid, run.h1, "item", rec)
        run.j = 1
        run.pc = MTF_READANN
    elif pc == MTF_READANN:
        run.a, run.b = state.read_ann(pid, run.j, rec)
        if run.b == run.eprime:
            run.pc = MTF_INFORMCHECK
        else:
            run.j += 1
            run.pc = MTF_READANN if run.j <= state.p else MTF_GETPREV
    elif pc == MTF_INFORMCHECK:
        h1_old = state.read_node(pid, run.h1, "old", rec)
        if h1_old != DONE:
            run.pc = MTF_INFORM
        else:
            run.j += 1
            run.pc = MTF_READANN if run.j <= state.p else MTF_GETPREV
    elif pc == MTF_INFORM:
        state.cas_ann(pid, run.j, (run.a, run.b), (run.h1, BOTTOM), rec)
        run.j += 1
        run.pc = MTF_READANN if run.j <= state.p else MTF_GETPREV
    elif pc == MTF_GETPREV:
        run.pred = state.read_node(pid, run.hp, "prev", rec)
        run.pc = MTF_GETNEXT
    elif pc == MTF_GETNEXT:
        run.succ = state.read_node(pid, run.hp, "next", rec)
        run.pc = MTF_REMOVE1
    elif pc == MTF_REMOVE1:
        state.cas_node(pid, run.pred, "next", run.hp, run.succ, rec)
        run.pc = MTF_REMOVE2 if run.succ != NULL else MTF_GONE
    elif pc == MTF_REMOVE2:
        state.cas_node(pid, run.succ, "prev", run.hp, run.pred, rec)
        run.pc = MTF_GONE
    elif pc == MTF_GONE:
        state.cas_node(pid, run.hp, "new", run.h1, GONE, rec)
        run.pc = MTF_DONE
    elif pc == MTF_DONE:
        state.cas_node(pid, run.h1, "old", run.hp, DONE, rec)
        run.pc = MTF_OUTER

    else:
        raise RuntimeError(f"unknown program counter {pc!r}")

    return run.done


def run_solo(state: SharedState, pid: int, item: int,
             rec: Optional[Recorder] = None) -> tuple[int, int, int]:
    """Run one search to completion with no interference.

    Returns (result, steps, inspected).
    """
    run = ProcessRun(pid, item)
    steps = 0
    while not step(state, run, rec):
        steps += 1
    return run.result, steps + 1, run.inspected


# -- native backend ------------------------------------------------------------


def search_native(state: SharedState, pid: int, e: int,
                  trace: Optional[list] = None) -> int:
    """The same search against the shared arena, for real threads.

    Writes go through the state's locked CAS methods; plain reads are
    unlocked.  The shared-access order matches the interpreter step for
    step, which the record/replay test pins down.  The traversal loop reads
    inline and traces only when asked, so the stress path stays cheap.
    Returns a handle or NOT_PRESENT.
    """
    arena = state.arena
    ann = state.ann
    phi = state.phi
    rec = trace.append if trace is not None else None
    read_node, read_ann = state.read_node, state.read_ann
    cas_ann, cas_node = state.cas_ann, state.cas_node

    def move_to_front(gp):
        while read_node(pid, gp, "old", rec) != DONE:
            h1, h2 = state.read_head(pid, rec)
            hp = read_node(pid, h1, "old", rec)
            if hp == DONE:
                if read_node(pid, gp, "old", rec) != DONE:
                    state.cas_head(pid, (h1, h2), (gp, h1), rec)
            else:
                cas_node(pid, h1, "next", NULL, h2, rec)
                cas_node(pid, h2, "prev", NULL, h1, rec)
                eprime = read_node(pid, h1, "item", rec)
                for j in range(1, state.p + 1):
                    a, b = read_ann(pid, j, rec)
                    if b == eprime and read_node(pid, h1, "old", rec) != DONE:
                        cas_ann(pid, j, (a, b), (h1, BOTTOM), rec)
                pred = read_node(pid, hp, "prev", rec)
                succ = read_node(pid, hp, "next", rec)
                cas_node(pid, pred, "next", hp, succ, rec)
                if succ != NULL:
                    cas_node(pid, succ, "prev", hp, pred, rec)
                cas_node(pid, hp, "new", h1, GONE, rec)
                cas_node(pid, h1, "old", hp, DONE, rec)

    g = state.allocate(e)
    cas_ann(pid, pid, (NULL, BOTTOM), (g, e), rec)
    h1, h = state.read_head(pid, rec)
    if read_node(pid, h1, "item", rec) == e:
        a, b = cas_ann(pid, pid, (g, e), (NULL, BOTTOM), rec)
        if b == BOTTOM:
            cas_ann(pid, pid, (a, b), (NULL, BOTTOM), rec)
        return h1
    c = 0
    while h != NULL:
        # hot traversal loop: attribute loads inlined
        node = arena[h]
        item = node.item
        if rec:
            rec({"type": "access", "pid": pid, "kind": "read",
                 "cell": ["node", h, "item"], "value": item})
        if item == e:
            a, b = read_ann(pid, pid, rec)
            if b == BOTTOM:
                cas_ann(pid, pid, (a, b), (NULL, BOTTOM), rec)
                return a
            cas_node(pid, g, "old", NULL, h, rec)
            cas_node(pid, h, "new", NULL, g, rec)
            gp = read_node(pid, h, "new", rec)
            if gp != GONE:
                move_to_front(gp)
            a, b = read_ann(pid, pid, rec)
            cas_ann(pid, pid, (a, b), (NULL, BOTTOM), rec)
            return a
        c = (c + 1) % phi
        if c == 0:
            a, b = ann[pid - 1]
            if rec:
                rec({"type": "access", "pid": pid, "kind": "read",
                     "cell": ["ann", pid], "value": [a, b]})
            if b == BOTTOM:
                cas_ann(pid, pid, (a, b), (NULL, BOTTOM), rec)
                return a
        nxt = node.next
        if rec:
            rec({"type": "access", "pid": pid, "kind": "read",
                 "cell": ["node", h, "next"], "value": nxt})
        h = nxt
    a, b = read_ann(pid, pid, rec)
    cas_ann(pid, pid, (a, b), (NULL, BOTTOM), rec)
    return a if b == BOTTOM else NOT_PRESENT


# -- invariant checking ----------------------------------------------------------


def snapshot_invariants(state: SharedState) -> list[str]:
    """Check the structural invariants; list-shape checks assume quiescence.

    Returns a list of violation descriptions (empty means clean).
    """
    out = list(state.transition_violations)
    try:
        walk = state.walk()
    except RuntimeError as exc:
        return out + [str(exc)]
    in_list = set(walk)
    # a node was ever in the list iff it is an initial node or was prepended
    n_initial, prepended = len(state.items), state.prepend_counts

    items_in_list = [state.arena[h].item for h in walk]
    if set(items_in_list) != set(state.items):
        out.append(f"list items {sorted(set(items_in_list))} != item set")
    done_items = [
        state.arena[h].item for h in walk if state.arena[h].old == DONE
    ]
    if len(done_items) != len(set(done_items)):
        out.append("duplicate items among settled in-list nodes")

    for rank, h in enumerate(walk):
        node = state.arena[h]
        if rank > 0 and node.old != DONE:
            out.append(f"in-list node {h} at position {rank + 1} has old={node.old}")
        if rank == 0 and node.old != DONE:
            if not (node.old >= 0 and state.arena[node.old].item == node.item
                    and node.old != h):
                out.append(f"front node {h} has bad old field {node.old}")
        if rank > 0 and node.prev != walk[rank - 1]:
            out.append(f"node {h} prev={node.prev}, expected {walk[rank - 1]}")
    if walk and state.arena[walk[0]].prev != NULL:
        out.append("front node has a non-null prev")
    if len(walk) >= 2 and state.head[1] != walk[1]:
        out.append(f"head second component {state.head[1]} != {walk[1]}")
    for component in state.head:
        if not (0 <= component < n_initial or component in prepended):
            out.append(f"head references node {component} never in the list")

    for count_handle, count in state.prepend_counts.items():
        if count > 1:
            out.append(f"node {count_handle} prepended {count} times")

    for h, node in enumerate(state.arena):
        if node.new >= 0:
            target = state.arena[node.new]
            if target.old != h:
                out.append(
                    f"node {h}.new={node.new} but {node.new}.old={target.old}"
                )
        if h >= n_initial and h not in prepended:
            if node.new != NULL:
                out.append(f"unlisted node {h} has new={node.new}")
            if not (node.old == NULL or (
                node.old >= 0 and node.old != h
                and state.arena[node.old].item == node.item
            )):
                out.append(f"unlisted node {h} has old={node.old}")
        elif h not in in_list:
            if node.old != DONE:
                out.append(f"removed node {h} has old={node.old}")
            if node.new != GONE:
                out.append(f"removed node {h} has new={node.new}")
    return out
