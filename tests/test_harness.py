"""Tests for scheduling, histories, linearization, costs, and exploration."""

import gc
import itertools
import random
import re
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as hst

from listlab import dmtf, harness
from listlab.dmtf import NOT_PRESENT
from listlab.harness import (
    Counterexample,
    ExecutionHistory,
    ExploreReport,
    LinearizationWitness,
    Schedule,
    _Driver,
    _KeyBuffer,
    account,
    check_linearizable,
    explore_all,
    explore_check,
    ratio_experiment,
    run,
    verify_witness,
)
from listlab.merges import Merge, build_lower_bound_instance
from listlab.seqcore import CostModel, mtf_run


def fresh(items=(1, 2), p=2, phi=1):
    return dmtf.init(list(items), p, phi)


# -- running and determinism -----------------------------------------------------


def test_single_process_single_request_history():
    st = fresh(p=1)
    h = run(st, ((1,),), Schedule(kind="round_robin"))
    kinds = [e["type"] for e in h.events]
    assert kinds.count("invoke") == 1 and kinds.count("respond") == 1
    assert h.completed


def test_intro_example_round_robin_vs_sequential():
    # both processes chase the rear item of a 2-item list: lockstep makes
    # each pay the full list, one-at-a-time lets the second pay 1
    wl = ((2,), (2,))
    h_rr = run(fresh(), wl, Schedule(kind="round_robin"))
    rep_rr = account(h_rr)
    assert rep_rr.item_level == 4
    assert rep_rr.op_level == 3

    h_seq = run(fresh(), wl, Schedule(kind="sequential"))
    rep_seq = account(h_seq)
    assert rep_seq.item_level == 3
    assert rep_seq.op_level == 3


def test_replay_is_byte_identical():
    wl = ((2, 1), (2, 2))
    h1 = run(fresh(), wl, Schedule(kind="random", seed=5))
    h2 = run(fresh(), wl, Schedule(kind="explicit", pids=h1.schedule))
    assert h1.to_jsonl() == h2.to_jsonl()
    h3 = run(fresh(), wl, Schedule(kind="random", seed=5))
    assert h1.to_jsonl() == h3.to_jsonl()


def test_history_jsonl_round_trip():
    h = run(fresh(), ((2,), (1,)), Schedule(kind="round_robin"))
    again = ExecutionHistory.from_jsonl(h.to_jsonl())
    assert again.to_jsonl() == h.to_jsonl()


def test_schedule_json_round_trip():
    s = Schedule(kind="sequential", merge=Merge(((1, 1), (2, 1))))
    assert Schedule.from_json(s.to_json()).to_json() == s.to_json()
    assert Schedule.from_json([1, 2, 1]).kind == "explicit"


def test_step_bound_leaves_pending():
    h = run(fresh(), ((2,), (2,)), Schedule(kind="round_robin"), step_bound=6)
    assert not h.completed
    assert [e["type"] for e in h.events].count("respond") == 0


@pytest.mark.parametrize("schedule", [
    Schedule(kind="explicit", pids=[1, 2] * 10),
    Schedule(kind="round_robin"),
    Schedule(kind="random", seed=3),
    Schedule(kind="sequential"),
], ids=lambda s: s.kind)
def test_step_bound_caps_every_step(schedule):
    # every step counts against the bound, an operation's invoke step included
    h = run(fresh(), ((2, 2), (2,)), schedule, step_bound=5)
    assert len(h.schedule) == 5 and not h.completed


def test_run_rejects_unknown_schedule_kind():
    # even when there is nothing to step
    with pytest.raises(ValueError, match="unknown schedule kind"):
        run(fresh(), ((), ()), Schedule(kind="bogus"))


@pytest.mark.parametrize("workload, schedule", [
    (((2,), (2,)), Schedule(kind="explicit", pids=[0])),
    (((2,), (2,)), Schedule(kind="explicit", pids=[3])),
    (((2,), (2,)), Schedule(kind="explicit", pids=[1.5])),
    (((2, 1), (2,)),
     Schedule(kind="sequential", merge=Merge(((1, 2), (2, 1), (1, 1))))),
], ids=["pid-0", "pid-3", "pid-1.5", "merge-out-of-order"])
def test_run_rejects_invalid_schedule_before_any_step(workload, schedule):
    st = fresh()
    with pytest.raises(ValueError):
        run(st, workload, schedule)
    assert st.to_json() == fresh().to_json()
    assert not st.prepend_counts and not st.transition_violations


def test_noop_steps_for_idle_process():
    st = fresh(p=2)
    h = run(st, ((1,), ()), Schedule(kind="explicit", pids=[2, 2, 1] + [1] * 10))
    assert h.completed
    assert [e["type"] for e in h.events].count("respond") == 1


def test_sequential_schedule_follows_merge_order():
    wl = ((1,), (2,))
    merge = Merge(((2, 1), (1, 1)))
    h = run(fresh(), wl, Schedule(kind="sequential", merge=merge))
    rep = account(h)
    assert rep.linearized == (2, 1)


# -- linearization ----------------------------------------------------------------


def test_sequential_history_witness_is_invocation_order():
    wl = ((2, 1), (1, 2))
    h = run(fresh(), wl, Schedule(kind="sequential"))
    witness = check_linearizable(h)
    assert isinstance(witness, LinearizationWitness)
    invoked = [e["op"] for e in h.events if e["type"] == "invoke"]
    assert [w.opid for w in witness.order] == invoked
    verify_witness(h, witness)


def test_informed_search_linearizes_at_informers_prepend():
    # p2 announces and starts scanning; p1 finds the item, prepends a copy,
    # and informs p2 through its announcement; both operations land on the
    # prepend event, the mover first
    wl = ((2,), (2,))
    pids = [2] * 4 + [1] * 40 + [2] * 10
    h = run(fresh(), wl, Schedule(kind="explicit", pids=pids))
    assert h.completed
    witness = check_linearizable(h)
    assert isinstance(witness, LinearizationWitness)
    first, second = witness.order
    assert first.pid == 1 and second.pid == 2
    assert first.point == second.point
    assert first.result == second.result
    prepends = [
        t for t, e in enumerate(h.events)
        if e["type"] == "access" and e["kind"] == "cas"
        and e["cell"] == ["head"] and e["ok"]
    ]
    assert first.point in prepends
    responds = {e["op"]: e for e in h.events if e["type"] == "respond"}
    assert responds[second.opid]["inspected"] == 2  # scanned both nodes first


def test_corrupted_history_rejected():
    h = run(fresh(), ((2,), (2,)), Schedule(kind="round_robin"))
    for e in h.events:
        if e["type"] == "respond":
            e["result"] = 1  # the removed original node, never at the front
            break
    verdict = check_linearizable(h)
    assert isinstance(verdict, Counterexample)
    assert verdict.prefix


def test_not_present_claim_for_present_item_rejected():
    h = run(fresh(), ((2,), (2,)), Schedule(kind="round_robin"))
    for e in h.events:
        if e["type"] == "respond":
            e["result"] = NOT_PRESENT
            break
    assert isinstance(check_linearizable(h), Counterexample)


def test_pending_operations_are_optional():
    h = run(fresh(), ((2,), (2,)), Schedule(kind="round_robin"), step_bound=9)
    witness = check_linearizable(h)
    assert isinstance(witness, LinearizationWitness)
    assert witness.order == ()


@hst.composite
def _runs(draw):
    """A workload over items 1..ell+1 (so absent items occur) and an explicit
    schedule that may stop before every search responds."""
    p = draw(hst.integers(1, 3))
    ell = draw(hst.integers(2, 4))
    phi = draw(hst.integers(1, 3))
    workload = tuple(
        tuple(draw(hst.lists(hst.integers(1, ell + 1), max_size=3)))
        for _ in range(p)
    )
    # drawn length first: a bare list strategy mostly draws a handful of
    # steps, too few for any search to respond
    n_steps = draw(hst.integers(0, 150))
    pids = draw(hst.lists(hst.integers(1, p), min_size=n_steps, max_size=n_steps))
    return p, ell, phi, workload, pids


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_runs())
def test_any_run_linearizes_and_costs(case):
    p, ell, phi, workload, pids = case
    h = run(fresh(range(1, ell + 1), p, phi), workload,
            Schedule(kind="explicit", pids=pids))
    witness = check_linearizable(h)
    assert isinstance(witness, LinearizationWitness), witness
    verify_witness(h, witness)
    report = account(h)
    responds = [e for e in h.events if e["type"] == "respond"]
    assert report.n_completed == len(responds) == len(witness.order)
    assert report.item_level == sum(e["inspected"] for e in responds)
    assert report.actual == len(h.accesses())
    assert report.linearized == witness.linearized_items()


# -- accounting -------------------------------------------------------------------


def test_account_sequential_levels_coincide():
    wl = ((2, 1, 2), (1, 1))
    h = run(fresh(), wl, Schedule(kind="sequential"))
    rep = account(h)
    assert rep.op_level == rep.item_level
    cost, _ = mtf_run(rep.linearized, (1, 2))
    assert rep.op_level == cost


def test_account_actual_dominates_item_level():
    rng = random.Random(2)
    for trial in range(1000):
        p = rng.randint(1, 4)
        ell = rng.randint(2, 8)
        phi = rng.choice([1, 2, 4])
        items = list(range(1, ell + 1))
        wl = tuple(
            tuple(rng.randint(1, ell) for _ in range(rng.randint(1, 6)))
            for _ in range(p)
        )
        st = dmtf.init(items, p, phi)
        rep = account(run(st, wl, Schedule(kind="random", seed=trial)))
        assert 0 <= rep.item_level <= rep.actual


def test_account_actual_regression_bound():
    # frozen implementation constants: shared accesses stay within a
    # (1 + 1/phi) factor of node inspections plus a per-request helping term
    rng = random.Random(3)
    for trial in range(200):
        p = rng.randint(1, 4)
        ell = rng.randint(2, 8)
        phi = rng.choice([1, 2, 4])
        items = list(range(1, ell + 1))
        wl = tuple(
            tuple(rng.randint(1, ell) for _ in range(rng.randint(1, 6)))
            for _ in range(p)
        )
        st = dmtf.init(items, p, phi)
        rep = account(run(st, wl, Schedule(kind="random", seed=1000 + trial)))
        bound = (
            3 * (1 + Fraction(1, phi)) * rep.item_level
            + rep.n_completed * (3 * p * p + 2 * phi + 18)
        )
        assert rep.actual <= bound


def test_prepend_remove_exclusion_observation():
    # replaying all shared accesses of a history: at each successful prepend
    # the displaced front's old field is settled, and each first removal CAS
    # targets exactly the node the current front's old field names
    rng = random.Random(14)
    for trial in range(60):
        p = rng.randint(1, 3)
        ell = rng.randint(2, 5)
        items = list(range(1, ell + 1))
        wl = tuple(
            tuple(rng.randint(1, ell) for _ in range(rng.randint(1, 4)))
            for _ in range(p)
        )
        st = dmtf.init(items, p, 1)
        h = run(st, wl, Schedule(kind="random", seed=trial))
        shadow = {
            (i, f): getattr(node, f)
            for i, node in enumerate(dmtf.init(items, p, 1).arena)
            for f in ("item", "next", "prev", "old", "new")
        }
        head = (0, 1)
        removed = set()
        for e in h.events:
            if e["type"] != "access":
                continue
            cell = e["cell"]
            if e["kind"] == "cas" and e["ok"]:
                if cell == ["head"]:
                    assert shadow[(head[0], "old")] == dmtf.DONE
                    head = tuple(e["new"])
                elif cell[0] == "node":
                    handle, fieldname = cell[1], cell[2]
                    if fieldname == "next" and e["expected"] >= 0:
                        target = e["expected"]
                        if target not in removed:
                            assert shadow[(head[0], "old")] == target
                            removed.add(target)
                    shadow[(handle, fieldname)] = e["new"]
            elif e["kind"] == "read" and cell[0] == "node":
                # allocation is not evented; learn fresh nodes from reads
                shadow.setdefault((cell[1], cell[2]), e["value"])


def test_announcement_protocol_observation():
    # across random histories, successful announcement changes are only:
    # the owner announcing from (null, none), anyone informing an announced
    # search with a node of the sought item, or the owner clearing it
    rng = random.Random(9)
    for trial in range(60):
        p = rng.randint(1, 4)
        ell = rng.randint(2, 5)
        items = list(range(1, ell + 1))
        wl = tuple(
            tuple(rng.randint(1, ell) for _ in range(rng.randint(1, 4)))
            for _ in range(p)
        )
        st = dmtf.init(items, p, rng.choice([1, 2]))
        h = run(st, wl, Schedule(kind="random", seed=trial))
        item_of = {i: it for i, it in enumerate(items)}
        for e in h.events:
            if e["type"] == "access" and e["cell"][0] == "node" and e["cell"][2] == "item":
                item_of[e["cell"][1]] = e["value"]
        for e in h.events:
            if (e["type"] != "access" or e["kind"] != "cas"
                    or e["cell"][0] != "ann" or not e["ok"]):
                continue
            owner = e["cell"][1]
            (pa, pb), (na, nb) = e["prior"], e["new"]
            if (pa, pb) == (dmtf.NULL, dmtf.BOTTOM):
                assert e["pid"] == owner and nb != dmtf.BOTTOM
            elif pb != dmtf.BOTTOM:
                assert (na, nb) == (dmtf.NULL, dmtf.BOTTOM) or (
                    nb == dmtf.BOTTOM and item_of.get(na) == pb
                )
                if (na, nb) == (dmtf.NULL, dmtf.BOTTOM):
                    assert e["pid"] == owner
            else:
                assert e["pid"] == owner
                assert (na, nb) == (dmtf.NULL, dmtf.BOTTOM)


def test_pairwise_property_of_linearized_runs():
    # the relative order of any two items under the full list always matches
    # the two-item projection
    rng = random.Random(4)
    for trial in range(40):
        ell = rng.randint(3, 6)
        items = list(range(1, ell + 1))
        wl = tuple(
            tuple(rng.randint(1, ell) for _ in range(4)) for _ in range(2)
        )
        st = dmtf.init(items, 2, 1)
        rep = account(run(st, wl, Schedule(kind="random", seed=trial)))
        seq = rep.linearized
        for x in items:
            for y in items:
                if x >= y:
                    continue
                full = list(items)
                pair = [x, y]
                for req in seq:
                    if req in (x, y):
                        rel_full = full.index(x) < full.index(y)
                        rel_pair = pair.index(x) < pair.index(y)
                        assert rel_full == rel_pair
                        pair.remove(req)
                        pair.insert(0, req)
                    full.remove(req)
                    full.insert(0, req)


# -- ratio experiments --------------------------------------------------------------


def test_ratio_single_process_within_strict_bound():
    items = [1, 2, 3]
    res = ratio_experiment(
        items, ((3, 2, 1, 3, 2),), Schedule(kind="round_robin"),
        mode="linearization", oracle="paid",
    )
    assert res.ratio <= 2 - Fraction(2, 4)


def test_ratio_chasing_rear_item_hits_p_exactly():
    for p in (2, 3):
        ell = 6
        items = list(range(1, ell + 1))
        chase = tuple(reversed(items)) * 3
        res = ratio_experiment(
            items, tuple(chase for _ in range(p)), Schedule(kind="round_robin"),
            mode="linearization", oracle="free", model=CostModel.PARTIAL,
        )
        assert res.ratio == p


def test_ratio_fully_adversarial_trend():
    prev = None
    for rs in (1, 2, 5, 10):
        inst = build_lower_bound_instance(2, 4, rs, rs)
        res = ratio_experiment(
            [1, 2, 3, 4], inst.seqs,
            Schedule(kind="sequential", merge=inst.merge_hi),
            mode="fully_adversarial", merge_for_opt=inst.merge_lo,
        )
        if prev is not None:
            assert res.ratio > prev
        prev = res.ratio
    assert prev > 2


def test_ratio_requires_merge_in_adversarial_mode():
    with pytest.raises(ValueError):
        ratio_experiment([1, 2], ((2,), (2,)), Schedule(kind="round_robin"),
                         mode="fully_adversarial")


# -- exhaustive exploration -----------------------------------------------------------


def test_explore_single_process_one_schedule():
    rep = explore_check(lambda: fresh(p=1), ((2,),), step_bound=100)
    assert rep.histories == 1
    assert rep.violations == []


def test_explore_reports_a_nonlinearizable_history_once():
    # a leftover announcement makes op 0 return node 1 (the rear node,
    # holding item 2), which is never at the front while it runs; op 1's
    # later response must not report op 0 again
    def factory():
        st = dmtf.init([1, 2], p=1)
        st.ann[0] = (1, dmtf.BOTTOM)
        return st

    for workload in (((2,),), ((2, 1),)):
        rep = explore_check(factory, workload)
        assert rep.histories == 1
        assert rep.violations == [
            f"schedule {[1] * 7}: op 0 returned node 1, never at the front "
            "during its interval"
        ]


def test_explore_same_rear_item_clean_and_stable():
    rep1 = explore_check(lambda: fresh(), ((2,), (2,)), step_bound=200)
    assert rep1.violations == []
    assert rep1.bound_hits == 0
    # determinism regression (2,757 with every run field in the key, 5,445
    # under the raw-index key)
    assert rep1.states == 2021
    rep2 = explore_check(lambda: fresh(), ((2,), (2,)), step_bound=200)
    assert (rep2.states, rep2.histories) == (rep1.states, rep1.histories)


def _corrupted():
    st = fresh()
    st.arena[1].old = dmtf.NULL  # what listlab explore --inject-corruption does
    return st


def test_explore_detects_injected_corruption():
    rep = explore_check(_corrupted, ((2,), (2,)), step_bound=200)
    assert rep.violations


def _illegal_tail_write():
    # node 2 holds item 3, which the workload below never searches, so no
    # protocol step touches its new field
    st = fresh(items=(1, 2, 3))
    st.cas_node(1, 2, "new", dmtf.NULL, dmtf.GONE, None)
    return st


def test_explore_reports_transition_violation_at_its_step_only():
    workload = ((2,), (2,))
    write = f"node 2.new: {dmtf.NULL} -> {dmtf.GONE}"
    rep = ExploreReport(0, 0, 0)
    for _ in explore_all(_illegal_tail_write, workload, 200, rep):
        pass
    assert rep.histories > 0
    assert not any(write in v for v in rep.violations)
    rep = explore_check(_illegal_tail_write, workload)
    assert len(rep.violations) == rep.histories
    assert all(v.endswith(write) for v in rep.violations)


def test_explore_finds_stale_helper_relink():
    """A helper parked before the next-field CAS can re-link a node that was
    removed from the tail in the meantime (the field returned to null, so
    the stale CAS matches again).  The walk then shows the same item twice
    among settled nodes, which the structural checker must flag; searches
    still linearize because the live copy precedes the re-linked one.
    """
    rep = explore_check(lambda: fresh(), ((1,), (2,)), step_bound=200)
    assert rep.violations
    assert all("duplicate items" in v for v in rep.violations)
    rep_rev = explore_check(lambda: fresh(), ((2,), (1,)), step_bound=200)
    assert all("duplicate items" in v for v in rep_rev.violations)


def test_explore_histories_replay_check():
    # histories are collected first: each must keep its own events and
    # schedule while the explorer steps and undoes its one driver
    for workload, count in ((((2,), (2,)), 4), (((1,), (2,)), 3),
                            (((2, 1), (2,)), 9)):
        histories = list(explore_all(lambda: fresh(), workload, step_bound=200))
        assert len(histories) == count
        for h in histories:
            st = fresh()
            replay = run(st, workload, Schedule(kind="explicit", pids=h.schedule))
            assert replay.to_jsonl() == h.to_jsonl()


@pytest.mark.parametrize("workload, expected", [
    (((1,), (2,)), (1430, 3, 0, 1)),
    (((2,), (1,)), (1430, 3, 0, 1)),
    (((2, 1), (2,)), (7686, 9, 0, 4)),
], ids=["1-2", "2-1", "21-2"])
def test_explore_counts_pinned(workload, expected):
    rep = explore_check(lambda: fresh(), workload, step_bound=200)
    assert (rep.states, rep.histories, rep.bound_hits, len(rep.violations)) == expected


def _outcome(state, history):
    """A terminal outcome: the final list and the kinds of its snapshot
    violations (handles blanked out), with op-level and item-level cost."""
    kinds = frozenset(re.sub(r"-?\d+", "#", v) for v in dmtf.snapshot_invariants(state))
    report = account(history)
    return tuple(state.list_items()), kinds, report.op_level, report.item_level


def _raw_key(drv):
    return (drv.state.canonical(),
            tuple(r.canonical() if r else None for r in drv.runs),
            tuple(drv.cursors))


def _search(workload, on_child=lambda drv, key: None, factory=fresh, prune_raw=True):
    """Terminal outcomes of a depth-first search with the explorer's
    incremental key kept alongside.  With ``prune_raw`` it prunes on raw
    arena indices, the explorer's key before handles were renamed, kept as
    the reference; otherwise on the incremental key, as the explorer does.
    ``on_child(drv, key)`` sees every state a step reaches, pruned or not."""
    drv = _Driver(factory(), workload)
    drv.state.journal = []
    keys = _KeyBuffer(drv)
    root = keys.encode(drv)
    seen = {_raw_key(drv) if prune_raw else root}
    out = set()

    def visit(key):
        if drv.all_done():
            out.add(_outcome(drv.state, drv.history()))
            return
        for pid in range(1, drv.state.p + 1):
            if drv.pending(pid):
                mark = drv.mark(pid)
                n_journal = len(drv.state.journal)
                drv.step(pid)
                child = keys.after_step(drv, pid, n_journal)
                on_child(drv, child)
                seen_as = _raw_key(drv) if prune_raw else child
                if seen_as not in seen:
                    seen.add(seen_as)
                    visit(child)
                drv.undo(pid, mark)
                keys.restore(drv, key)

    visit(root)
    return out


@pytest.mark.parametrize("workload", [
    ((2,), (2,)), ((1,), (2,)), ((2,), (1,)), ((2, 1), (2,)), ((2,), (2, 1)),
    ((1, 2), (2, 1)), ((1,), (1,)),
], ids=["2-2", "1-2", "2-1", "21-2", "2-21", "12-21", "1-1"])
def test_explore_renamed_key_keeps_every_terminal_outcome(workload):
    rep = ExploreReport(0, 0, 0)
    renamed = set()
    for history in explore_all(lambda: fresh(), workload, 200, rep):
        st = fresh()
        run(st, workload, Schedule(kind="explicit", pids=history.schedule))
        renamed.add(_outcome(st, history))
    assert rep.bound_hits == 0
    assert renamed == _search(workload)


# positions of the handle-valued fields in ProcessRun.canonical()
_RUN_HANDLE_SLOTS = tuple(i for i, f in enumerate(fields(dmtf.ProcessRun))
                          if f.name in dmtf.RUN_HANDLE_FIELDS)


def _rename(key: tuple, ell: int, order: list[int]) -> tuple:
    """The raw key with handle ell + order[rank] renamed ell + rank
    throughout: each allocated handle named by the rank of its owner among
    the allocated ops, the explorer's key before the fixed names."""
    (nodes, head, ann), runs, cursors = key
    get = {ell + k: ell + rank for rank, k in enumerate(order)}.get
    # sentinels, None and the initial nodes keep their value
    nodes = tuple(
        (item, get(nxt, nxt), get(prev, prev), get(old, old), get(new, new))
        for item, nxt, prev, old, new in itertools.chain(
            nodes[:ell], (nodes[ell + k] for k in order))
    )
    head = tuple(get(x, x) for x in head)
    ann = tuple((get(a, a), b) for a, b in ann)
    renamed = []
    for r in runs:
        if r is not None:
            r = list(r)
            for i in _RUN_HANDLE_SLOTS:
                r[i] = get(r[i], r[i])
            r = tuple(r)
        renamed.append(r)
    return (nodes, head, ann), tuple(renamed), cursors


def _rank_renamed_key(drv):
    # fixed names order the owners as (pid, index) does, so sorting the ops
    # by them gives the ranks
    ell = len(drv.state.items)
    order = sorted(range(len(drv.names) - ell), key=lambda k: drv.names[ell + k])
    return _rename(_raw_key(drv), ell, order)


@pytest.mark.parametrize("factory, workload", [
    (fresh, ((2,), (2,))),
    (fresh, ((1,), (2,))),
    (fresh, ((2,), (1,))),
    (fresh, ((2, 1), (2,))),
    (_corrupted, ((2,), (2,))),
    (lambda: fresh(p=3), ((1,), (1,), (1,))),
], ids=["2-2", "1-2", "2-1", "21-2", "corrupt", "p3"])
def test_incremental_key_encodes_the_state_as_the_rank_renaming_does(factory, workload):
    # on every state a raw-index search reaches, the key updated step by
    # step equals the key written from scratch, and it is a function of
    # the rank-renamed key (not the other way round: it leaves out dead
    # locals and the inspected count)
    to_key, raw = {}, set()

    def check(drv, key):
        assert key == _KeyBuffer(drv).encode(drv)
        renamed = _rank_renamed_key(drv)
        assert to_key.setdefault(renamed, key) == key
        raw.add(_raw_key(drv))

    _search(workload, check, factory)
    assert len(raw) > len(to_key)  # some states differ only in allocation order


def _decode(keys, key):
    """The cells a key holds, with handles under their fixed names: the
    node fields of every fixed name, Head, the announcements, each run's pc
    and live locals (None for no run) and the cursors.  Every other run
    slot must read 0."""
    codes = memoryview(key).cast(keys.typecode).tolist()

    def value(code):
        return None if code == 0 else code - harness._OFFSET

    nodes = [tuple(map(value, codes[k:k + 4])) for k in range(0, keys.head_slot, 4)]
    head = tuple(map(value, codes[keys.head_slot:keys.ann_slot]))
    ann = [tuple(map(value, codes[k:k + 2])) for k in range(keys.ann_slot, keys.run_slot, 2)]
    runs = []
    for k in range(keys.run_slot, keys.cursor_slot, harness._RUN_SLOTS):
        pc, *local_codes = codes[k:k + harness._RUN_SLOTS]
        live = dmtf.LIVE_LOCALS[dmtf.PROGRAM_COUNTERS[value(pc)]] if pc else ()
        assert all(c == 0 for x, c in zip(dmtf.RUN_LOCALS, local_codes)
                   if x not in live)
        runs.append((dmtf.PROGRAM_COUNTERS[value(pc)], {
            x: value(c) for x, c in zip(dmtf.RUN_LOCALS, local_codes) if x in live})
            if pc else None)
    return nodes, head, ann, runs, [value(c) for c in codes[keys.cursor_slot:]]


def _fixed_cells(drv, n_nodes):
    """The driver's cells as ``_decode`` returns them."""
    def name(v):
        return drv.names[v] if v is not None and v >= 0 else v

    st = drv.state
    nodes = [(dmtf.NULL,) * 4] * n_nodes
    for h, node in enumerate(st.arena):
        nodes[drv.names[h]] = tuple(name(getattr(node, f))
                                    for f in ("next", "prev", "old", "new"))
    runs = [
        None if r is None else (r.pc, {
            x: name(getattr(r, x)) if x in dmtf.RUN_HANDLE_FIELDS else getattr(r, x)
            for x in dmtf.LIVE_LOCALS[r.pc]})
        for r in drv.runs
    ]
    return (nodes, tuple(map(name, st.head)), [(name(a), b) for a, b in st.ann],
            runs, list(drv.cursors))


@pytest.mark.parametrize("factory, workload", [
    (fresh, ((2, 1), (2,))),
    (lambda: fresh(p=3), ((2,), (), (2,))),
], ids=["21-2", "p3"])
def test_key_decodes_to_the_drivers_cells_under_fixed_names(factory, workload):
    n_nodes = len(factory().items) + sum(map(len, workload))
    layout = _KeyBuffer(_Driver(factory(), workload))
    decoded = 0

    def check(drv, key):
        nonlocal decoded
        assert _decode(layout, key) == _fixed_cells(drv, n_nodes)
        decoded += 1

    _search(workload, check, factory, prune_raw=False)
    assert decoded > 1000


def test_explore_key_ignores_allocation_order():
    # both processes invoke and announce, in opposite orders: the same ops
    # hold swapped handles, which the key names by (pid, op index)
    keys, raw = set(), set()
    for schedule in ([1, 2, 1, 2], [2, 1, 2, 1], [1, 2, 2, 1]):
        drv = _Driver(fresh(), ((2,), (2,)))
        for pid in schedule:
            drv.step(pid)
        keys.add(_KeyBuffer(drv).encode(drv))
        raw.add(_raw_key(drv))
    assert len(keys) == 1
    assert len(raw) == 2


@pytest.mark.parametrize("factory, workload", [
    (fresh, ((1,), (2,))),
    (fresh, ((2, 1), (2,))),
    (fresh, ((1, 2), (2, 1))),
    (lambda: fresh(items=(1, 2, 3)), ((3, 2), (3, 1))),
], ids=["1-2", "21-2", "12-21", "ell3-32-31"])
def test_prepend_counts_are_a_function_of_the_key(factory, workload):
    # snapshot_invariants reads prepend_counts, which the key leaves out;
    # pruning is sound for it if every state with one key has the same
    # counts, under fixed names
    counts_of = {}

    def check(drv, key):
        counts = {drv.names[h]: c for h, c in drv.state.prepend_counts.items()}
        assert counts_of.setdefault(key, counts) == counts

    _search(workload, check, factory, prune_raw=False)
    assert len(counts_of) > 1000


def _step_effects(drv, run):
    """What one step of ``run`` (a copy, stepped on the driver's state)
    does: its events, its journal entries and transition violations, the
    shared cells after it, and the run's pc, result and live locals after
    it; or the error it raises.  The state is rolled back afterwards."""
    st = drv.state
    n_journal, n_violations = len(st.journal), len(st.transition_violations)
    events = []
    try:
        dmtf.step(st, run, events.append)
        live = () if run.done else dmtf.LIVE_LOCALS[run.pc]
        return (events, st.journal[n_journal:], st.transition_violations[n_violations:],
                st.canonical(), run.pc, run.result, {x: getattr(run, x) for x in live})
    except (RuntimeError, IndexError) as exc:  # a handle that is no node
        return repr(exc)
    finally:
        st.rollback(n_journal)


# two ways to change a value: to another real handle (or a small count or
# item), and to a sentinel
_PERTURBATIONS = (lambda v: 1 if v == 0 else 0,
                  lambda v: dmtf.DONE if v == dmtf.GONE else dmtf.GONE)


@pytest.mark.parametrize("factory, workload", [
    (fresh, ((1,), (2,))),
    (fresh, ((2,), (1,))),
    (fresh, ((2, 1), (2,))),
    (fresh, ((2,), (2,))),
    (lambda: fresh(items=(1, 2, 3)), ((3, 2), (3, 1))),
    (lambda: fresh(p=3), ((1,), (1,), (1,))),
    (lambda: fresh(items=(1, 2, 3), phi=2), ((3,), (3,))),
], ids=["1-2", "2-1", "21-2", "2-2", "ell3-32-31", "p3", "ell3-phi2"])
def test_dead_locals_do_not_change_a_step(factory, workload):
    # at every state of the exploration, each run in flight takes its next
    # step as it is and with all its dead locals (and inspected) changed:
    # the events, the journal entries, the shared cells, the next pc, the
    # result and the locals live after the step must not change.  The
    # unchanged step also writes only the locals dmtf.STEP_LOCALS lists and
    # moves to a pc it lists.  At phi=1 the phase count c is always 0, so
    # only a phi=2 configuration shows that it is live.
    checked = set()

    def check(drv, key):
        if key in checked:
            return
        checked.add(key)
        for run in drv.runs:
            if run is None:
                continue
            _reads, writes, nexts = dmtf.STEP_LOCALS[run.pc]
            dead = [x for x in dmtf.RUN_LOCALS if x not in dmtf.LIVE_LOCALS[run.pc]]
            twin = run.copy()
            expected = _step_effects(drv, twin)
            assert not isinstance(expected, str), expected
            assert twin.done or twin.pc in nexts
            assert {x for x in dmtf.RUN_LOCALS
                    if getattr(twin, x) != getattr(run, x)} <= set(writes.split())
            for change in _PERTURBATIONS:
                twin = run.copy()
                for x in dead + ["inspected"]:
                    setattr(twin, x, change(getattr(run, x)))
                assert _step_effects(drv, twin) == expected, (run, dead)

    _search(workload, check, factory, prune_raw=False)
    assert len(checked) > 200


def _cyclic():
    # node 1's next points back at node 0, so a search for item 3, whose
    # node is off the list, walks 0, 1, 0, 1, ... and never responds
    st = fresh(items=(1, 2, 3), p=1)
    st.arena[1].next = 0
    return st


def test_explore_reports_a_schedule_that_never_terminates():
    # with the step count out of the key, the walk returns to a state on
    # its own path: that back edge is reported, not cut off by the bound
    rep = explore_check(_cyclic, ((3,),), step_bound=200)
    assert (rep.histories, rep.bound_hits) == (0, 0)
    assert len(rep.violations) == 1
    steps = [1] * 10
    assert rep.violations[0] == (
        f"schedule {steps}: steps 5 to 10 return to the state after step 4, "
        "so repeating them never terminates")
    # the lasso replays: the states after steps 4 and 10 have one key
    keys = []
    for n in (4, 10):
        drv = _Driver(_cyclic(), ((3,),))
        for pid in steps[:n]:
            drv.step(pid)
        keys.append(_KeyBuffer(drv).encode(drv))
    assert keys[0] == keys[1]


def test_every_run_field_is_classified_for_renaming():
    # the key stores a run's pc and its live RUN_LOCALS, those in
    # RUN_HANDLE_FIELDS under fixed names; a new ProcessRun field must be
    # added to those lists or to these
    not_handles = {"pid", "item", "pc", "b", "c", "eprime", "j", "inspected"}
    not_locals = {"pid", "item", "pc", "inspected", "result"}
    handles = set(dmtf.RUN_HANDLE_FIELDS)
    names = {f.name for f in fields(dmtf.ProcessRun)}
    assert not handles & not_handles
    assert handles | not_handles == names
    assert not set(dmtf.RUN_LOCALS) & not_locals
    assert set(dmtf.RUN_LOCALS) | not_locals == names
    # the step table covers every pc and names only locals
    assert set(dmtf.STEP_LOCALS) == set(dmtf.PROGRAM_COUNTERS)
    for reads, writes, nexts in dmtf.STEP_LOCALS.values():
        assert set((reads + " " + writes).split()) <= set(dmtf.RUN_LOCALS)
        assert set(nexts) <= set(dmtf.PROGRAM_COUNTERS)


def test_explore_leaves_no_cyclic_garbage():
    gc.collect()
    gc.disable()
    try:
        explore_check(lambda: fresh(), ((2,), (2,)), step_bound=200)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _state_snapshot(st):
    return (
        st.to_json(),
        list(st.prepend_counts.items()),
        list(st.transition_violations),
    )


def _driver_snapshot(drv):
    return _state_snapshot(drv.state) + (
        [r.canonical() if r else None for r in drv.runs],
        list(drv.cursors),
        list(drv.opids),
        list(drv.names),
        list(drv.events),
        list(drv.schedule),
    )


@pytest.mark.parametrize("factory, workload", [
    (lambda: fresh(), ((2, 1), (2,))),
    (_corrupted, ((2,), (2, 1))),
    (lambda: fresh(items=(1, 2, 3), p=3), ((3, 1), (2,), (3, 2))),
], ids=["p2", "p2-corrupt", "p3"])
def test_undo_journal_restores_every_field(factory, workload):
    rng = random.Random(17)
    p = len(workload)
    for _ in range(40):
        initial = _state_snapshot(factory())
        drv = _Driver(factory(), workload)
        st = drv.state
        st.journal = []
        for _ in range(rng.randrange(80)):  # a random schedule prefix
            pending = [q for q in range(1, p + 1) if drv.pending(q)]
            if not pending:
                break
            drv.step(rng.choice(pending))
        before = _driver_snapshot(drv)
        for pid in range(1, p + 1):
            if drv.pending(pid):
                mark = drv.mark(pid)
                drv.step(pid)
                drv.undo(pid, mark)
                assert _driver_snapshot(drv) == before
        # the protocol's own steps made no illegal transition on 500 random
        # schedules of each workload here, injected corruption included, so
        # one is forced: its violation entry must be undone too
        handle = rng.randrange(len(st.arena))
        fieldname = rng.choice(["next", "prev", "old", "new"])
        prior = getattr(st.arena[handle], fieldname)
        n_journal = len(st.journal)
        st.cas_node(1, handle, fieldname, prior,
                    dmtf.DONE if fieldname == "new" else dmtf.GONE, None)
        assert len(st.transition_violations) == len(before[2]) + 1
        st.rollback(n_journal)
        assert _driver_snapshot(drv) == before
        st.rollback(0)
        assert _state_snapshot(st) == initial
        assert st.journal == []
