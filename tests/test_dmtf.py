"""Tests for the shared-list structure: interpreter, native backend, and
the invariant checker."""

import random
import threading

import pytest

from listlab import dmtf
from listlab.dmtf import (
    BOTTOM,
    DONE,
    GONE,
    NOT_PRESENT,
    NULL,
    ProcessRun,
    init,
    run_solo,
    search_native,
    snapshot_invariants,
    step,
)


def test_init_shape():
    st = init([1, 2], p=3, phi=1)
    assert st.list_items() == [1, 2]
    assert st.head == (0, 1)
    assert all(n.old == DONE and n.new == NULL for n in st.arena)
    assert st.ann == [(NULL, BOTTOM)] * 3
    assert st.arena[0].next == 1 and st.arena[1].prev == 0
    assert st.arena[0].prev == NULL and st.arena[1].next == NULL


def test_init_rejects_small_or_bad_sets():
    with pytest.raises(ValueError):
        init([1], p=1)
    with pytest.raises(ValueError):
        init([1, 1], p=1)
    with pytest.raises(ValueError):
        init([1, 2], p=0)
    with pytest.raises(ValueError):
        init([1, 2], p=1, phi=0)


def test_solo_front_item_five_steps_four_accesses():
    # allocation is a step without a shared access; then announce CAS,
    # Head read, item read, un-announce CAS
    st = init([1, 2], p=1, phi=1)
    events = []
    result, steps, inspected = run_solo(st, 1, 1, events.append)
    assert result == 0
    assert steps == 5
    assert len(events) == 4
    assert inspected == 1
    assert st.list_items() == [1, 2]


def test_solo_absent_item_returns_not_present():
    st = init([1, 2], p=1, phi=1)
    result, _, inspected = run_solo(st, 1, 9)
    assert result == NOT_PRESENT
    assert inspected == 2
    assert snapshot_invariants(st) == []


def test_solo_second_item_moves_to_front():
    st = init([1, 2], p=1, phi=1)
    result, _, _ = run_solo(st, 1, 2)
    assert st.list_items() == [2, 1]
    assert st.arena[result].item == 2
    assert st.arena[result].old == DONE
    assert 1 not in st.walk()  # the original node for item 2
    assert st.arena[1].new == GONE
    assert snapshot_invariants(st) == []


def test_solo_any_single_search_leaves_clean_state():
    for ell in (2, 3, 5):
        items = list(range(1, ell + 1))
        for target in items + [ell + 7]:
            for phi in (1, 2):
                st = init(items, p=2, phi=phi)
                result, _, _ = run_solo(st, 1, target)
                assert snapshot_invariants(st) == []
                if target <= ell:
                    assert st.arena[result].item == target
                    assert st.list_items()[0] == target or target == items[0]
                else:
                    assert result == NOT_PRESENT


def test_step_on_completed_run_rejected():
    st = init([1, 2], p=1, phi=1)
    run = ProcessRun(1, 1)
    while not step(st, run):
        pass
    with pytest.raises(RuntimeError):
        step(st, run)


def test_snapshot_fresh_state_clean():
    assert snapshot_invariants(init([1, 2, 3], p=2)) == []


def test_snapshot_detects_corrupted_old_field():
    # a never-listed replacement node must not have old = DONE
    st = init([1, 2], p=1, phi=1)
    g = st.allocate(2)
    st.arena[g].old = DONE
    violations = snapshot_invariants(st)
    assert any(f"unlisted node {g}" in v for v in violations)


def test_snapshot_detects_in_list_undone_node():
    st = init([1, 2], p=1, phi=1)
    st.arena[1].old = NULL
    assert any("in-list node 1" in v for v in snapshot_invariants(st))


def test_snapshot_detects_head_at_never_listed_node():
    st = init([1, 2], p=1, phi=1)
    g = st.allocate(2)  # allocated, never prepended
    st.head = (g, 0)
    violations = snapshot_invariants(st)
    assert f"head references node {g} never in the list" in violations


def test_snapshot_detects_node_prepended_twice():
    st = init([1, 2], p=1, phi=1)
    g = st.allocate(2)
    st.cas_head(1, (0, 1), (g, 0), None)
    st.cas_head(1, (g, 0), (g, 0), None)
    violations = snapshot_invariants(st)
    assert f"node {g} prepended 2 times" in violations
    # a prepended node counts as listed
    assert not any("never in the list" in v for v in violations)


def test_field_monotonicity_recorded_on_histories():
    # the interpreter validates each successful CAS transition; a run can
    # never leave an illegal transition behind
    rng = random.Random(31)
    for _ in range(30):
        ell = rng.randint(2, 5)
        items = list(range(1, ell + 1))
        st = init(items, p=1, phi=rng.choice([1, 2]))
        for _ in range(6):
            run_solo(st, 1, rng.choice(items))
        assert st.transition_violations == []
        assert snapshot_invariants(st) == []


def test_native_matches_interpreter_record_replay():
    # the native backend performs the identical shared-access sequence when
    # run without interference
    cases = [
        ([1, 2], 1, 1),
        ([1, 2], 2, 1),
        ([1, 2, 3], 3, 1),
        ([1, 2, 3], 3, 2),
        ([1, 2, 3, 4], 9, 1),
    ]
    for items, target, phi in cases:
        st_i = init(items, p=1, phi=phi)
        ev_i = []
        res_i, _, _ = run_solo(st_i, 1, target, ev_i.append)
        st_n = init(items, p=1, phi=phi)
        ev_n = []
        res_n = search_native(st_n, 1, target, trace=ev_n)
        assert res_i == res_n
        assert ev_i == ev_n
        assert st_i.canonical() == st_n.canonical()


def test_native_sequential_sequence_of_searches():
    st = init([1, 2, 3], p=1, phi=1)
    for target, order in [(3, [3, 1, 2]), (2, [2, 3, 1]), (2, [2, 3, 1])]:
        res = search_native(st, 1, target)
        assert st.arena[res].item == target
        assert st.list_items() == order
    assert snapshot_invariants(st) == []


def test_native_threads_small_stress():
    ell, p, per_thread = 16, 4, 400
    items = list(range(1, ell + 1))
    st = init(items, p=p, phi=4)
    rng = random.Random(1234)
    sequences = [
        [rng.randint(1, ell) for _ in range(per_thread)] for _ in range(p)
    ]
    mismatches = []
    barrier = threading.Barrier(p)

    def worker(pid):
        barrier.wait()
        for e in sequences[pid - 1]:
            res = search_native(st, pid, e)
            if res == NOT_PRESENT or st.arena[res].item != e:
                mismatches.append((pid, e, res))

    threads = [threading.Thread(target=worker, args=(pid,)) for pid in range(1, p + 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert mismatches == []
    assert snapshot_invariants(st) == []
    assert sorted(st.list_items()) == items


def test_traversal_safety_after_removal():
    # a removed node keeps pointing at its last successor, so a traversal
    # that was parked on it can continue
    st = init([1, 2, 3], p=1, phi=1)
    run_solo(st, 1, 2)
    assert 1 not in st.walk()
    assert st.arena[1].next == 2  # still the node that followed it


def test_state_json_round_trip_fields():
    st = init([1, 2], p=2, phi=3)
    run_solo(st, 1, 2)
    blob = st.to_json()
    assert blob["head"] == list(st.head)
    assert blob["p"] == 2 and blob["phi"] == 3
    assert len(blob["arena"]) == len(st.arena)


def test_state_json_golden_after_solo_move():
    # frozen end state of the two-item move-to-front from the trace tests
    st = init([1, 2], p=1, phi=1)
    run_solo(st, 1, 2)
    assert st.to_json() == {
        "items": [1, 2],
        "p": 1,
        "phi": 1,
        "head": [2, 0],
        "ann": [[-1, 0]],
        "arena": [
            {"item": 1, "next": -1, "prev": 2, "old": -2, "new": -1},
            {"item": 2, "next": -1, "prev": 0, "old": -2, "new": -3},
            {"item": 2, "next": 0, "prev": -1, "old": -2, "new": -1},
        ],
    }
