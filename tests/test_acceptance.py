"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every numeric comparison is exact (integers and
fractions); the stated wall-clock budgets are asserted as hard limits.
"""

import hashlib
import random
import threading
import time
from fractions import Fraction

from listlab import dmtf, findvalue
from listlab.dmtf import NOT_PRESENT
from listlab.harness import Schedule, account, explore_check, ratio_experiment, run
from listlab.merges import (
    Merge,
    Phase,
    build_lower_bound_instance,
    build_partitions,
    check_c_best,
    check_c_worst,
    enumerate_merges,
    min_reverse_distance,
    next_set,
    phase_costs,
    ratio_limit,
)
from listlab.seqcore import distance, mtf_run, opt_paid_cost
from listlab.seqcore import CostModel


def _report(num, description, elapsed, budget):
    print(f"criterion {num:02d} PASS ({elapsed:.2f}s / {budget:.0f}s): {description}")
    assert elapsed < budget


def test_criterion_01_distance_sandwich():
    t0 = time.time()
    rng = random.Random(1)
    for _ in range(1000):
        ell = rng.randint(2, 8)
        init = list(range(1, ell + 1))
        seq = [rng.randint(1, ell) for _ in range(rng.randint(1, 50))]
        d = distance(seq, ell).total
        cost, _ = mtf_run(seq, init)
        assert 2 * d - ell * ell + ell <= 2 * cost <= 2 * d
    _report(1, "distance sandwich on 1000 random sequences", time.time() - t0, 1.0)


def test_criterion_02_mtf_strict_ratio_exhaustive():
    t0 = time.time()
    init = [1, 2, 3]
    ratio = 2 - Fraction(2, 4)
    checked = 0

    def sequences(prefix, n):
        if n == 0:
            yield prefix
            return
        for x in (1, 2, 3):
            yield from sequences(prefix + (x,), n - 1)

    for n in range(1, 7):
        for seq in sequences((), n):
            cost, _ = mtf_run(seq, init)
            assert cost <= ratio * opt_paid_cost(seq, init)
            checked += 1
    assert checked == 3 + 9 + 27 + 81 + 243 + 729
    _report(2, f"MTF <= 3/2 * OPT on all {checked} sequences (ell=3, len<=6)",
            time.time() - t0, 60.0)


def _canonical_sequences(max_len, max_items):
    """Request sequences with items renamed to first-occurrence order."""
    out = []

    def rec(seq, used):
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


def test_criterion_03_merge_bounds_exhaustive():
    # Both distances are invariant under per-sequence item renamings, so
    # checking one canonical labeling per pattern pair covers every
    # disjoint pair of sequences of length <= 5 over a 4-item universe.
    t0 = time.time()
    p, ell = 2, 4
    const = 7 * p * p * ell * ell
    pairs = merges_checked = 0
    for s1 in _canonical_sequences(5, 3):
        k1 = max(s1)
        for s2 in _canonical_sequences(5, ell - k1):
            s2 = tuple(x + k1 for x in s2)
            pairs += 1
            seqs = (s1, s2)
            d_c = distance(s1 + s2, ell).total
            for merge in enumerate_merges(seqs):
                d_m = distance(merge.flatten(seqs), ell).total
                assert d_c <= p * d_m
                assert d_m <= (2 * p - 1) * d_c + const
                merges_checked += 1
    # the checker functions compute the same quantities
    rng = random.Random(7)
    for _ in range(50):
        s1 = tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 4)))
        s2 = tuple(rng.randint(3, 4) for _ in range(rng.randint(1, 4)))
        merge = next(iter(enumerate_merges((s1, s2))))
        ratio, ok_w = check_c_worst((s1, s2), merge, ell)
        slack, ok_b = check_c_best((s1, s2), merge, ell)
        assert ok_w and ok_b
    _report(3, f"d(C)<=p*d(M) and d(M)<=(2p-1)d(C)+{const} over {pairs} "
            f"disjoint pairs, {merges_checked} merges", time.time() - t0, 300.0)


def _random_disjoint_pair(rng):
    k1 = rng.randint(1, 3)
    k2 = rng.randint(1, 4 - k1)
    s1 = tuple(rng.randint(1, k1) for _ in range(rng.randint(1, 6)))
    s2 = tuple(k1 + rng.randint(1, k2) for _ in range(rng.randint(1, 6)))
    steps = []
    cursors = [0, 0]
    pool = [0] * len(s1) + [1] * len(s2)
    rng.shuffle(pool)
    for i in pool:
        cursors[i] += 1
        steps.append((i + 1, cursors[i]))
    return (s1, s2), Merge(tuple(steps))


def test_criterion_04_partition_machinery():
    t0 = time.time()
    ell = 4
    rng = random.Random(44)
    failures = []
    for trial in range(500):
        (s1, s2), merge = _random_disjoint_pair(rng)
        pair = build_partitions(s1, s2, merge)
        swapped = Merge(tuple((3 - p, i) for p, i in merge.steps))
        sum_ij = sum(
            len(next_set((s1, s2), merge, 1, i, 2))
            for i in range(1, len(s1) + 1)
        )
        sum_ji = sum(
            len(next_set((s2, s1), swapped, 1, j, 2))
            for j in range(1, len(s2) + 1)
        )
        size = pair.product_size
        if not sum_ij <= size:
            failures.append(
                f"instance {trial}: injective-mapping cardinality "
                f"{sum_ij} > |P| = {size} for I={s1} J={s2}"
            )
        if not sum_ij + sum_ji <= 2 * size + ell * ell:
            failures.append(f"instance {trial}: combined slack bound")
        d1 = distance(s1, ell).per_index
        d2 = distance(s2, ell).per_index
        lhs = sum(len(a) * len(b) for a, b in zip(pair.parts_i, pair.parts_j))
        rhs = (
            sum(d1[i - 1] for part in pair.parts_i for i in part)
            + sum(d2[j - 1] for part in pair.parts_j for j in part)
            + 3 * ell * ell
        )
        if not lhs <= rhs:
            failures.append(f"instance {trial}: product-distance bound")
    elapsed = time.time() - t0
    if failures:
        print(f"criterion 04 FAIL ({elapsed:.2f}s): "
              f"{len(failures)} violation(s) over 500 instances")
        raise AssertionError(
            "partition bounds violated:\n"
            + "\n".join(failures)
        )
    _report(4, "injective mapping, ell^2 slack, and 3*ell^2 product-distance "
            "bounds on 500 random disjoint instances", elapsed, 60.0)


def test_criterion_05_reverse_permutation_minimum():
    t0 = time.time()
    for n in range(1, 7):
        items = tuple(range(1, n + 1))
        assert min_reverse_distance(items) == n * (n + 1) // 2
    _report(5, "reversal minimizes the permuted-prefix distance for |X|<=6",
            time.time() - t0, 10.0)


def test_criterion_06_lower_bound_convergence():
    t0 = time.time()
    for p, ell in ((2, 8), (3, 9)):
        limit = ratio_limit(p, ell)
        prev = None
        for rs in (1, 2, 5, 10, 50):
            inst = build_lower_bound_instance(p, ell, rs, rs)
            ratio = inst.measured_ratio()
            if prev is not None:
                assert ratio > prev, f"ratio not increasing at rs={rs}"
            prev = ratio
        assert abs(prev - limit) <= Fraction(limit, 10), (
            f"(p={p}, ell={ell}): {float(prev)} not within 10% of {float(limit)}"
        )
    _report(6, "average-distance ratio monotone and within 10% of the "
            "closed form at r=s=50 for (2,8) and (3,9)", time.time() - t0, 120.0)


def test_criterion_07_exhaustive_model_check():
    t0 = time.time()
    coverage = []
    for item in (2, 1):  # both processes chase the same item
        report = explore_check(
            lambda: dmtf.init([1, 2], p=2, phi=1), ((item,), (item,)),
            step_bound=400,
        )
        assert report.violations == []
        assert report.bound_hits == 0
        coverage.append((item, report.states, report.histories))
    _report(7, "every explored interleaving passes invariants and "
            f"linearizes; coverage {coverage}", time.time() - t0, 600.0)


def test_criterion_08_native_stress():
    t0 = time.time()
    ell, total = 64, 100_000
    items = list(range(1, ell + 1))
    for p in (2, 4, 8):
        state = dmtf.init(items, p=p, phi=4)
        rng = random.Random(p)
        per = total // p
        seqs = [[rng.randint(1, ell) for _ in range(per)] for _ in range(p)]
        mismatches = []
        barrier = threading.Barrier(p)

        def worker(pid):
            arena = state.arena
            barrier.wait()
            for e in seqs[pid - 1]:
                res = dmtf.search_native(state, pid, e)
                if res == NOT_PRESENT or arena[res].item != e:
                    mismatches.append((pid, e, res))

        threads = [
            threading.Thread(target=worker, args=(pid,), daemon=True)
            for pid in range(1, p + 1)
        ]
        for t in threads:
            t.start()
        deadline = time.time() + 300
        for t in threads:
            t.join(max(0.0, deadline - time.time()))
        assert not any(t.is_alive() for t in threads), "progress failure"
        assert mismatches == []
        assert dmtf.snapshot_invariants(state) == []
    _report(8, f"{total} searches for p in (2,4,8), ell={ell}: returns match, "
            "invariants clean", time.time() - t0, 600.0)


def test_criterion_09_linearization_ratio_and_phase_table():
    t0 = time.time()
    for p in (2, 3):
        ell = 6
        items = list(range(1, ell + 1))
        chase = tuple(reversed(items)) * 3
        res = ratio_experiment(
            items, tuple(chase for _ in range(p)), Schedule(kind="round_robin"),
            phi=1, mode="linearization", oracle="free", model=CostModel.PARTIAL,
        )
        assert p - Fraction(1, 10) <= res.ratio <= p + 1, (
            f"p={p}: partial ratio {res.ratio} outside [p-0.1, p+1]"
        )
    table = {
        ("a", 0): (3, 1),
        ("b", 1): (5, 2),
        ("b", 2): (7, 3),
        ("c", 1): (4, 1),
        ("c", 3): (8, 3),
    }
    for (form, k), (dmtf_bound, opt_cost) in table.items():
        ph = Phase(form, 1, k, 0, (), True)
        got = phase_costs(ph, p=3)
        assert got[:2] == (dmtf_bound, opt_cost)
    _report(9, "chase-the-rear partial ratio lands at p for p in (2,3); "
            "phase cost table matches", time.time() - t0, 120.0)


def test_criterion_10_findvalue():
    t0 = time.time()
    reads, opt = findvalue.run_deterministic(list(range(25)))
    assert reads == 3 * 25 and opt == 2 * 25
    exact = findvalue.exact_expected_reads(1)
    assert exact == Fraction(23, 8)
    assert exact / findvalue.OPT_READS_PER_INPUT == Fraction(23, 16)
    mc = findvalue.monte_carlo_expected_reads(1_000_000, seed=10)
    assert abs(mc - exact) <= exact / 100
    forced = [
        findvalue.lower_bound_adversary((f0, f1, f2))
        for f0 in (1, 2) for f1 in (0, 2) for f2 in (0, 1)
    ]
    assert all(r >= 3 for r in forced) and min(forced) == 3
    _report(10, "3 reads/input deterministic, 23/8 exact, Monte Carlo within "
            "1%, adversary forces 3 over all 8 maps", time.time() - t0, 30.0)


# frozen on the first verified run; any interpreter change must be deliberate
_HISTORY_SHA256 = "bdb310f3006c0e64dc164a2136ad96f20b185f322c1cf7e6dc9727b66bafa5b8"


def test_criterion_11_determinism_regression():
    t0 = time.time()
    workload = ((2, 1, 3), (3, 3, 1))
    schedule = Schedule(kind="random", seed=2026)
    blobs = []
    for _ in range(2):
        state = dmtf.init([1, 2, 3], p=2, phi=2)
        history = run(state, workload, schedule)
        report = account(history)
        blobs.append(history.to_jsonl() + report.csv_row())
    assert blobs[0] == blobs[1]
    digest = hashlib.sha256(blobs[0].encode()).hexdigest()
    assert digest == _HISTORY_SHA256, f"stored digest changed: {digest}"
    _report(11, "replay yields byte-identical history and cost report",
            time.time() - t0, 30.0)
