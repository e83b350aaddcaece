"""Tests for merge machinery: enumeration, disjointness, NEXT sets,
partitions, bound checkers, the worst-case instance, and phases."""

import random
from fractions import Fraction

import pytest

from listlab.merges import (
    BudgetExceeded,
    Merge,
    Phase,
    avg_hi_limit,
    avg_lo_limit,
    build_lower_bound_instance,
    build_partitions,
    check_c_best,
    check_c_worst,
    enumerate_merges,
    make_disjoint,
    merge_count,
    min_reverse_distance,
    next_set,
    phase_costs,
    phase_partition,
    ratio_limit,
)
from listlab.seqcore import distance


def random_disjoint_instance(rng, p=2, max_items=2, max_len=6):
    """Random pairwise-disjoint sequences plus a random merge of them."""
    seqs = []
    base = 1
    for _ in range(p):
        k = rng.randint(1, max_items)
        items = list(range(base, base + k))
        base += k
        seqs.append(tuple(rng.choice(items) for _ in range(rng.randint(1, max_len))))
    steps = []
    cursors = [0] * p
    pool = [i for i, s in enumerate(seqs) for _ in s]
    rng.shuffle(pool)
    for i in pool:
        cursors[i] += 1
        steps.append((i + 1, cursors[i]))
    return seqs, Merge(tuple(steps))


# -- enumeration ---------------------------------------------------------------


def test_enumerate_merges_counts():
    assert len(list(enumerate_merges([(1,), (2,)]))) == 2
    assert len(list(enumerate_merges([(1, 2), (3,)]))) == 3
    assert len(list(enumerate_merges([(1, 2), (3, 4)]))) == 6


def test_enumerate_merges_distinct_and_valid():
    seqs = [(1, 2), (3, 4)]
    seen = set()
    for m in enumerate_merges(seqs):
        m.validate(seqs)
        assert m.steps not in seen
        seen.add(m.steps)
    assert len(seen) == merge_count([2, 2])


def test_enumerate_merges_budget():
    with pytest.raises(BudgetExceeded):
        list(enumerate_merges([(1,) * 20, (2,) * 20], budget=10))


def test_merge_validate_rejects_out_of_order():
    with pytest.raises(ValueError):
        Merge(((1, 2), (1, 1))).validate([(5, 6)])


def test_merge_json_round_trip():
    m = Merge(((1, 1), (2, 1), (1, 2)))
    assert Merge.from_json(m.to_json()) == m


# -- disjointness transformation ------------------------------------------------


def test_make_disjoint_identity_when_disjoint():
    seqs = [(1, 2), (3,)]
    out = make_disjoint(seqs)
    assert out == [(1, 2), (3,)]


def test_make_disjoint_hand_example():
    seqs = [(1,), (1,)]
    merge = Merge.concatenation(seqs)
    out = make_disjoint(seqs)
    assert out[0] == (1,)
    assert out[1] != (1,) and len(out[1]) == 1
    assert distance(merge.flatten(seqs), 2).total == 3
    assert distance(merge.flatten(out), 2).total == 4


def test_make_disjoint_properties_random():
    rng = random.Random(99)
    for _ in range(500):
        p = 2
        ell = rng.randint(2, 4)
        items = list(range(1, ell + 1))
        seqs = [
            tuple(rng.choice(items) for _ in range(rng.randint(1, 6)))
            for _ in range(p)
        ]
        steps = []
        cursors = [0] * p
        pool = [i for i, s in enumerate(seqs) for _ in s]
        rng.shuffle(pool)
        for i in pool:
            cursors[i] += 1
            steps.append((i + 1, cursors[i]))
        merge = Merge(tuple(steps))
        out = make_disjoint(seqs)
        assert not (set(out[0]) & set(out[1]))
        for before, after in zip(seqs, out):
            assert distance(before, ell) == distance(after, ell)
        assert (
            distance(merge.flatten(out), ell).total
            >= distance(merge.flatten(seqs), ell).total
        )


# -- NEXT sets -------------------------------------------------------------------


def test_next_set_hand_examples():
    # I=[a,a], J=[b], merge a b a
    seqs = [(1, 1), (2,)]
    merge = Merge(((1, 1), (2, 1), (1, 2)))
    assert next_set(seqs, merge, 1, 1, 2) == frozenset({1})

    # I=[a,a], J=[b,b], merge a b b a: second b is not a first occurrence
    seqs = [(1, 1), (2, 2)]
    merge = Merge(((1, 1), (2, 1), (2, 2), (1, 2)))
    assert next_set(seqs, merge, 1, 1, 2) == frozenset({1})


def test_next_set_no_successor_is_empty():
    seqs = [(1,), (2,)]
    merge = Merge(((1, 1), (2, 1)))
    assert next_set(seqs, merge, 1, 1, 2) == frozenset()


# -- partitions ------------------------------------------------------------------


def test_build_partitions_single_requests():
    seqs = [(1,), (2,)]
    for merge in enumerate_merges(seqs):
        pair = build_partitions(seqs[0], seqs[1], merge)
        assert pair.parts_i == ((1,),)
        assert pair.parts_j == ((),)


def test_build_partitions_hand_trace():
    seqs = [(1, 1), (2,)]
    merge = Merge(((1, 1), (2, 1), (1, 2)))
    pair = build_partitions(seqs[0], seqs[1], merge)
    assert pair.parts_i == ((1,), (2,))
    assert pair.parts_j == ((1,), ())
    assert pair.product_size == 1


def test_build_partitions_rejects_shared_items():
    with pytest.raises(ValueError):
        build_partitions((1,), (1,), Merge(((1, 1), (2, 1))))


def test_partition_legality_random():
    rng = random.Random(5)
    for _ in range(200):
        (si, sj), merge = random_disjoint_instance(rng)
        pair = build_partitions(si, sj, merge)
        flat_i = sorted(i for part in pair.parts_i for i in part)
        assert flat_i == list(range(1, len(si) + 1))
        flat_j = [j for part in pair.parts_j for j in part]
        assert len(flat_j) == len(set(flat_j))
        for part in pair.parts_i:
            items = [si[i - 1] for i in part]
            assert len(items) == len(set(items))
        for part in pair.parts_j:
            items = [sj[j - 1] for j in part]
            assert len(items) == len(set(items))


def test_partition_cardinality_bounds_random():
    # the slack-free injective bound, the ell^2-slack bounds and the
    # product-distance bound; the counterexample test below pins the
    # instance on which a wrong freshness filter broke the first of them
    rng = random.Random(6)
    for _ in range(200):
        ell = 4
        (si, sj), merge = random_disjoint_instance(rng)
        pair = build_partitions(si, sj, merge)
        sum_ij = sum(
            len(next_set((si, sj), merge, 1, i, 2))
            for i in range(1, len(si) + 1)
        )
        sum_ji = sum(
            len(next_set((sj, si), swap_processes(merge), 1, j, 2))
            for j in range(1, len(sj) + 1)
        )
        size = pair.product_size
        assert sum_ij <= size
        assert sum_ji <= size + ell * ell
        assert sum_ij + sum_ji <= 2 * size + ell * ell
        assert sum_ij >= sum_ji - ell * ell
        di = distance(si, ell).per_index
        dj = distance(sj, ell).per_index
        lhs = sum(len(a) * len(b) for a, b in zip(pair.parts_i, pair.parts_j))
        rhs = (
            sum(di[i - 1] for part in pair.parts_i for i in part)
            + sum(dj[j - 1] for part in pair.parts_j for j in part)
            + 3 * ell * ell
        )
        assert lhs <= rhs


def test_injective_bound_counterexample():
    """The slack-free cardinality bound holds on this 8-request instance.

    I=(1,2,1,2,1,2) and J=(3,3) merged as 1,2,1,3,2,1,3,2.  The first
    partition is (1,2),(3,4),(5),(6), and NEXT(2)={1}, NEXT(3)={1},
    NEXT(4)={2}; every other NEXT set is empty.  Part 1 takes J-index 1
    from NEXT(2).  In part 2, NEXT(3)={1} is already placed, so J-index 2
    from NEXT(4) is the first request to item 3 in that part and joins it.
    Parts 3 and 4 get nothing.  The three NEXT members then map
    injectively into a product of size 4.  A freshness filter that counts
    the item of every NEXT member as used, placed or not, rejected J-index
    2 and left a product of size 2 < 3; this test keeps that fixed.
    """
    s1 = (1, 2, 1, 2, 1, 2)
    s2 = (3, 3)
    merge = Merge(((1, 1), (1, 2), (1, 3), (2, 1), (1, 4), (1, 5), (2, 2), (1, 6)))
    assert merge.flatten((s1, s2)) == (1, 2, 1, 3, 2, 1, 3, 2)
    pair = build_partitions(s1, s2, merge)
    sum_ij = sum(
        len(next_set((s1, s2), merge, 1, i, 2))
        for i in range(1, len(s1) + 1)
    )
    assert pair.parts_i == ((1, 2), (3, 4), (5,), (6,))
    assert pair.parts_j == ((1,), (2,), (), ())
    assert sum_ij == 3
    assert pair.product_size == 4
    assert sum_ij <= pair.product_size
    ell = 4
    sum_ji = sum(
        len(next_set((s2, s1), swap_processes(merge), 1, j, 2))
        for j in range(1, len(s2) + 1)
    )
    assert sum_ij + sum_ji <= 2 * pair.product_size + ell * ell


def swap_processes(merge: Merge) -> Merge:
    return Merge(tuple((3 - p, i) for p, i in merge.steps))


# -- bound checkers ---------------------------------------------------------------


def test_check_c_worst_single_sequence():
    seqs = [(1, 2, 1)]
    merge = Merge.concatenation(seqs)
    ratio, ok = check_c_worst(seqs, merge, ell=2)
    assert ratio == 1 and ok


def test_check_c_worst_identical_singletons():
    seqs = [(1,), (1,)]
    merge = Merge.concatenation(seqs)
    ratio, ok = check_c_worst(seqs, merge, ell=2)
    assert ratio == 1 and ok


def test_check_c_worst_exhaustive_small():
    seqs = [(1, 2), (3, 4)]
    for merge in enumerate_merges(seqs):
        ratio, ok = check_c_worst(seqs, merge, ell=4)
        assert ok, f"ratio {ratio} exceeds p=2 for {merge.steps}"


def test_check_c_best_single_sequence():
    seqs = [(1, 2, 1)]
    merge = Merge.concatenation(seqs)
    slack, ok = check_c_best(seqs, merge, ell=2)
    assert slack == 0 and ok


def test_check_c_best_requires_disjoint():
    with pytest.raises(ValueError):
        check_c_best([(1,), (1,)], Merge.concatenation([(1,), (1,)]), ell=2)


def test_check_c_best_random_disjoint():
    rng = random.Random(8)
    for _ in range(200):
        (si, sj), merge = random_disjoint_instance(rng)
        slack, ok = check_c_best((si, sj), merge, ell=4)
        assert ok, f"slack {slack} above constant for {si} {sj}"


def test_check_c_best_on_lower_bound_instance():
    inst = build_lower_bound_instance(2, 4, 2, 2)
    seqs = make_disjoint(inst.seqs)
    slack, ok = check_c_best(seqs, inst.merge_lo, inst.ell)
    assert ok


# -- reverse-permutation minimum ---------------------------------------------------


def test_min_reverse_distance_values():
    assert min_reverse_distance((1,)) == 1
    assert min_reverse_distance((1, 2, 3)) == 6
    assert min_reverse_distance((1, 2, 3, 4, 5)) == 15


def test_min_reverse_distance_attained_by_reversal():
    items = (1, 2, 3, 4)
    rev_total = sum(
        distance(tuple(reversed(items)) + items, ell=4).per_index[4:]
    )
    assert min_reverse_distance(items) == rev_total == 10


def test_min_reverse_distance_rejects_duplicates():
    with pytest.raises(ValueError):
        min_reverse_distance((1, 1))


# -- worst-case instance -------------------------------------------------------------


def test_lower_bound_instance_structure():
    inst = build_lower_bound_instance(2, 4, 1, 1)
    b1 = (1, 2, 2, 1)
    b2 = (3, 4, 4, 3)
    assert inst.seqs[0] == b1 + b2
    assert inst.seqs[1] == b2 + b1
    inst.merge_hi.validate(inst.seqs)
    inst.merge_lo.validate(inst.seqs)
    # high merge flattens to (A1 A2 rev(A1) rev(A2))^(p*r*s)
    assert inst.merge_hi.flatten(inst.seqs) == (1, 2, 3, 4, 2, 1, 4, 3) * 2


def test_lower_bound_instance_lo_merge_groups_items():
    inst = build_lower_bound_instance(2, 4, 2, 1)
    flat = inst.merge_lo.flatten(inst.seqs)
    inst.merge_lo.validate(inst.seqs)
    # leading unused block of process 1, then grouped collections, then the
    # trailing unused block of process 2
    assert flat[:4] == (1, 2, 2, 1)
    assert flat[4:12] == (3, 3, 4, 4, 4, 4, 3, 3)
    assert flat[-4:] == (1, 2, 2, 1)


def test_lower_bound_divisibility_enforced():
    with pytest.raises(ValueError):
        build_lower_bound_instance(2, 5, 1, 1)


def test_limit_formulas():
    assert avg_hi_limit(2, 8) == Fraction(26, 4)
    assert avg_lo_limit(2, 8) == Fraction(14, 8)
    assert ratio_limit(2, 8) == Fraction(26, 7)
    assert ratio_limit(2, 8) == 6 - Fraction(32, 14)


def test_measured_ratio_approaches_limit():
    inst_small = build_lower_bound_instance(2, 8, 1, 1)
    inst_big = build_lower_bound_instance(2, 8, 10, 10)
    r_small = inst_small.measured_ratio()
    r_big = inst_big.measured_ratio()
    assert r_small < r_big < ratio_limit(2, 8)


def test_end_to_end_merge_bound():
    # the composed chain: for any two merges of the same sequences,
    # d(M1) <= (2p^2-p) * (d(M2) + renaming overhead of M2) + 7p^2*ell^2
    rng = random.Random(17)
    p = 2
    for _ in range(200):
        ell = rng.randint(2, 4)
        items = list(range(1, ell + 1))
        seqs = [
            tuple(rng.choice(items) for _ in range(rng.randint(1, 5)))
            for _ in range(p)
        ]
        merges = list(enumerate_merges(seqs))
        m1 = rng.choice(merges)
        m2 = rng.choice(merges)
        renamed = make_disjoint(seqs)
        d1 = distance(m1.flatten(seqs), ell).total
        d2 = distance(m2.flatten(seqs), ell).total
        overhead = distance(m2.flatten(renamed), ell).total - d2
        assert overhead >= 0
        factor = 2 * p * p - p
        assert d1 <= factor * (d2 + overhead) + 7 * p * p * ell * ell


# -- phases ----------------------------------------------------------------------


X, Y = 1, 2


def test_phase_partition_trailing_repeat_run():
    phases = phase_partition([Y, Y, Y], (X, Y))
    assert len(phases) == 1
    ph = phases[0]
    assert ph.form == "a" and ph.type_ == 1 and not ph.complete
    assert ph.requests == (Y, Y, Y) and ph.j == 1


def test_phase_partition_alternation_then_front_run():
    phases = phase_partition([Y, X, Y, X, X, X], (X, Y))
    assert len(phases) == 1
    ph = phases[0]
    assert ph.form == "c" and ph.type_ == 1
    assert ph.k == 2 and ph.j == 1


def test_phase_partition_front_start_swaps_roles():
    phases = phase_partition([X, X, X], (X, Y))
    assert phases[0].type_ == 2


def test_phase_partition_multi_phase():
    # (a) complete, then a type-2 phase on the flipped order
    seq = [Y, Y, X, X, X]
    phases = phase_partition(seq, (X, Y))
    assert phases[0].form == "a" and phases[0].complete
    assert phases[0].requests == (Y, Y)
    assert phases[1].type_ == 2
    assert phases[1].requests == (X, X, X)


def test_phase_partition_form_b():
    seq = [Y, X, Y, Y, Y, X]
    phases = phase_partition(seq, (X, Y))
    assert phases[0].form == "b" and phases[0].k == 1 and phases[0].j == 1
    assert phases[0].complete
    assert phases[0].requests == (Y, X, Y, Y, Y)


def test_phase_partition_rejects_foreign_items():
    with pytest.raises(ValueError):
        phase_partition([1, 3], (1, 2))


def test_phase_partition_covers_sequence():
    rng = random.Random(12)
    for _ in range(200):
        seq = [rng.choice([X, Y]) for _ in range(rng.randint(1, 12))]
        phases = phase_partition(seq, (X, Y))
        joined = [r for ph in phases for r in ph.requests]
        assert joined == seq
        assert all(ph.complete for ph in phases[:-1])


def test_phase_costs_table():
    mk = lambda form, k, j: Phase(form, 1, k, j, (), True)
    assert phase_costs(mk("a", 0, 0), p=3) == (3, 1, Fraction(3))
    assert phase_costs(mk("b", 1, 0), p=2) == (4, 2, Fraction(2))
    assert phase_costs(mk("c", 1, 0), p=2) == (3, 1, Fraction(3))


def test_phase_costs_incomplete_rejected():
    with pytest.raises(ValueError):
        phase_costs(Phase("a", 1, 0, 0, (), False), p=2)
