"""Tests for the sequential core: distance measure, MTF, and the oracles."""

import random
from fractions import Fraction
from typing import Optional, Sequence

import pytest

from listlab.seqcore import (
    BudgetExceeded,
    CostModel,
    DistanceProfile,
    distance,
    mtf_run,
    opt_free_cost,
    opt_paid_cost,
    succ_index,
)

A, B, C, X, Y, Z = 1, 2, 3, 1, 2, 3


# -- reference helpers: the definitions the fast code is checked against ------


def prev_index(seq: Sequence[int], j: int) -> Optional[int]:
    """Largest index j' < j (1-based) with seq[j'] == seq[j], or None."""
    if not 1 <= j <= len(seq):
        raise IndexError(f"index {j} out of range for sequence of length {len(seq)}")
    target = seq[j - 1]
    for jp in range(j - 1, 0, -1):
        if seq[jp - 1] == target:
            return jp
    return None


def opt_free_cost_brute(seq: Sequence[int], init: Sequence[int]) -> int:
    """Independent brute-force recursion over free-exchange strategies.

    No memoization; exponential.  Kept solely as a cross-check oracle for
    ``opt_free_cost`` on tiny instances.
    """

    def go(order: tuple[int, ...], k: int) -> int:
        if k == len(seq):
            return 0
        item = seq[k]
        pos = order.index(item)
        rest = order[:pos] + order[pos + 1 :]
        best = None
        for dest in range(pos + 1):
            new_order = rest[:dest] + (item,) + rest[dest:]
            sub = go(new_order, k + 1)
            if best is None or sub < best:
                best = sub
        return pos + 1 + best

    return go(tuple(init), 0)


def all_sequences(items: Sequence[int], length: int):
    """Yield every sequence of exactly ``length`` requests over ``items``."""
    if length == 0:
        yield ()
        return
    for rest in all_sequences(items, length - 1):
        for x in items:
            yield rest + (x,)


def test_prev_index_basic():
    assert prev_index([A, B, A], 3) == 1
    assert prev_index([A, B, A], 1) is None
    assert prev_index([A, A, A], 3) == 2


def test_prev_index_out_of_range():
    with pytest.raises(IndexError):
        prev_index([A, B], 3)
    with pytest.raises(IndexError):
        prev_index([A, B], 0)


def test_succ_index_basic():
    assert succ_index([A, B, A], 1) == 3
    assert succ_index([A, B, A], 3) is None
    assert succ_index([A, A, A], 1) == 2


def test_distance_hand_values():
    assert distance([A, B, A], ell=3) == DistanceProfile((3, 3, 2), 8)
    assert distance([A, A], ell=5) == DistanceProfile((5, 1), 6)
    assert distance([A, B, C, B], ell=3) == DistanceProfile((3, 3, 3, 2), 11)


def test_distance_renamed_universe():
    # first occurrences always count ell, even with more than ell items
    prof = distance([1, 2, 3, 4, 1], ell=2)
    assert prof.per_index == (2, 2, 2, 2, 4)


def test_distance_rejects_bad_input():
    with pytest.raises(ValueError):
        distance([0, 1], ell=3)
    with pytest.raises(ValueError):
        distance([1, 1, 0], ell=3)  # the bad item comes after a repeat
    with pytest.raises(ValueError):
        distance([1], ell=0)


def test_distance_accepts_one_shot_iterator():
    # a request sequence may be any iterable, consumed exactly once
    assert distance(iter([A, B, A]), ell=3) == DistanceProfile((3, 3, 2), 8)
    assert distance((x for x in [A, A]), ell=5) == DistanceProfile((5, 1), 6)


def _naive_distance(seq, ell):
    """The definition, index by index: distinct items at prev..j-1."""
    per = []
    for j in range(1, len(seq) + 1):
        prev = prev_index(seq, j)
        per.append(ell if prev is None else len(set(seq[prev - 1 : j - 1])))
    return per


@pytest.mark.parametrize(
    "ell,items,lengths",
    [
        (50, 6, (1, 40)),  # ell far above the number of distinct items
        (3, 9, (1, 40)),  # more items than ell: a renamed universe
        (4, 3, (300, 400)),  # a long stream over few items
        (2, 2, (0, 4)),  # short sequences, including the empty one
    ],
)
def test_distance_matches_definition(ell, items, lengths):
    rng = random.Random(ell * 1000 + items)
    for _ in range(60):
        seq = [rng.randint(1, items) for _ in range(rng.randint(*lengths))]
        prof = distance(seq, ell)
        assert list(prof.per_index) == _naive_distance(seq, ell)
        assert prof.total == sum(prof.per_index)


def test_mtf_hand_values():
    cost, final = mtf_run([Z, Z], [X, Y, Z], CostModel.FULL)
    assert cost == 4 and final == [Z, X, Y]
    cost, final = mtf_run([X], [X, Y, Z], CostModel.FULL)
    assert cost == 1 and final == [X, Y, Z]


def test_mtf_partial_is_full_minus_length():
    rng = random.Random(7)
    for _ in range(50):
        ell = rng.randint(2, 6)
        init = list(range(1, ell + 1))
        seq = [rng.randint(1, ell) for _ in range(rng.randint(1, 20))]
        full, _ = mtf_run(seq, init, CostModel.FULL)
        part, _ = mtf_run(seq, init, CostModel.PARTIAL)
        assert part == full - len(seq)


def test_mtf_missing_item():
    with pytest.raises(ValueError):
        mtf_run([4], [1, 2, 3])


def test_distance_sandwich_random():
    # d(I) - ell^2/2 + ell/2 <= MTF(I) <= d(I), exact (doubled to stay integral)
    rng = random.Random(20260810)
    for _ in range(300):
        ell = rng.randint(2, 8)
        init = list(range(1, ell + 1))
        seq = [rng.randint(1, ell) for _ in range(rng.randint(1, 50))]
        d = distance(seq, ell).total
        cost, _ = mtf_run(seq, init)
        assert 2 * cost <= 2 * d
        assert 2 * cost >= 2 * d - ell * ell + ell


def test_opt_free_hand_values():
    assert opt_free_cost([Z], [X, Y, Z]) == 3
    assert opt_free_cost([Z, Z], [X, Y, Z]) == 4
    assert opt_free_cost([Y, X, Y, X], [X, Y]) == 6


def test_opt_free_matches_brute_force():
    rng = random.Random(3)
    for _ in range(40):
        init = [1, 2, 3]
        seq = [rng.randint(1, 3) for _ in range(rng.randint(1, 5))]
        assert opt_free_cost(seq, init) == opt_free_cost_brute(seq, init)


def test_opt_free_budget():
    with pytest.raises(BudgetExceeded):
        opt_free_cost([1], list(range(1, 8)))


def test_opt_paid_hand_values():
    assert opt_paid_cost([Z], [X, Y, Z]) == 3
    assert opt_paid_cost([X], [X, Y]) == 1


def test_opt_paid_below_opt_free_exhaustive():
    init = [1, 2, 3]
    for n in range(1, 6):
        for seq in all_sequences([1, 2, 3], n):
            assert opt_paid_cost(seq, init) <= opt_free_cost(seq, init)


def test_opt_paid_budget():
    with pytest.raises(BudgetExceeded):
        opt_paid_cost([1], list(range(1, 7)))


def test_opt_lower_bound_via_distance():
    # OPT(I) >= d(I)/2 * (ell+1)/ell - (ell^2-1)/4 on small instances
    rng = random.Random(11)
    for _ in range(40):
        ell = rng.randint(2, 4)
        init = list(range(1, ell + 1))
        seq = [rng.randint(1, ell) for _ in range(rng.randint(1, 8))]
        d = distance(seq, ell).total
        bound = Fraction(d, 2) * Fraction(ell + 1, ell) - Fraction(ell * ell - 1, 4)
        assert opt_paid_cost(seq, init) >= bound


def test_mtf_strict_ratio_small_sample():
    # MTF(I) <= (2 - 2/(ell+1)) * OPT(I); the exhaustive run is in acceptance
    init = [1, 2, 3]
    ratio = 2 - Fraction(2, 4)
    for seq in all_sequences([1, 2, 3], 4):
        cost, _ = mtf_run(seq, init)
        assert cost <= ratio * opt_paid_cost(seq, init)
