"""Tests for the three-process register propagation game."""

from fractions import Fraction
from itertools import product

import pytest

from listlab.findvalue import (
    AdversaryPolicy,
    CoinTape,
    InsufficientTape,
    OPT_READS_PER_INPUT,
    exact_expected_reads,
    lower_bound_adversary,
    monte_carlo_expected_reads,
    registers_after_deterministic,
    run_deterministic,
    run_randomized,
)


def test_deterministic_single_input():
    reads, opt = run_deterministic([42])
    assert reads == 3 and opt == 2


def test_deterministic_ten_inputs_ratio():
    reads, opt = run_deterministic(list(range(10)))
    assert reads == 30 and opt == 20
    assert Fraction(reads, opt) == Fraction(3, 2)


def test_deterministic_schedule_independent_cost():
    for policy in (
        AdversaryPolicy("adaptive"),
        AdversaryPolicy("fixed", 0),
        AdversaryPolicy("fixed", 1),
        AdversaryPolicy("fixed", 2),
    ):
        reads, _ = run_deterministic([5, 6, 7, 8], policy)
        assert reads == 12


def test_registers_converge_to_input_order():
    regs = registers_after_deterministic([7, 8, 9], AdversaryPolicy("fixed", 2))
    assert regs[0] == regs[1] == regs[2]
    assert [num for _, num in regs[0]] == [7, 8, 9]
    assert all(writer == 2 for writer, _ in regs[0])


def test_adversary_policy_validation():
    for kind in ("mean", "forcing"):
        with pytest.raises(ValueError):
            AdversaryPolicy(kind)
    with pytest.raises(ValueError):
        AdversaryPolicy("fixed", 5)


def test_lower_bound_adversary_on_neighbour_protocol():
    # the cyclic first-read map of the deterministic protocol loses exactly 3
    assert lower_bound_adversary((1, 2, 0)) == 3


def test_lower_bound_adversary_shared_target():
    # two processes read the same register first; at least 3 reads forced
    assert lower_bound_adversary((2, 2, 0)) >= 3


def test_lower_bound_adversary_all_maps():
    # in the order listlab findvalue --mode adversary prints them
    forced = [
        lower_bound_adversary((f0, f1, f2))
        for f0 in (1, 2)
        for f1 in (0, 2)
        for f2 in (0, 1)
    ]
    assert forced == [4, 4, 3, 4, 4, 3, 4, 4]


def test_lower_bound_adversary_rejects_self_read():
    with pytest.raises(ValueError):
        lower_bound_adversary((0, 2, 0))


def test_exact_expectation_single_input():
    assert exact_expected_reads(1) == Fraction(23, 8)


def test_exact_competitive_ratio():
    e = exact_expected_reads(1)
    assert e / OPT_READS_PER_INPUT == Fraction(23, 16)


def test_exact_expectation_scales_linearly():
    assert exact_expected_reads(4) == 4 * Fraction(23, 8)


def test_exact_branch_decomposition():
    # the expectation splits into four equally likely branches over the
    # informed neighbour's two coins
    from collections import defaultdict

    from listlab.findvalue import _reads_table

    groups = defaultdict(list)
    for bits, reads in _reads_table(0).items():
        groups[bits[:2]].append(reads)
    averages = sorted(Fraction(sum(v), len(v)) for v in groups.values())
    assert averages == [Fraction(9, 4), Fraction(5, 2), Fraction(13, 4), Fraction(7, 2)]
    assert sum(averages) / 4 == Fraction(23, 8)


def test_tape_mode_runs_and_counts():
    # all-zero coins: both processes read immediately, one picks the source
    tape = CoinTape((0,) * 4)
    reads = run_randomized([1], AdversaryPolicy("fixed", 0), tape)
    assert 2 <= reads <= 4


def test_tape_run_matches_reads_table():
    # a tape run and the exact table build first reads the same way
    from listlab.findvalue import _reads_table

    for target in range(3):
        table = _reads_table(target)
        assert len(table) == 16
        for bits in product((0, 1), repeat=4):
            tape = CoinTape(bits)
            reads = run_randomized([1], AdversaryPolicy("fixed", target), tape)
            assert reads == table[bits]
            assert tape.pos == 4


def test_run_randomized_needs_a_tape():
    for tape in (None, "exact"):
        with pytest.raises(TypeError):
            run_randomized([1], tape=tape)


def test_tape_exhaustion():
    with pytest.raises(InsufficientTape):
        run_randomized([1, 2], AdversaryPolicy("fixed", 0), CoinTape((0,) * 4))


def test_tape_from_hex_and_seed():
    assert CoinTape.from_hex("0f", nbits=8).bits == (1, 1, 1, 1, 0, 0, 0, 0)
    t = CoinTape.from_seed(9, 12)
    assert len(t.bits) == 12 and set(t.bits) <= {0, 1}


def test_monte_carlo_close_to_exact():
    mc = monte_carlo_expected_reads(200_000, seed=2)
    assert abs(mc - Fraction(23, 8)) <= Fraction(23, 8) / 100


def test_randomized_beats_deterministic():
    # the separation: the randomized protocol's exact ratio is below the
    # best deterministic ratio of 3/2
    assert exact_expected_reads(1) / 2 < Fraction(3, 2)
