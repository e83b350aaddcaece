"""Merges of per-process request sequences and the combinatorics around them.

A merge is an order-preserving interleaving of p request sequences, stored as
a sequence of (process, index) steps, both 1-based.  This module provides:

* exhaustive merge enumeration (budgeted),
* the renaming transformation that makes sequences pairwise item-disjoint
  while preserving per-sequence distances and not decreasing the merge's
  total distance,
* the NEXT-set machinery and the two partition-building algorithms used to
  bound how much a merge's distance can exceed the concatenation's,
* both direction checkers (concatenation vs. arbitrary merge),
* the block-structured worst-case instance generator with its two extreme
  merges and closed-form limits,
* the brute-force minimum for requests preceded by a permutation of
  themselves,
* phase partitioning of two-item request sequences and the per-phase cost
  table for the distributed vs. optimal comparison.

Everything is exact: integer distances, ``fractions.Fraction`` ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, permutations
from typing import Iterator, Optional, Sequence

from .seqcore import BudgetExceeded, distance, succ_index

Seq = Sequence[int]


@dataclass(frozen=True)
class Merge:
    """An interleaving of p sequences as (process, index) steps."""

    steps: tuple[tuple[int, int], ...]

    def flatten(self, seqs: Sequence[Seq]) -> tuple[int, ...]:
        return tuple(seqs[p - 1][i - 1] for p, i in self.steps)

    def index_map(self, process: int) -> dict[int, int]:
        """Map from a process's own indices to 1-based merge positions."""
        return {
            i: pos
            for pos, (p, i) in enumerate(self.steps, start=1)
            if p == process
        }

    def validate(self, seqs: Sequence[Seq]) -> None:
        expected = {p: 1 for p in range(1, len(seqs) + 1)}
        for p, i in self.steps:
            if not 1 <= p <= len(seqs):
                raise ValueError(f"step references unknown process {p}")
            if i != expected[p]:
                raise ValueError(
                    f"process {p} steps out of order: got index {i}, "
                    f"expected {expected[p]}"
                )
            expected[p] += 1
        for p, nxt in expected.items():
            if nxt != len(seqs[p - 1]) + 1:
                raise ValueError(f"process {p} has unmerged requests")

    @staticmethod
    def concatenation(seqs: Sequence[Seq]) -> "Merge":
        steps = []
        for p, seq in enumerate(seqs, start=1):
            steps.extend((p, i) for i in range(1, len(seq) + 1))
        return Merge(tuple(steps))

    def to_json(self) -> list[list[int]]:
        return [[p, i] for p, i in self.steps]

    @staticmethod
    def from_json(data: Sequence[Sequence[int]]) -> "Merge":
        """Read ``[[pid, index], ...]``; raises ValueError unless every entry
        is a pair of integers (floats, bools and numeral strings are not)."""
        steps = tuple((p, i) for p, i in data)
        if not all(type(p) is int and type(i) is int for p, i in steps):
            raise ValueError("merge entries must be [pid, index] integer pairs")
        return Merge(steps)


def merge_count(lengths: Sequence[int]) -> int:
    total, rem = 1, sum(lengths)
    for n in lengths:
        total *= math.comb(rem, n)
        rem -= n
    return total


def enumerate_merges(seqs: Sequence[Seq], budget: int = 1_000_000) -> Iterator[Merge]:
    """Yield every interleaving of ``seqs`` exactly once.

    Raises BudgetExceeded up front if the multinomial count is too large.
    """
    lengths = [len(s) for s in seqs]
    count = merge_count(lengths)
    if count > budget:
        raise BudgetExceeded(f"{count} merges exceeds budget {budget}")

    p = len(seqs)
    steps: list[tuple[int, int]] = []
    cursors = [0] * p

    def rec() -> Iterator[Merge]:
        if len(steps) == sum(lengths):
            yield Merge(tuple(steps))
            return
        for i in range(p):
            if cursors[i] < lengths[i]:
                cursors[i] += 1
                steps.append((i + 1, cursors[i]))
                yield from rec()
                steps.pop()
                cursors[i] -= 1

    return rec()


def make_disjoint(seqs: Sequence[Seq]) -> list[tuple[int, ...]]:
    """Rename items so the sequences become pairwise disjoint.

    One shared item at a time: for each pair i < j sharing an item, all of
    its occurrences in sequence j are renamed to a fresh item.  Renaming is
    a per-sequence bijection, so each sequence's own distance profile is
    unchanged.  It keeps every sequence's length, and a merge's steps are
    (process, index) positions, so every merge of ``seqs`` is a merge of
    the result, and its total distance there cannot be lower (the first
    request to a renamed item costs the whole list length).
    """
    out = [list(s) for s in seqs]
    fresh = max((x for s in seqs for x in s), default=0) + 1
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            for item in sorted(set(out[i]) & set(out[j])):
                out[j] = [fresh if x == item else x for x in out[j]]
                fresh += 1
    return [tuple(s) for s in out]


def next_set(
    seqs: Sequence[Seq], merge: Merge, src: int, h: int, tgt: int
) -> frozenset[int]:
    """NEXT set of source request h toward the target sequence: the target
    indices of first occurrences merged strictly between the source request
    and its successor request to the same item.

    Empty when the source request has no later request to the same item.
    """
    return frozenset(_next_members(
        seqs[src - 1], seqs[tgt - 1], merge.index_map(src), merge.index_map(tgt), h
    ))


def _next_members(
    seq_i: Seq, seq_j: Seq, f_i: dict[int, int], f_j: dict[int, int], h: int
) -> set[int]:
    """Members of the NEXT set of seq_i's request h toward seq_j, given both
    sequences' index maps into the merge."""
    sh = succ_index(seq_i, h)
    if sh is None:
        return set()
    lo, hi = f_i[h], f_i[sh]
    members = set()
    seen_items = set()  # items of target requests merged after lo, in order
    for j in range(1, len(seq_j) + 1):
        pos = f_j[j]
        if pos <= lo:
            continue
        item = seq_j[j - 1]
        if pos < hi and item not in seen_items:
            members.add(j)
        seen_items.add(item)
    return members


@dataclass(frozen=True)
class PartitionPair:
    """Aligned partitions of two sequences' indices, by creation order.

    ``parts_j`` may contain empty parts; alignment with ``parts_i`` is
    positional.  ``product_size`` is the number of index pairs in the union
    of the Cartesian products of corresponding parts.
    """

    parts_i: tuple[tuple[int, ...], ...]
    parts_j: tuple[tuple[int, ...], ...]

    @property
    def product_size(self) -> int:
        return sum(len(a) * len(b) for a, b in zip(self.parts_i, self.parts_j))


def build_partitions(seq_i: Seq, seq_j: Seq, merge: Merge) -> PartitionPair:
    """Run both partition-creation algorithms for two disjoint sequences.

    ``merge`` interleaves seq_i as process 1 and seq_j as process 2.  The
    first partition covers every index of seq_i; the second covers a
    subsequence of seq_j (parts may be empty), created part-for-part from
    the first, with a freshness filter over the target items of each part.

    The filter: part k of seq_j is built from the NEXT sets of the indices
    of part k of seq_i, in order, and a target index h joins part k only if
    h is not yet assigned to any part and its item seq_j[h-1] is not yet in
    part k.  So every part of seq_j holds distinct items.

    Only items placed in part k count as used.  Counting the item of every
    NEXT member of earlier indices, including members that an earlier part
    already placed, starves later parts: on I=(1,2,1,2,1,2), J=(3,3)
    merged as 1,2,1,3,2,1,3,2 the three NEXT members would have to map
    injectively into a product of size 2.  The partition exists to carry
    the bound sum_i |NEXT(i)| <= product_size; with this reading it holds,
    with no violation, on every item-disjoint pair with |I|,|J| <= 6 under
    every merge at ell=4, while the other reading breaks it at 8 requests.
    """
    if set(seq_i) & set(seq_j):
        raise ValueError("sequences must be item-disjoint")

    # partition for the first sequence
    assigned = [False] * (len(seq_i) + 1)
    parts_i: list[list[int]] = []
    for start in range(1, len(seq_i) + 1):
        if assigned[start]:
            continue
        part = [start]
        assigned[start] = True
        nxt = succ_index(seq_i, start)
        if nxt is not None:
            between: set[int] = set()
            for h in range(start + 1, nxt):
                item = seq_i[h - 1]
                if not assigned[h] and item not in between:
                    part.append(h)
                    assigned[h] = True
                between.add(item)
        parts_i.append(part)

    # partition for the second sequence, based on the first
    f_i, f_j = merge.index_map(1), merge.index_map(2)
    next_members = {
        i: sorted(_next_members(seq_i, seq_j, f_i, f_j, i))
        for i in range(1, len(seq_i) + 1)
    }
    assigned_j = [False] * (len(seq_j) + 1)
    parts_j: list[list[int]] = []
    for part in parts_i:
        part_j: list[int] = []
        used_items: set[int] = set()
        for i_k in part:
            for h in next_members[i_k]:
                if not assigned_j[h] and seq_j[h - 1] not in used_items:
                    part_j.append(h)
                    assigned_j[h] = True
                    used_items.add(seq_j[h - 1])
        parts_j.append(sorted(part_j))

    return PartitionPair(
        tuple(tuple(p) for p in parts_i), tuple(tuple(p) for p in parts_j)
    )


def check_c_worst(
    seqs: Sequence[Seq], merge: Merge, ell: int
) -> tuple[Fraction, bool]:
    """Ratio d(concatenation)/d(merge) and whether it is at most p."""
    p = len(seqs)
    d_c = distance(tuple(chain.from_iterable(seqs)), ell).total
    d_m = distance(merge.flatten(seqs), ell).total
    ratio = Fraction(d_c, d_m)
    return ratio, ratio <= p


def check_c_best(
    seqs: Sequence[Seq], merge: Merge, ell: int
) -> tuple[int, bool]:
    """Slack d(merge) - (2p-1)*d(concatenation) and whether it stays within
    the 7*p^2*ell^2 constant.  Sequences must be pairwise disjoint."""
    p = len(seqs)
    for i in range(p):
        for j in range(i + 1, p):
            if set(seqs[i]) & set(seqs[j]):
                raise ValueError("sequences must be pairwise disjoint")
    d_c = distance(tuple(chain.from_iterable(seqs)), ell).total
    d_m = distance(merge.flatten(seqs), ell).total
    slack = d_m - (2 * p - 1) * d_c
    return slack, slack <= 7 * p * p * ell * ell


def min_reverse_distance(items: Seq, max_len: int = 8) -> int:
    """Minimum summed distance of distinct requests preceded by any
    permutation of themselves; the reversal attains |X|(|X|+1)/2."""
    if len(set(items)) != len(items):
        raise ValueError("items must be distinct")
    if len(items) > max_len:
        raise BudgetExceeded(f"brute force limited to {max_len} items")
    n = len(items)
    best = None
    for perm in permutations(items):
        prof = distance(tuple(perm) + tuple(items), ell=n)
        total = sum(prof.per_index[n:])
        if best is None or total < best:
            best = total
    return best


# -- worst-case instance generator -------------------------------------------


@dataclass(frozen=True)
class LowerBoundInstance:
    """Block-structured sequences with two extreme merges.

    Each process's sequence cycles through p blocks of ell/p consecutive
    items, each block being s repetitions of an ascending run followed by
    its reversal, the whole pattern repeated r times.  ``merge_hi`` lines
    the processes up so nearly every request travels the full list;
    ``merge_lo`` groups identical blocks so repeats are nearly free.
    """

    p: int
    ell: int
    r: int
    s: int
    seqs: tuple[tuple[int, ...], ...]
    merge_hi: Merge
    merge_lo: Merge

    def avg_distance(self, merge: Merge) -> Fraction:
        flat = merge.flatten(self.seqs)
        return Fraction(distance(flat, self.ell).total, len(flat))

    def measured_ratio(self) -> Fraction:
        return self.avg_distance(self.merge_hi) / self.avg_distance(self.merge_lo)


def avg_hi_limit(p: int, ell: int) -> Fraction:
    return Fraction((2 * p - 1) * ell + p, 2 * p)


def avg_lo_limit(p: int, ell: int) -> Fraction:
    return Fraction(ell + 2 * p * p - p, 2 * p * p)


def ratio_limit(p: int, ell: int) -> Fraction:
    return (
        2 * p * p - p - Fraction(4 * (p**4 - p**3), ell + 2 * p * p - p)
    )


def build_lower_bound_instance(p: int, ell: int, r: int, s: int) -> LowerBoundInstance:
    if p < 2:
        raise ValueError("need at least 2 processes")
    if ell % p != 0:
        raise ValueError("p must divide ell")
    if r < 1 or s < 1:
        raise ValueError("r and s must be >= 1")
    m = ell // p
    runs = [list(range((j - 1) * m + 1, j * m + 1)) for j in range(1, p + 1)]
    blocks = [(runs[j] + runs[j][::-1]) * s for j in range(p)]  # 0-based by j

    def block_id(i: int, h: int) -> int:
        # 1-based process i, 1-based block position h within its sequence
        return (i + h - 2) % p + 1

    seqs = []
    for i in range(1, p + 1):
        seq: list[int] = []
        for _ in range(r):
            for h0 in range(p):
                seq.extend(blocks[block_id(i, h0 + 1) - 1])
        seqs.append(tuple(seq))

    block_len = 2 * m * s

    # high-distance merge: (run_1 .. run_p rev_1 .. rev_p) repeated p*r*s times
    cursors = [0] * (p + 1)
    hi_steps: list[tuple[int, int]] = []
    for t in range(1, p * r * s + 1):
        h = (t - 1) // s + 1  # block position every process is currently in
        for half in range(2):  # ascending chunks, then reversed chunks
            for j in range(1, p + 1):
                i = (j - h) % p + 1
                for _ in range(m):
                    cursors[i] += 1
                    hi_steps.append((i, cursors[i]))
    merge_hi = Merge(tuple(hi_steps))

    # low-distance merge: identical blocks interleaved item by item, with the
    # unused leading/trailing blocks concatenated in process order
    cursors = [0] * (p + 1)
    lo_steps: list[tuple[int, int]] = []
    for i in range(1, p + 1):  # leading blocks 1..p-i of process i
        for _ in range((p - i) * block_len):
            cursors[i] += 1
            lo_steps.append((i, cursors[i]))
    for _h in range(p, r * p + 1):  # one collection of p identical blocks
        for _t in range(s):
            for half in range(2):
                for _q in range(m):
                    for i in range(1, p + 1):
                        cursors[i] += 1
                        lo_steps.append((i, cursors[i]))
    for i in range(2, p + 1):  # trailing blocks of process i
        for _ in range((i - 1) * block_len):
            cursors[i] += 1
            lo_steps.append((i, cursors[i]))
    merge_lo = Merge(tuple(lo_steps))

    return LowerBoundInstance(p, ell, r, s, tuple(seqs), merge_hi, merge_lo)


# -- phase partitioning of two-item sequences ---------------------------------


@dataclass(frozen=True)
class Phase:
    """One phase of a two-item request sequence.

    Complete phases have one of three shapes, written here for a list
    currently ordered (x, y): (a) ``y y y^j``, (b) ``(yx)^k y y y^j`` with
    k >= 1, (c) ``(yx)^k x x^j`` with k >= 1.  ``type_`` is 1 when the pair
    is ordered (x, y) at phase start and 2 for the mirror image.  A trailing
    phase cut off by the end of the sequence keeps ``complete=False`` and may
    have ``form=None`` when the shape is still ambiguous.
    """

    form: Optional[str]  # 'a' | 'b' | 'c' | None
    type_: int
    k: int
    j: Optional[int]
    requests: tuple[int, ...]
    complete: bool


def phase_partition(
    pair_seq: Seq, initial_order: tuple[int, int]
) -> list[Phase]:
    """Partition a sequence over two items into phases.

    The tracked pair order starts from ``initial_order`` and evolves as
    move-to-front would.  A phase starting with a request to the front item
    is classified with the roles swapped (the order flip is a no-op for the
    actual list: requesting the front item moves nothing).
    """
    x, y = initial_order
    if bad := set(pair_seq) - {x, y}:
        raise ValueError(f"sequence contains items {sorted(bad)} outside the pair")
    front, back = x, y
    phases: list[Phase] = []
    n = len(pair_seq)
    t = 0
    while t < n:
        if pair_seq[t] == front:
            front, back = back, front
        type_ = 1 if (front, back) == (x, y) else 2
        b, f = back, front
        i, k = t, 0
        while i < n and pair_seq[i] == b:
            if i + 1 < n and pair_seq[i + 1] == f:
                k += 1
                i += 2
            else:
                break
        if i >= n:
            # ran out mid-alternation (or on a single leading request)
            phases.append(Phase(None, type_, k, None, tuple(pair_seq[t:]), False))
            break
        if pair_seq[i] == f:
            # (b f)^k then f...: shape (c); the front item stays in front
            run = 0
            while i + run < n and pair_seq[i + run] == f:
                run += 1
            complete = i + run < n
            phases.append(
                Phase("c", type_, k, run - 1, tuple(pair_seq[t : i + run]), complete)
            )
            t = i + run
        else:
            # (b f)^k then b...: shape (a) if k == 0 else (b), unless the
            # sequence ends after a single b (shape still ambiguous)
            run = 0
            while i + run < n and pair_seq[i + run] == b:
                run += 1
            if run < 2:
                phases.append(
                    Phase(None, type_, k, None, tuple(pair_seq[t:]), False)
                )
                break
            complete = i + run < n
            form = "a" if k == 0 else "b"
            phases.append(
                Phase(form, type_, k, run - 2, tuple(pair_seq[t : i + run]), complete)
            )
            front, back = b, f  # the repeated back item is now in front
            t = i + run
    return phases


def phase_costs(phase: Phase, p: int) -> tuple[int, int, Fraction]:
    """Per-phase partial costs: distributed upper bound, optimal cost, and
    the ratio bound, per the three phase shapes."""
    if not phase.complete:
        raise ValueError("phase costs are defined for complete phases only")
    k = phase.k
    if phase.form == "a":
        return p, 1, Fraction(p)
    if phase.form == "b":
        return 2 * k + p, k + 1, 2 + Fraction(p - 2, k + 1)
    if phase.form == "c":
        return 2 * k + p - 1, k, 2 + Fraction(p - 1, k)
    raise ValueError(f"unknown phase form {phase.form!r}")
