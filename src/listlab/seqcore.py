"""Sequential list-accessing core: request sequences, the distance measure,
move-to-front simulation, and exact offline oracles.

Items are positive integers.  A request sequence is any iterable of items;
indices into sequences are 1-based everywhere, matching the usual convention
for list-accessing analysis.  A list state is an ordering of items with
position 1 at the front.

The two offline oracles differ in the allowed rearrangements:

* ``opt_free_cost`` only allows moving the item just accessed to any position
  closer to the front, at no cost (dynamic programming over permutations).
* ``opt_paid_cost`` additionally allows exchanging any two adjacent items for
  a cost of 1 at any point (layered shortest path over permutations).

Costs and distances are exact integers; ratio checks elsewhere use
``fractions.Fraction`` so no tolerance is ever involved.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence


class CostModel(enum.Enum):
    FULL = "full"
    PARTIAL = "partial"


class BudgetExceeded(Exception):
    """An oracle or enumeration was asked for more state space than allowed."""


@dataclass(frozen=True)
class DistanceProfile:
    """Per-request distances d_I(j) and their sum for one sequence."""

    per_index: tuple[int, ...]
    total: int


def succ_index(seq: Sequence[int], j: int) -> Optional[int]:
    """Smallest index j' > j (1-based) with seq[j'] == seq[j], or None."""
    if not 1 <= j <= len(seq):
        raise IndexError(f"index {j} out of range for sequence of length {len(seq)}")
    target = seq[j - 1]
    for jp in range(j + 1, len(seq) + 1):
        if seq[jp - 1] == target:
            return jp
    return None


def distance(seq: Iterable[int], ell: int) -> DistanceProfile:
    """Distance profile of ``seq`` for a list of length ``ell``.

    The distance of request j is the number of distinct items requested at
    indices prev..j-1 where prev is the previous request to the same item,
    and ``ell`` for a first request.  ``ell`` is an explicit parameter: after
    renaming transformations a sequence may reference more than ``ell``
    distinct items, and first occurrences still count ``ell``.

    One pass over a move-to-front stack of the items seen so far, most
    recent first (the LRU stack distance of Mattson et al., 1970).  Just
    before request j, the items above the requested one are exactly the
    distinct items requested after prev, so its 1-based stack position is
    the number of distinct items at prev..j-1.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    stack: list[int] = []
    seen: set[int] = set()
    per: list[int] = []
    for item in seq:
        if item in seen:
            pos = stack.index(item)
            per.append(pos + 1)
            del stack[pos]
        else:
            if item < 1:
                raise ValueError("item ids must be positive")
            seen.add(item)
            per.append(ell)
        stack.insert(0, item)
    return DistanceProfile(tuple(per), sum(per))


def mtf_run(
    seq: Sequence[int], init: Sequence[int], model: CostModel = CostModel.FULL
) -> tuple[int, list[int]]:
    """Run move-to-front, returning (cost, final list order).

    Each access pays the position of the requested item (one less under the
    partial cost model) and is followed by moving the item to the front.
    """
    order = list(init)
    cost = 0
    for item in seq:
        try:
            pos = order.index(item)
        except ValueError:
            raise ValueError(f"requested item {item} not in list") from None
        cost += pos + 1 if model is CostModel.FULL else pos
        del order[pos]
        order.insert(0, item)
    return cost, order


def _serve(states: dict[tuple[int, ...], int], item: int) -> dict[tuple[int, ...], int]:
    """Serve ``item`` from every order, reinserting it for free at any
    position up to where it was; the cheapest cost of each new order."""
    nxt: dict[tuple[int, ...], int] = {}
    for order, cost in states.items():
        pos = order.index(item)  # 0-based
        served = cost + pos + 1
        rest = order[:pos] + order[pos + 1 :]
        for dest in range(pos + 1):
            new_order = rest[:dest] + (item,) + rest[dest:]
            if served < nxt.get(new_order, served + 1):
                nxt[new_order] = served
    return nxt


def opt_free_cost(
    seq: Sequence[int],
    init: Sequence[int],
    max_ell: int = 6,
    max_len: int = 20,
) -> int:
    """Minimum full cost over all free-exchange strategies.

    After accessing the item at position i, the strategy may reinsert it at
    any position <= i for free.  Exact dynamic programming over list
    permutations; the budget guards the ell! * len(seq) state space.
    """
    ell = len(init)
    if ell > max_ell or len(seq) > max_len:
        raise BudgetExceeded(f"opt_free_cost budget is ell<={max_ell}, len<={max_len}")
    missing = set(seq) - set(init)
    if missing:
        raise ValueError(f"requested items {sorted(missing)} not in list")
    states: dict[tuple[int, ...], int] = {tuple(init): 0}
    for item in seq:
        states = _serve(states, item)
    return min(states.values())


def _adjacent_swaps(order: tuple[int, ...]) -> list[tuple[int, ...]]:
    out = []
    for i in range(len(order) - 1):
        swapped = list(order)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        out.append(tuple(swapped))
    return out


def _paid_closure(states: dict[tuple[int, ...], int]) -> dict[tuple[int, ...], int]:
    """Extend costs to all permutations reachable by paid adjacent swaps."""
    dist = dict(states)
    heap = [(c, order) for order, c in states.items()]
    heapq.heapify(heap)
    while heap:
        c, order = heapq.heappop(heap)
        if c > dist.get(order, c):
            continue
        for nb in _adjacent_swaps(order):
            nc = c + 1
            if nc < dist.get(nb, nc + 1):
                dist[nb] = nc
                heapq.heappush(heap, (nc, nb))
    return dist


def opt_paid_cost(seq: Sequence[int], init: Sequence[int], max_ell: int = 5) -> int:
    """Minimum full cost when paid adjacent exchanges are also allowed.

    On top of the free relocation of each accessed item, any two adjacent
    items may be exchanged for cost 1 at any time.  Layered shortest path
    over permutations, so restricted to small lists.
    """
    ell = len(init)
    if ell > max_ell:
        raise BudgetExceeded(f"opt_paid_cost budget is ell<={max_ell}")
    missing = set(seq) - set(init)
    if missing:
        raise ValueError(f"requested items {sorted(missing)} not in list")
    states: dict[tuple[int, ...], int] = {tuple(init): 0}
    for item in seq:
        states = _paid_closure(states)
        states = _serve(states, item)
    return min(states.values())
