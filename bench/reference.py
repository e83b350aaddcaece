"""Reference computations the benchmark checks listlab against.

Nothing here imports listlab: each function restates a definition from the
paper directly and slowly, so that a fast path in the program that drifts
from the definition shows up as a failed check.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

# expected reads per input of the randomized register game
READS_PER_INPUT = Fraction(23, 8)


def naive_distance(seq: Sequence[int], j: int, ell: int) -> int:
    """Distance of request j (1-based): the number of distinct items requested
    at indices prev..j-1, where prev is the previous request to seq[j];
    ``ell`` for a first request."""
    target = seq[j - 1]
    between = set()
    for k in range(j - 2, -1, -1):
        between.add(seq[k])
        if seq[k] == target:
            return len(between)
    return ell


def naive_total(seq: Sequence[int], ell: int) -> int:
    return sum(naive_distance(seq, j, ell) for j in range(1, len(seq) + 1))


def mtf_cost(seq: Sequence[int], init: Sequence[int]) -> int:
    """Full cost of move-to-front: each access pays the item's 1-based
    position, then the item moves to the front."""
    order = list(init)
    cost = 0
    for item in seq:
        pos = order.index(item)
        cost += pos + 1
        order.insert(0, order.pop(pos))
    return cost


def brute_free_cost(seq: Sequence[int], init: Sequence[int]) -> int:
    """Offline optimum with free exchanges only, by trying every strategy.

    After each access at position i the accessed item may be reinserted at
    any of positions 1..i.  Exponential; for tiny instances only.
    """
    best = None
    stack = [(tuple(init), 0, 0)]
    while stack:
        order, k, cost = stack.pop()
        if k == len(seq):
            best = cost if best is None else min(best, cost)
            continue
        pos = order.index(seq[k])
        rest = order[:pos] + order[pos + 1:]
        for dest in range(pos + 1):
            stack.append(
                (rest[:dest] + (seq[k],) + rest[dest:], k + 1, cost + pos + 1)
            )
    return best


def ratio_limit(p: int, ell: int) -> Fraction:
    """Limit of the worst-case merge ratio: average distance of the
    high-distance merge, ((2p-1)ell + p) / 2p, over that of the
    low-distance merge, (ell + 2p^2 - p) / 2p^2."""
    hi = Fraction((2 * p - 1) * ell + p, 2 * p)
    lo = Fraction(ell + 2 * p * p - p, 2 * p * p)
    return hi / lo


def protocol_counts(events: list[dict]) -> dict[str, int]:
    """Counts of the search protocol's shared-memory work, from an access log.

    CAS attempts and failures per cell class (head, announcement, node),
    prepends (successful head CAS), successful informs (a CAS on another
    process's announcement that hands it a node: new value (handle, no
    item)), completed searches, and the nodes they inspected.
    """
    out = {"accesses": 0, "searches": 0, "inspected": 0, "inspected_max": 0,
           "prepends": 0, "informs": 0}
    for cls in ("head", "ann", "node"):
        out[f"cas_attempts_{cls}"] = 0
        out[f"cas_failed_{cls}"] = 0
    for ev in events:
        kind = ev["type"]
        if kind == "respond":
            out["searches"] += 1
            out["inspected"] += ev["inspected"]
            out["inspected_max"] = max(out["inspected_max"], ev["inspected"])
        elif kind == "access":
            out["accesses"] += 1
            if ev["kind"] != "cas":
                continue
            cls = ev["cell"][0]
            out[f"cas_attempts_{cls}"] += 1
            if not ev["ok"]:
                out[f"cas_failed_{cls}"] += 1
            elif cls == "head":
                out["prepends"] += 1
            elif (cls == "ann" and ev["cell"][1] != ev["pid"]
                  and ev["new"][0] >= 0 and ev["new"][1] == 0):
                out["informs"] += 1
    return out
