"""The benchmark's own arithmetic: self time over nested spans and the naive
references, against values worked out by hand.

Run with ``python3 -m pytest bench/test_bench.py``.
"""

from fractions import Fraction

import reference
from spans import Span, Tracer, covered, self_times


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0, 10) == 0
    assert covered([(1, 3), (5, 6)], 0, 10) == 3
    assert covered([(1, 4), (2, 6), (3, 5)], 0, 10) == 5
    assert covered([(-2, 1), (9, 12)], 0, 10) == 2
    assert covered([(4, 5), (1, 2), (1.5, 2.5)], 0, 10) == 2.5


def test_self_time_over_nested_and_overlapping_spans():
    spans = [
        Span(0, "root", 0.0, 10.0, None, "w"),
        Span(1, "a", 1.0, 4.0, 0, "w"),   # two children that overlap,
        Span(2, "b", 3.0, 6.0, 0, "w"),   # as worker threads' spans do
        Span(3, "a.inner", 2.0, 3.0, 1, "w"),
        Span(4, "b.inner", 3.5, 4.0, 2, "w"),
        Span(5, "b.inner", 5.0, 5.5, 2, "w"),
        Span(6, "other", 20.0, 21.0, None, "w"),
    ]
    got = self_times(spans)
    assert got == {0: 5.0, 1: 2.0, 2: 2.0, 3: 1.0, 4: 0.5, 5: 0.5, 6: 1.0}


def test_tracer_parents_follow_open_spans():
    tr = Tracer()
    with tr.span("outer", "w") as outer:
        with tr.span("inner", "w") as inner:
            inner.n = 7
        with tr.span("given", "w", parent=inner.span.id):
            pass
    outer_span, inner_span, given_span = tr.spans
    assert outer_span.parent is None
    assert inner_span.parent == outer_span.id
    assert given_span.parent == inner_span.id
    assert inner_span.n == 7 and outer.n == 0
    assert outer_span.start <= inner_span.start <= inner_span.end <= outer_span.end


def test_naive_distance_matches_hand_computed_profiles():
    # (sequence, ell, profile): a first request costs ell; a repeat costs
    # the distinct items requested from its previous occurrence onwards
    cases = [
        ((1, 1, 1), 2, (2, 1, 1)),
        ((1, 2, 2, 1), 2, (2, 2, 1, 2)),
        ((1, 2, 1, 3, 2, 1), 3, (3, 3, 2, 3, 3, 3)),
        ((3, 2, 1, 1, 2, 3), 5, (5, 5, 5, 1, 2, 3)),
    ]
    for seq, ell, profile in cases:
        got = tuple(reference.naive_distance(seq, j, ell)
                    for j in range(1, len(seq) + 1))
        assert got == profile, seq
        assert reference.naive_total(seq, ell) == sum(profile)


def test_reference_costs_and_closed_forms():
    assert reference.mtf_cost((2, 2, 1), (1, 2)) == 2 + 1 + 2
    # accessing the rear item twice: moving it up saves one unit
    assert reference.brute_free_cost((2, 2), (1, 2)) == 3
    assert reference.brute_free_cost((1, 1), (1, 2)) == 2
    assert reference.ratio_limit(3, 9) == 6
    assert reference.ratio_limit(2, 8) == Fraction(26, 7)


def test_protocol_counts_classify_cas_by_cell():
    events = [
        {"type": "invoke", "pid": 1, "op": 0, "item": 2},
        {"type": "access", "pid": 1, "kind": "read", "cell": ["head"],
         "value": [0, 1]},
        {"type": "access", "pid": 1, "kind": "cas", "cell": ["head"],
         "expected": [0, 1], "new": [2, 0], "prior": [0, 1], "ok": True},
        {"type": "access", "pid": 1, "kind": "cas", "cell": ["ann", 2],
         "expected": [3, 2], "new": [2, 0], "prior": [3, 2], "ok": True},
        {"type": "access", "pid": 1, "kind": "cas", "cell": ["ann", 1],
         "expected": [3, 2], "new": [2, 0], "prior": [3, 2], "ok": True},
        {"type": "access", "pid": 1, "kind": "cas", "cell": ["ann", 1],
         "expected": [2, 0], "new": [-1, 0], "prior": [5, 2], "ok": False},
        {"type": "access", "pid": 1, "kind": "cas", "cell": ["node", 1, "next"],
         "expected": 2, "new": 3, "prior": 4, "ok": False},
        {"type": "respond", "pid": 1, "op": 0, "result": 2, "inspected": 2},
    ]
    got = reference.protocol_counts(events)
    assert got == {
        "accesses": 6, "searches": 1, "inspected": 2, "inspected_max": 2,
        "prepends": 1, "informs": 1,
        "cas_attempts_head": 1, "cas_failed_head": 0,
        "cas_attempts_ann": 3, "cas_failed_ann": 1,
        "cas_attempts_node": 1, "cas_failed_node": 1,
    }
