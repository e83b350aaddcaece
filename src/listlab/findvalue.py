"""Three-process value-propagation game on single-writer registers.

An adversary hands numbers to processes, one at a time; the other two must
learn each number by reading registers, and everyone must end up with the
full sequence in their own register.  Rounds are synchronous: each process
does nothing, writes its register, or reads one other register, and reads
observe register contents as of the end of the previous round.  The cost is
the number of register reads by the two processes chasing each input; a
clairvoyant reader needs exactly two reads per input.

The deterministic protocol reads its clockwise neighbour's register first
and falls back to the other register one round later; it spends exactly
three reads per input.  The randomized protocol flips one coin to read now
or two rounds later and another to pick which register, paying 23/8 reads
per input in expectation even against an adversary that sees everything.

The round timing below mirrors the cost case analysis exactly: an input
delivered in round r is written in round r, the other processes are
notified in round r+1, a delayed first read happens in round r+3, a miss is
followed by the complementary read in the next round, and merged news is
written out one round after it is learned.  The adversary never delivers a
new input until the system is quiescent plus one idle round.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Callable, Optional, Sequence

OPT_READS_PER_INPUT = 2
_NEIGHBOUR_FIRST = (1, 2, 0)  # each process reads its clockwise neighbour first
_SETTLE_ROUNDS = 50  # an input settles within a handful of rounds


class InsufficientTape(Exception):
    """The coin tape ran out before the run finished."""


@dataclass
class CoinTape:
    """Bit outcomes for the two coins flipped per notification.

    Per input, the two notified processes consume, in ascending process id:
    a delay bit (1 = postpone the first read by two rounds) and a target bit
    (index into the other two processes, ascending).
    """

    bits: tuple[int, ...]
    pos: int = 0

    def draw(self) -> int:
        if self.pos >= len(self.bits):
            raise InsufficientTape(f"tape exhausted after {self.pos} bits")
        bit = self.bits[self.pos]
        self.pos += 1
        return bit

    @staticmethod
    def from_hex(text: str, nbits: Optional[int] = None) -> "CoinTape":
        raw = bytes.fromhex(text)
        bits = [(byte >> k) & 1 for byte in raw for k in range(8)]
        if nbits is not None:
            bits = bits[:nbits]
        return CoinTape(tuple(bits))

    @staticmethod
    def from_seed(seed: int, nbits: int) -> "CoinTape":
        rng = random.Random(seed)
        return CoinTape(tuple(rng.randint(0, 1) for _ in range(nbits)))


@dataclass(frozen=True)
class AdversaryPolicy:
    """Who receives each input.

    ``fixed`` always picks ``target``; ``adaptive`` may inspect all state
    and coin outcomes so far, but every target costs the same (see
    ``_target``), so it rotates: input k goes to process k % 3.
    """

    kind: str = "adaptive"
    target: int = 0

    def __post_init__(self):
        if self.kind not in ("fixed", "adaptive"):
            raise ValueError(f"unknown adversary kind {self.kind!r}")
        if not 0 <= self.target <= 2:
            raise ValueError("target must be a process id 0..2")


def _others(i: int) -> tuple[int, int]:
    return tuple(sorted({0, 1, 2} - {i}))


@dataclass
class _Proc:
    """One process: its learned list, and its scheduled future actions."""

    pid: int
    learned: list[tuple[int, int]] = field(default_factory=list)
    known: int = 0  # inputs it knows exist (own receipts + notifications)
    # scheduled actions: round -> ("read", target) | ("write",)
    plan: dict[int, tuple] = field(default_factory=dict)
    reads: int = 0

    def merge(self, pairs: Sequence[tuple[int, int]]):
        if len(pairs) > len(self.learned):
            self.learned.extend(pairs[len(self.learned):])

    def complete(self) -> bool:
        return len(self.learned) == self.known


class _Engine:
    """Synchronous-round simulator shared by all protocol variants."""

    def __init__(self):
        self.procs = [_Proc(i) for i in range(3)]
        self.regs: list[tuple[tuple[int, int], ...]] = [(), (), ()]
        self.round = 0

    def quiescent(self) -> bool:
        return all(p.complete() and not p.plan for p in self.procs)

    def deliver(self, target: int, number: int,
                first_read: dict[int, tuple[int, int]]):
        """Give ``number`` to ``target`` this round and notify the others
        next round.  ``first_read`` maps each other pid to (read round
        offset from notification, register to read first)."""
        tgt = self.procs[target]
        tgt.known += 1
        tgt.learned.append((target, number))
        tgt.plan[self.round] = ("write",)
        for pid in _others(target):
            proc = self.procs[pid]
            proc.known += 1
            delay, reg = first_read[pid]
            proc.plan[self.round + 1 + delay] = ("read", reg, "first")

    def tick(self):
        snapshot = list(self.regs)
        writes: dict[int, tuple] = {}
        for proc in self.procs:
            action = proc.plan.pop(self.round, None)
            if action is None:
                continue
            if action[0] == "write":
                writes[proc.pid] = tuple(proc.learned)
                continue
            _, reg, which = action
            proc.reads += 1
            proc.merge(snapshot[reg])
            if proc.complete():
                proc.plan[self.round + 1] = ("write",)
            elif which == "first":
                other = next(
                    o for o in _others(proc.pid) if o != reg
                )
                proc.plan[self.round + 1] = ("read", other, "second")
            # a second read always completes: the source register holds all
        for pid, value in writes.items():
            self.regs[pid] = value
        self.round += 1

    def settle(self):
        for _ in range(_SETTLE_ROUNDS):
            if self.quiescent():
                return
            self.tick()
        raise RuntimeError("engine failed to quiesce")


def _target(policy: AdversaryPolicy, k: int) -> int:
    """Who receives input ``k``.  Every target costs the same for a protocol
    that restarts from a symmetric quiescent state, so the adaptive
    adversary breaks the tie by rotating."""
    return policy.target if policy.kind == "fixed" else k % 3


def _play(inputs: Sequence[int], policy: AdversaryPolicy,
          first_reads: Callable[[int], dict[int, tuple[int, int]]]
          ) -> tuple[_Engine, int]:
    """Deliver each input and run to quiescence plus the idle round the
    adversary waits out; returns the engine and the reads spent."""
    engine = _Engine()
    for k, number in enumerate(inputs):
        target = _target(policy, k)
        engine.deliver(target, number, first_reads(target))
        engine.tick()
        engine.settle()
        engine.tick()
    return engine, sum(p.reads for p in engine.procs)


def _deterministic_first_reads(target: int, f: Sequence[int] = _NEIGHBOUR_FIRST
                               ) -> dict[int, tuple[int, int]]:
    return {pid: (0, f[pid]) for pid in _others(target)}


def run_deterministic(
    inputs: Sequence[int], policy: AdversaryPolicy = AdversaryPolicy()
) -> tuple[int, int]:
    """Simulate the neighbour-first deterministic protocol.

    Returns (total reads, clairvoyant reads); the former is exactly three
    per input no matter what the adversary does.
    """
    _, reads = _play(inputs, policy, _deterministic_first_reads)
    return reads, OPT_READS_PER_INPUT * len(inputs)


def registers_after_deterministic(inputs: Sequence[int],
                                  policy: AdversaryPolicy = AdversaryPolicy()):
    """Final register contents of a deterministic run (for safety checks)."""
    engine, _ = _play(inputs, policy, _deterministic_first_reads)
    return list(engine.regs)


def lower_bound_adversary(first_reads: Sequence[int]) -> int:
    """Reads forced on one input for a first-read map with the canonical
    continuation (read the named register on notification, then the other
    register one round later on a miss): the most any target costs."""
    f = list(first_reads)
    if len(f) != 3 or any(f[i] == i or not 0 <= f[i] <= 2 for i in range(3)):
        raise ValueError("first-read map must name another process per process")
    return max(
        _play([1], AdversaryPolicy("fixed", target),
              lambda t: _deterministic_first_reads(t, f))[1]
        for target in range(3)
    )


def _randomized_first_reads(target: int, bits: Sequence[int]
                            ) -> dict[int, tuple[int, int]]:
    """First reads for one input from its four coin bits: (delay, target)
    for the lower-id notified process, then for the higher-id one."""
    lo, hi = _others(target)
    return {
        lo: (2 * bits[0], _others(lo)[bits[1]]),
        hi: (2 * bits[2], _others(hi)[bits[3]]),
    }


def _reads_table(target: int) -> dict[tuple[int, ...], int]:
    """Reads for one input to ``target`` under the randomized protocol, for
    each of the 16 coin outcomes."""
    policy = AdversaryPolicy("fixed", target)
    return {
        bits: _play([1], policy, lambda t: _randomized_first_reads(t, bits))[1]
        for bits in product((0, 1), repeat=4)
    }


def exact_expected_reads(n: int, policy: AdversaryPolicy = AdversaryPolicy()) -> Fraction:
    """Exact expected reads for n inputs, maximizing over the adversary's
    target choice input by input (the protocol restarts from a symmetric
    quiescent state each time, so inputs contribute independently)."""
    if n < 1:
        raise ValueError("need at least one input")
    targets = [policy.target] if policy.kind == "fixed" else [0, 1, 2]
    return n * max(Fraction(sum(_reads_table(t).values()), 16) for t in targets)


def run_randomized(
    inputs: Sequence[int],
    policy: AdversaryPolicy = AdversaryPolicy(),
    tape: Optional[CoinTape] = None,
) -> int:
    """Simulate the randomized protocol on one coin tape; returns the reads.

    Each input draws four bits from the tape (see CoinTape).
    """
    if not isinstance(tape, CoinTape):
        raise TypeError("run_randomized needs a CoinTape")

    def first_reads(target: int) -> dict[int, tuple[int, int]]:
        return _randomized_first_reads(target, [tape.draw() for _ in range(4)])

    return _play(inputs, policy, first_reads)[1]


def monte_carlo_expected_reads(
    n_tapes: int, seed: int, policy: AdversaryPolicy = AdversaryPolicy()
) -> Fraction:
    """Average single-input reads over sampled tapes.

    The protocol is a deterministic function of the four coin bits, so each
    distinct outcome is simulated once and sampled from a table.
    """
    table = _reads_table(policy.target if policy.kind == "fixed" else 0)
    rng = random.Random(seed)
    total = 0
    for _ in range(n_tapes):
        bits = (rng.randint(0, 1), rng.randint(0, 1),
                rng.randint(0, 1), rng.randint(0, 1))
        total += table[bits]
    return Fraction(total, n_tapes)
