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
from typing import Optional, Sequence

OPT_READS_PER_INPUT = 2


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

    ``forcing`` picks the worst target for the processes' first-read map
    (the read-forcing case analysis); ``fixed`` always picks ``target``;
    ``adaptive`` may inspect all state and coin outcomes so far and picks
    the worst target (ties resolved to the lowest id).
    """

    kind: str = "adaptive"
    target: int = 0

    def __post_init__(self):
        if self.kind not in ("forcing", "fixed", "adaptive"):
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

    def settle(self, limit: int = 50):
        for _ in range(limit):
            if self.quiescent():
                return
            self.tick()
        raise RuntimeError("engine failed to quiesce")


def _play_one_input(target: int, number: int,
                    first_read: dict[int, tuple[int, int]],
                    engine: _Engine) -> int:
    """Deliver one input and run to quiescence; returns reads it cost."""
    before = sum(p.reads for p in engine.procs)
    engine.deliver(target, number, first_read)
    engine.tick()
    engine.settle()
    engine.tick()  # the idle round the adversary waits out
    return sum(p.reads for p in engine.procs) - before


def _deterministic_first_reads(target: int,
                               f: Sequence[int]) -> dict[int, tuple[int, int]]:
    return {pid: (0, f[pid]) for pid in _others(target)}


def _play_deterministic(inputs: Sequence[int], policy: AdversaryPolicy) -> _Engine:
    """Play the neighbour-first deterministic protocol on every input."""
    f = [(i + 1) % 3 for i in range(3)]
    engine = _Engine()
    for k, number in enumerate(inputs):
        if policy.kind == "fixed":
            target = policy.target
        elif policy.kind == "adaptive":
            target = k % 3  # all targets cost the same here
        else:
            target = _forcing_target(f)
        _play_one_input(
            target, number, _deterministic_first_reads(target, f), engine
        )
    return engine


def run_deterministic(
    inputs: Sequence[int], policy: AdversaryPolicy = AdversaryPolicy()
) -> tuple[int, int]:
    """Simulate the neighbour-first deterministic protocol.

    Returns (total reads, clairvoyant reads); the former is exactly three
    per input no matter what the adversary does.
    """
    engine = _play_deterministic(inputs, policy)
    return sum(p.reads for p in engine.procs), OPT_READS_PER_INPUT * len(inputs)


def registers_after_deterministic(inputs: Sequence[int],
                                  policy: AdversaryPolicy = AdversaryPolicy()):
    """Final register contents of a deterministic run (for safety checks)."""
    return list(_play_deterministic(inputs, policy).regs)


def _forcing_target(f: Sequence[int]) -> int:
    """The input target that forces extra reads for first-read map f."""
    for i in range(3):
        for j in range(i + 1, 3):
            if f[i] == f[j]:
                k = f[i]
                # give the input to whichever of i, j the register owner
                # does not read first
                return j if f[k] == i else i
    # all first-read targets distinct: catch a reader out with its neighbour
    k = 0
    return (k - 1) % 3


def lower_bound_adversary(first_reads: Sequence[int]) -> int:
    """Reads forced on one input for a first-read map with the canonical
    continuation (read the named register on notification, then the other
    register one round later on a miss)."""
    f = list(first_reads)
    if len(f) != 3 or any(f[i] == i or not 0 <= f[i] <= 2 for i in range(3)):
        raise ValueError("first-read map must name another process per process")
    target = _forcing_target(f)
    engine = _Engine()
    return _play_one_input(target, 1, _deterministic_first_reads(target, f), engine)


def _randomized_first_reads(target: int, delay_bits: dict[int, int],
                            target_bits: dict[int, int]) -> dict[int, tuple[int, int]]:
    out = {}
    for pid in _others(target):
        choices = _others(pid)
        out[pid] = (2 * delay_bits[pid], choices[target_bits[pid]])
    return out


def _randomized_one_input_reads(target: int, bits: tuple[int, int, int, int]) -> int:
    """Reads for one input under the randomized protocol with fixed coins.

    ``bits`` are (delay, target) for the lower-id notified process, then
    (delay, target) for the higher-id one.
    """
    lo, hi = _others(target)
    first = _randomized_first_reads(
        target,
        {lo: bits[0], hi: bits[2]},
        {lo: bits[1], hi: bits[3]},
    )
    engine = _Engine()
    return _play_one_input(target, 1, first, engine)


def exact_expected_reads(n: int, policy: AdversaryPolicy = AdversaryPolicy()) -> Fraction:
    """Exact expected reads for n inputs, maximizing over the adversary's
    target choice input by input (the protocol restarts from a symmetric
    quiescent state each time, so inputs contribute independently)."""
    if n < 1:
        raise ValueError("need at least one input")
    targets = [policy.target] if policy.kind == "fixed" else [0, 1, 2]
    per_target = []
    for target in targets:
        total = Fraction(0)
        for bits in product((0, 1), repeat=4):
            total += _randomized_one_input_reads(target, bits)
        per_target.append(Fraction(total, 16))
    return n * max(per_target)


EXACT = "exact"


def run_randomized(
    inputs: Sequence[int],
    policy: AdversaryPolicy = AdversaryPolicy(),
    tape: CoinTape | str | None = None,
):
    """Randomized protocol: one tape-driven run, or the exact expectation.

    With a CoinTape, simulates that run and returns the read count; with
    ``EXACT`` (or None), returns the exact expected reads as a Fraction.
    """
    if tape is None or tape == EXACT:
        return exact_expected_reads(len(inputs), policy)
    engine = _Engine()
    total = 0
    for k, number in enumerate(inputs):
        if policy.kind == "fixed":
            target = policy.target
        else:
            # every target is equally bad for the restarted protocol; the
            # adaptive adversary resolves the tie deterministically
            target = k % 3
        lo, hi = _others(target)
        bits = (tape.draw(), tape.draw(), tape.draw(), tape.draw())
        first = _randomized_first_reads(
            target, {lo: bits[0], hi: bits[2]}, {lo: bits[1], hi: bits[3]}
        )
        total += _play_one_input(target, number, first, engine)
    return total


def monte_carlo_expected_reads(
    n_tapes: int, seed: int, policy: AdversaryPolicy = AdversaryPolicy()
) -> Fraction:
    """Average single-input reads over sampled tapes.

    The protocol is a deterministic function of the four coin bits, so each
    distinct outcome is simulated once and sampled from a table.
    """
    target = policy.target if policy.kind == "fixed" else 0
    table = {
        bits: _randomized_one_input_reads(target, bits)
        for bits in product((0, 1), repeat=4)
    }
    rng = random.Random(seed)
    total = 0
    for _ in range(n_tapes):
        bits = (rng.randint(0, 1), rng.randint(0, 1),
                rng.randint(0, 1), rng.randint(0, 1))
        total += table[bits]
    return Fraction(total, n_tapes)
