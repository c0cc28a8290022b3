"""The oracle cross-checks that ``sandwichlab selftest`` runs, and the
case generators the tests share with them: ``frontrun_case`` with its
one maximality predicate, ``detection_case`` for the greedy matcher
against the exhaustive one, ``replay_by_swaps``, the reference of
``replay_timeline``, and ``rate_case`` with ``printing_step`` for the
certified ``params`` digits against the exact ones. Only the package
and the standard library are used, so an installed package checks
itself without the tests."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import amm, attack, detector
from .amm import Direction

DIRECTIONS = (Direction.X_FOR_Y, Direction.Y_FOR_X)


def make_timeline(
    pool: amm.Pool, victim_in: int, tolerance: Fraction, noise=(), direction=Direction.X_FOR_Y
) -> attack.PoolTimeline:
    """A victim swap on pool whose min_out is frozen at its quote less
    tolerance, behind the given noise swaps."""
    min_out = amm.min_out_from_tolerance(amm.quote_output(pool, direction, victim_in), tolerance)
    victim = amm.SwapRequest(direction, victim_in, min_out)
    return attack.PoolTimeline(pool, tuple(noise), victim)


@dataclass(frozen=True, slots=True)
class FrontrunCase:
    """A leaked victim swap and the theta to size a front-run against it
    at. Sizing sees only the snapshot; the noise is for the replay."""

    timeline: attack.PoolTimeline
    theta: Fraction

    def floor(self) -> int:
        """The least victim output a front-run may leave: ceil(quote -
        (quote - min_out) * theta), at least 1; 0 when the quote leaves
        no buffer above min_out, so that no front-run fits."""
        victim = self.timeline.victim
        quote = amm.quote_output(self.timeline.pool, victim.direction, victim.amount_in)
        if quote <= victim.min_out:
            return 0
        return max(math.ceil(quote - (quote - victim.min_out) * self.theta), 1)

    def is_maximal(self, frontrun_in: int) -> bool:
        """The victim keeps floor() after frontrun_in but not after
        frontrun_in + 1; with no buffer, frontrun_in is 0."""
        floor, pool, victim = self.floor(), self.timeline.pool, self.timeline.victim
        if not floor:
            return frontrun_in == 0
        fits, over = (
            amm.victim_output_after_frontrun(pool, victim.direction, a, victim.amount_in)
            for a in (frontrun_in, frontrun_in + 1)
        )
        return fits >= floor > over


def frontrun_case(rng: random.Random) -> FrontrunCase:
    """Reserves in [1e3, 1e18), a fee of 0, 5, 30 or 100 bp, a victim in
    either direction of 0.1%-5% of its input reserve (one in four of
    under 100 units, which often leaves no buffer above min_out), a
    0.1%-5% tolerance, up to three noise swaps of under 2% of that
    reserve, and theta 1/2, 3/4 or 1."""
    reserves = rng.randrange(10**3, 10**18), rng.randrange(10**3, 10**18)
    pool = amm.Pool("X", "Y", *reserves, Fraction(rng.choice((0, 5, 30, 100)), 10_000))
    direction = rng.choice(DIRECTIONS)
    reserve_in = pool.reserves(direction)[0]
    if rng.randrange(4):
        victim_in = max(1, reserve_in * rng.randrange(10, 500) // 10_000)
    else:
        victim_in = rng.randrange(1, 100)
    tolerance = Fraction(rng.randrange(10, 500), 10_000)
    noise = [
        (rng.choice(DIRECTIONS), rng.randrange(1, reserve_in // 50))
        for _ in range(rng.randrange(4))
    ]
    theta = rng.choice((Fraction(1, 2), Fraction(3, 4), Fraction(1)))
    return FrontrunCase(make_timeline(pool, victim_in, tolerance, noise, direction), theta)


def detection_case(rng: random.Random, n_logs: int, dense: bool = False):
    """A one-pool record and its logs_by_pool: the victim at (block 50,
    log 199) and n_logs swaps in blocks 46-57 at distinct positions below
    log 199, with block-aligned timestamps, one of three recipients and
    amounts of 80-129 units, so that most fronts have a back in the
    default band. The source commit is at block 46's timestamp. With
    dense, for hundreds of logs: amounts of 95-105 units and two
    recipients, so that the bands overlap, many fronts compete for each
    back and many fronts pass over free in-band backs for a later one
    that pays their recipient."""
    pool = "0x" + "11" * 20
    amount_range, recipients = ((95, 106), 2) if dense else ((80, 130), 3)

    def log(tx_hash, block, log_index, direction, amounts, recipient, gas_price):
        timestamp = float(block * 3)
        return detector.SwapLog(
            tx_hash, block, log_index, pool, 56, direction, *amounts, recipient, recipient,
            gas_price, timestamp,
        )

    logs, positions = [], set()
    for i in range(n_logs):
        while (position := (50 + rng.randrange(-4, 8), rng.randrange(199))) in positions:
            pass
        positions.add(position)
        direction = rng.choice(DIRECTIONS)
        amounts = rng.randrange(*amount_range), rng.randrange(*amount_range)
        recipient = "0x" + f"{rng.randrange(recipients):02x}" * 20
        gas_price = rng.randrange(10**10)
        logs.append(log(f"0x{i:064x}", *position, direction, amounts, recipient, gas_price))
    amounts = rng.randrange(*amount_range), rng.randrange(*amount_range)
    victim = log("0x" + "ff" * 32, 50, 199, Direction.X_FOR_Y, amounts, "0x" + "22" * 20, 10**9)
    logs.append(victim)
    logs.sort(key=detector.SwapLog.position)
    hop = detector.VictimHop(pool, "WETH", "USDT", victim.direction, *amounts, min_return=0)
    record = detector.CrossChainTx(
        record_id="r0", src_tx_hash="0x" + "01" * 32, src_chain_id=1, src_block_number=1,
        src_timestamp=float(46 * 3), dst_tx_hash=victim.tx_hash, dst_chain_id=56,
        dst_block_number=50, dst_timestamp=victim.timestamp, dst_gas_price=victim.gas_price,
        hops=(hop,),
    )
    return record, {pool: logs}


def replay_by_swaps(timeline: attack.PoolTimeline, frontrun_in: int) -> tuple[bool, int]:
    """replay_timeline as the same swaps applied one by one with
    execute_swap on validated pools: front-run, noise, victim (which may
    revert), back-run. Returns (victim_executed, backrun_out)."""
    direction = timeline.victim.direction
    state, frontrun_out = timeline.pool, 0
    if frontrun_in:
        front = amm.execute_swap(state, amm.SwapRequest(direction, frontrun_in))
        state, frontrun_out = front.pool_after, front.amount_out
    for noise_direction, amount in timeline.noisy_swaps:
        state = amm.execute_swap(state, amm.SwapRequest(noise_direction, amount)).pool_after
    victim = amm.execute_swap(state, timeline.victim)
    backrun_out = 0
    if frontrun_out:
        back = amm.SwapRequest(direction.opposite(), frontrun_out)
        backrun_out = amm.execute_swap(victim.pool_after, back).amount_out
    return not victim.reverted, backrun_out


def check_frontrun(rng: random.Random, trials: int) -> bool:
    cases = (frontrun_case(rng) for _ in range(trials))
    size = attack.optimal_frontrun_for_timeline
    return all(case.is_maximal(size(case.timeline, case.theta)) for case in cases)


def check_detector(rng: random.Random, trials: int) -> bool:
    """One trial in 30 is a dense corpus of 200-399 logs."""
    cfg, found = detector.DetectionConfig(), 0
    for trial in range(trials):
        if trial % 30:
            record, logs = detection_case(rng, rng.randrange(2, 40))
        else:
            record, logs = detection_case(rng, rng.randrange(200, 400), dense=True)
        pairs = detector.detect_pairs(record, logs, cfg)
        if pairs != detector.reference_detect_pairs(record, logs, cfg):
            return False
        found += len(pairs)
    return found > 0  # corpora without a pair would compare empty lists only


def check_replay(rng: random.Random, trials: int) -> bool:
    """With no front-run, the solver's and an oversized one."""
    for _ in range(trials):
        case = frontrun_case(rng)
        timeline = case.timeline
        best = attack.optimal_frontrun_for_timeline(timeline, case.theta)
        reserve_in = timeline.pool.reserves(timeline.victim.direction)[0]
        for frontrun_in in (0, best, best + rng.randrange(1, reserve_in // 20)):
            expected = replay_by_swaps(timeline, frontrun_in)
            if attack.replay_timeline(timeline, frontrun_in) != expected:
                return False
    return True


def printing_step(j: int) -> Fraction:
    """The exact rate at which attack.percent_text steps from one text
    to the next near (j + 1/2) / 10**6: the midpoint of the two adjacent
    floats that print apart there. Rates just above it print the upper
    text and rates just below it the lower one; the midpoint itself
    prints the text of the float it rounds to (ties to even)."""
    low = float(Fraction(2 * j + 1, 2 * 10**6))
    for _ in range(4):  # the text steps within a few floats of the start
        low = math.nextafter(low, -math.inf)
    while attack.percent_text(low) == attack.percent_text(high := math.nextafter(low, math.inf)):
        low = high
    return (Fraction(low) + Fraction(high)) / 2


def rate_case(rng: random.Random) -> tuple[list[Fraction], Fraction, attack.NoiseParams]:
    """Profit rates, a percentile and (q, p) for return_rate_texts; p is
    None (with q = 1) in one case in four. In one case in eight the
    rates are copies of one value that puts E(r) on a printing_step
    while the bounds of r+ and r- each print one text. Otherwise they
    are one to three groups, each one of: random fractions of either
    sign; copies of a printing_step, or of a value 2**-200 to either
    side of it, whose bounds print two texts; copies of the midpoint of
    two adjacent floats; copies of a tiny negative rate, which prints
    -0.0000 where its upper bound prints 0.0000; zeros."""
    params = attack.NoiseParams(Fraction(1), None)
    if rng.randrange(4):
        params = attack.NoiseParams(*(Fraction(rng.randrange(101), 100) for _ in range(2)))
    percentile = rng.choice((Fraction(50), Fraction(95), Fraction(333, 4), Fraction(100)))
    win, j = attack.success_probability(params), rng.randrange(-10**6, 10**6)
    # E(r) is win * r+ with no losses, (1 - win) * r- with no gains
    weight = win if j >= 0 else 1 - win
    if weight and not rng.randrange(8):
        return [printing_step(j) / weight] * rng.randrange(1, 6), percentile, params
    rates = []
    for _ in range(rng.randrange(1, 4)):
        kind, copies = rng.randrange(5), rng.randrange(1, 6)
        if kind == 0:
            rates += [Fraction(rng.randrange(-10**12, 10**12), 10**12) for _ in range(copies)]
        elif kind == 1:
            offset = Fraction(rng.choice((-1, 0, 1)), 2**200)
            rates += [printing_step(rng.randrange(-10**6, 10**6)) + offset] * copies
        elif kind == 2:
            low = rng.uniform(-1, 1)
            rates += [(Fraction(low) + Fraction(math.nextafter(low, math.inf))) / 2] * copies
        elif kind == 3:
            rates += [-Fraction(1, 2 ** rng.randrange(1000, 1100))] * copies
        else:
            rates += [Fraction(0)] * copies
    return rates, percentile, params


def check_rate_texts(rng: random.Random, trials: int) -> bool:
    """Some class's bounds must print two texts in at least one trial,
    so that the exact fallback is compared too."""
    straddled = 0
    for _ in range(trials):
        rates, percentile, params = rate_case(rng)
        exact = attack.estimate_return_rates(rates, percentile)
        figures = exact.r_plus, exact.r_minus, attack.expected_profit(1, params, exact)
        expected = tuple(map(attack.percent_text, figures))
        if attack.return_rate_texts(rates, percentile, params) != expected:
            return False
        for kept in attack._trimmed_classes(rates, percentile):
            straddled += len(set(map(attack.percent_text, attack._mean_bounds(kept)))) > 1
    return straddled > 0


def main() -> int:
    """Run each check on one seeded generator, print PASS or FAIL for
    each, and return 1 if any failed."""
    rng = random.Random(20_240_817)
    failed = 0
    for name, check, trials in (
        ("front-run solver maximality", check_frontrun, 60),
        ("detector fast == reference", check_detector, 120),
        ("timeline replay == swap-by-swap execution", check_replay, 60),
        ("certified params digits == exact", check_rate_texts, 200),
    ):
        ok = check(rng, trials)
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failed += not ok
    return 1 if failed else 0
