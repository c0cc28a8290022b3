"""Cross-chain attacker decision model.

Ordering-scenario classification, the noisy-transaction black box
(replay of a pool timeline between the source-chain commit and the
victim's execution), expected profit, and empirical estimation of the
model parameters (q, p, r+, r-) from corpora.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .amm import (
    MAX_AMOUNT,
    Direction,
    Pool,
    SwapRequest,
    _check_amount,
    fee_terms,
    largest_frontrun_for_min_out,
    quote_output,
    swap_output,
)


class MalformedSequence(ValueError):
    """A transaction-label sequence violates its ordering preconditions."""


class EmptyInput(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class NoiseParams:
    """q: probability of an empty noise window; p: probability of
    non-loss given a non-empty window (None when unobservable)."""

    q: Fraction
    p: Optional[Fraction]

    def __post_init__(self) -> None:
        if not 0 <= self.q <= 1:
            raise ValueError(f"q out of [0,1]: {self.q}")
        if self.p is not None and not 0 <= self.p <= 1:
            raise ValueError(f"p out of [0,1]: {self.p}")


@dataclass(frozen=True, slots=True)
class ReturnRates:
    r_plus: Fraction
    r_minus: Fraction

    def __post_init__(self) -> None:
        if self.r_plus < 0:
            raise ValueError("r_plus must be >= 0")
        if self.r_minus > 0:
            raise ValueError("r_minus must be <= 0")


class TxLabel(enum.Enum):
    TS = "Ts"
    TA1 = "TA1"
    TA2 = "TA2"
    TV = "Tv"
    TB1 = "TB1"
    TB2 = "TB2"
    NOISE = "Noise"


class OrderingScenario(enum.Enum):
    NO_ATTACK = "no_attack"
    SINGLE_CHAIN_ONLY = "single_chain_only"
    CROSS_CHAIN_NO_BOT = "cross_chain_no_bot"
    CROSS_WINS_BACKRUN_RACE = "cross_wins_backrun_race"
    CROSS_LOSES_BACKRUN_RACE = "cross_loses_backrun_race"
    ATTACKER_SANDWICHED = "attacker_sandwiched"


@dataclass(frozen=True, slots=True)
class PoolTimeline:
    """Pool snapshot at commit time plus everything that hits the pool
    before the victim: the raw material for replaying what-if attacks.

    ``noisy_swaps`` excludes the attacker's own front-run (the
    hypothesis under test) and the victim itself.
    """

    pool: Pool
    noisy_swaps: tuple[tuple[Direction, int], ...]
    victim: SwapRequest
    victim_tolerance: Fraction

    def __post_init__(self) -> None:
        # replay_timeline applies noise unchecked, so each entry must be
        # a valid swap input here: a Direction and an int in [1, 2**256 - 1]
        for direction, amount in self.noisy_swaps:
            if type(direction) is not Direction:
                raise TypeError(f"noisy_swaps direction must be a Direction, not {direction!r}")
            if type(amount) is not int or not 0 < amount <= MAX_AMOUNT:
                _check_amount("noisy_swaps amount", amount, minimum=1)


def success_probability(params: NoiseParams) -> Fraction:
    """q + (1-q)*p: the chance the attack ends without a loss."""
    if params.p is None:
        if params.q == 1:
            return Fraction(1)
        raise EmptyInput("p is unobservable but q < 1")
    return params.q + (1 - params.q) * params.p


def expected_profit(
    frontrun_in: int, params: NoiseParams, rates: ReturnRates
) -> Fraction:
    """dx_A1 * ((q + (1-q)p) r+ + (1-q)(1-p) r-), exact."""
    win = success_probability(params)
    return frontrun_in * (win * rates.r_plus + (1 - win) * rates.r_minus)


def _positions(seq: Sequence[TxLabel], label: TxLabel) -> list[int]:
    return [i for i, item in enumerate(seq) if item is label]


def classify_ordering(seq: Sequence[TxLabel]) -> OrderingScenario:
    """Total classification of a well-formed label sequence.

    Noise labels never affect the outcome; only the relative order of
    the attacker's, the bot's, and the victim's transactions matters.
    """
    singles = {}
    for label in (TxLabel.TV, TxLabel.TA1, TxLabel.TA2, TxLabel.TB1, TxLabel.TB2):
        where = _positions(seq, label)
        if len(where) > 1:
            raise MalformedSequence(f"{label.value} appears more than once")
        singles[label] = where[0] if where else None

    ta1, ta2 = singles[TxLabel.TA1], singles[TxLabel.TA2]
    tb1, tb2 = singles[TxLabel.TB1], singles[TxLabel.TB2]
    tv = singles[TxLabel.TV]
    if ta1 is not None and ta2 is not None and ta2 < ta1:
        raise MalformedSequence("TA2 precedes TA1")
    if tb1 is not None and tb2 is not None and tb2 < tb1:
        raise MalformedSequence("TB2 precedes TB1")

    has_a = ta1 is not None or ta2 is not None
    has_b = tb1 is not None or tb2 is not None
    if not has_a and not has_b:
        return OrderingScenario.NO_ATTACK
    if not has_a:
        return OrderingScenario.SINGLE_CHAIN_ONLY
    if not has_b:
        return OrderingScenario.CROSS_CHAIN_NO_BOT
    if ta1 is not None and tb1 is not None and tb2 is not None and tb1 < ta1 < tb2:
        return OrderingScenario.ATTACKER_SANDWICHED
    if ta2 is not None and tb2 is not None:
        if ta2 < tb2:
            return OrderingScenario.CROSS_WINS_BACKRUN_RACE
        return OrderingScenario.CROSS_LOSES_BACKRUN_RACE
    if ta2 is not None:
        return OrderingScenario.CROSS_WINS_BACKRUN_RACE
    if tb2 is not None:
        return OrderingScenario.CROSS_LOSES_BACKRUN_RACE
    _ = tv  # victim position itself never changes the scenario
    return OrderingScenario.CROSS_CHAIN_NO_BOT


def replay_timeline(
    timeline: PoolTimeline, frontrun_in: int
) -> tuple[bool, int]:
    """Replay front-run, noise, victim, back-run on the snapshot.

    The victim respects its min_out (a revert leaves the pool
    untouched); the attacker back-runs unconditionally right after.
    Returns (victim_executed, backrun_out in the victim's input token).

    Every swap is swap_output on two ints, the reserves of the victim's
    input and output tokens, so each keeps its 256-bit Overflow guard.
    The timeline's amounts were checked when it was built; frontrun_in
    is checked here.
    """
    _check_amount("frontrun_in", frontrun_in)
    victim = timeline.victim
    direction = victim.direction
    reserve_in, reserve_out = timeline.pool.reserves(direction)
    g, fd = fee_terms(timeline.pool)
    frontrun_out = 0
    if frontrun_in:
        frontrun_out = swap_output(reserve_in, reserve_out, g, fd, frontrun_in)
        reserve_in += frontrun_in
        reserve_out -= frontrun_out
    for noise_direction, amount in timeline.noisy_swaps:
        # noise has no floor (min_out 0), so it never reverts
        if noise_direction is direction:
            out = swap_output(reserve_in, reserve_out, g, fd, amount)
            reserve_in += amount
            reserve_out -= out
        else:
            out = swap_output(reserve_out, reserve_in, g, fd, amount)
            reserve_out += amount
            reserve_in -= out
    victim_out = swap_output(reserve_in, reserve_out, g, fd, victim.amount_in)
    executed = victim_out >= victim.min_out
    if executed:
        reserve_in += victim.amount_in
        reserve_out -= victim_out
    recovered = 0
    if frontrun_out:
        recovered = swap_output(reserve_out, reserve_in, g, fd, frontrun_out)
    return (executed, recovered)


def frontrun_size(
    pool: Pool,
    direction: Direction,
    victim_in: int,
    min_out: int,
    theta: Fraction = Fraction(1),
) -> int:
    """The attacker's front-run against a leaked swap at extraction
    fraction theta.

    The target floor is quote - (quote - min_out) * theta, floored:
    theta = 1 aims exactly at the victim's frozen floor, theta < 1 leaves
    a fraction (1 - theta) of the quoted buffer untouched. Returns 0 when
    the quote leaves no buffer above min_out.
    """
    quote = quote_output(pool, direction, victim_in)
    if quote <= min_out:
        return 0
    floor = quote - (quote - min_out) * theta.numerator // theta.denominator
    return largest_frontrun_for_min_out(pool, direction, victim_in, floor)


def optimal_frontrun_for_timeline(
    timeline: PoolTimeline, theta: Fraction = Fraction(1)
) -> int:
    """The attacker's sizing decision at commit time: it sees only the
    snapshot, never the noise."""
    victim = timeline.victim
    return frontrun_size(
        timeline.pool, victim.direction, victim.amount_in, victim.min_out, theta
    )


def noise_params_and_rates(
    timelines: Iterable[PoolTimeline], theta: Fraction = Fraction(1)
) -> tuple[NoiseParams, list[Fraction]]:
    """Empirical (q, p) and the profit-rate samples of a corpus of pool
    timelines, sizing and replaying each timeline at most once.
    timelines is read once, in order, so it may be a stream: only the
    counts and the samples are kept. No timelines raise EmptyInput.

    q is the fraction of empty noise windows. p is measured over the
    non-empty windows by replaying the attacker's optimal front-run:
    non-loss means the victim executed and the back-run recovered at
    least the front-run input (ties count as non-loss). Every timeline
    the attacker front-runs at theta yields one rate sample,
    (back-run out - front-run in) / front-run in, in corpus order.
    """
    count = noisy = non_loss = 0
    rates = []
    for timeline in timelines:
        count += 1
        frontrun_in = optimal_frontrun_for_timeline(timeline, theta)
        if not (timeline.noisy_swaps or frontrun_in):
            continue
        executed, recovered = replay_timeline(timeline, frontrun_in)
        if timeline.noisy_swaps:
            noisy += 1
            if executed and recovered >= frontrun_in:
                non_loss += 1
        if frontrun_in:
            rates.append(Fraction(recovered - frontrun_in, frontrun_in))
    if not count:
        raise EmptyInput("no timelines")
    q = Fraction(count - noisy, count)
    p = Fraction(non_loss, noisy) if noisy else None
    return NoiseParams(q=q, p=p), rates


def estimate_noise_params(
    timelines: Sequence[PoolTimeline], theta: Fraction = Fraction(1)
) -> NoiseParams:
    """The (q, p) of noise_params_and_rates, replaying only the
    non-empty windows."""
    if not timelines:
        raise EmptyInput("no timelines")
    noisy = [t for t in timelines if t.noisy_swaps]
    q = Fraction(len(timelines) - len(noisy), len(timelines))
    p = noise_params_and_rates(noisy, theta)[0].p if noisy else None
    return NoiseParams(q=q, p=p)


def exact_sum(values: Iterable[Fraction]) -> Fraction:
    """The exact sum of values, added as a balanced pairwise tree.

    Equal to sum(values, Fraction(0)), but every addition joins two
    partial sums of similar size, so the work grows near-linearly with
    the count instead of with the running denominator of a left fold.
    """
    terms = list(values)
    if not terms:
        return Fraction(0)
    while len(terms) > 1:
        paired = [a + b for a, b in zip(terms[::2], terms[1::2])]
        if len(terms) % 2:
            paired.append(terms[-1])
        terms = paired
    return Fraction(terms[0])


def _magnitude_key(value: Fraction) -> tuple[int, Fraction]:
    """A sort key for non-negative Fractions that orders them as the
    Fractions themselves: floor(value * 2**64) is non-decreasing in
    value and settles almost every comparison as one int comparison;
    the value itself breaks the ties exactly."""
    return (value.numerator << 64) // value.denominator, value


def estimate_return_rates(
    rates: Iterable[Fraction], percentile: Fraction = Fraction(95)
) -> ReturnRates:
    """Sign-conditioned trimmed means of profit rates.

    Rates are split into non-loss (>= 0) and loss (< 0) classes; within
    each class, values whose magnitude exceeds the given percentile of
    |rate| (nearest rank) are discarded before averaging, excluding
    black-swan outliers. An empty class contributes a zero rate.
    """
    rates = [Fraction(r) for r in rates]
    if not rates:
        raise EmptyInput("no profit rates")
    if not 0 < percentile <= 100:
        raise ValueError("percentile must be in (0, 100]")

    def trimmed_mean(values: list[Fraction]) -> Fraction:
        if not values:
            return Fraction(0)
        magnitudes = sorted(map(abs, values), key=_magnitude_key)
        rank = -(-percentile.numerator * len(values) // (percentile.denominator * 100))
        threshold = magnitudes[max(rank, 1) - 1]
        kept = [v for v in values if abs(v) <= threshold]
        return exact_sum(kept) / len(kept)

    return ReturnRates(
        r_plus=trimmed_mean([r for r in rates if r >= 0]),
        r_minus=trimmed_mean([r for r in rates if r < 0]),
    )
