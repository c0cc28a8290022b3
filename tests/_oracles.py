"""Slow, independent reference implementations used to freeze expected
values and cross-check the fast code paths."""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction

from sandwichlab.amm import Direction, Pool, victim_output_after_frontrun
from sandwichlab.detector import MissingPrice


def quote_oracle(pool: Pool, direction: Direction, amount_in: int) -> int:
    """Quote via explicit rational arithmetic, no shortcuts."""
    reserve_in, reserve_out = pool.reserves(direction)
    effective = Fraction(amount_in) * (1 - pool.fee)
    out = Fraction(reserve_out) * effective / (Fraction(reserve_in) + effective)
    return int(out)  # int() floors non-negative rationals


def boundary_quadratic(
    pool: Pool, direction: Direction, victim_in: int, min_out: int
) -> tuple[Fraction, Fraction, Fraction]:
    """(g, b, c) of the front-run boundary quadratic g*a^2 + b*a + c,
    with g = 1 - f and m = min_out:
        g*a^2 + (x0*(1+g) + g^2*dx)*a + x0*(x0 + g*dx) - x0*y0*g*dx/m
    The victim still clears min_out for front-runs a where it is <= 0."""
    x0, y0 = pool.reserves(direction)
    g = 1 - pool.fee
    dx = victim_in
    b = x0 * (1 + g) + g * g * dx
    c = x0 * (x0 + g * dx) - Fraction(x0 * y0, min_out) * g * dx
    return g, b, c


def fraction_frontrun_root(
    pool: Pool, direction: Direction, victim_in: int, min_out: int
) -> int:
    """The boundary quadratic's positive root, floored, solved in
    Fraction arithmetic. The square root is floor(sqrt(n*d))/d, which
    is below sqrt(n/d) by less than 1/d, so the root can fall short of
    the real root by up to 1/(2*g*d)."""
    g, b, c = boundary_quadratic(pool, direction, victim_in, min_out)
    disc = b * b - 4 * g * c
    if disc < 0:
        return 0
    n, d = disc.numerator, disc.denominator
    root = (-b + Fraction(math.isqrt(n * d), d)) / (2 * g)
    return max(0, math.floor(root))


def bisect_frontrun(
    pool: Pool, direction: Direction, victim_in: int, min_out: int
) -> int:
    """Largest front-run that keeps the victim at or above min_out,
    found by pure bisection on the monotone predicate."""
    if min_out == 0:
        min_out = 1

    def fits(a: int) -> bool:
        return (
            victim_output_after_frontrun(pool, direction, a, victim_in) >= min_out
        )

    if not fits(0):
        return 0
    lo, hi = 0, 1
    while fits(hi):
        lo, hi = hi, hi * 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid
    return lo


def brute_force_frontrun(
    pool: Pool, direction: Direction, victim_in: int, min_out: int, limit: int
) -> int:
    """Exhaustive scan up to limit; only usable on tiny pools."""
    if min_out == 0:
        min_out = 1
    best = 0
    if victim_output_after_frontrun(pool, direction, 0, victim_in) < min_out:
        return 0
    for a in range(1, limit + 1):
        if victim_output_after_frontrun(pool, direction, a, victim_in) >= min_out:
            best = a
    return best


def replay_timeline_oracle(timeline, frontrun_in: int) -> tuple[bool, int]:
    """replay_timeline on plain reserves: every swap quoted by
    quote_oracle on a pool rebuilt through the validating constructor.
    Returns (victim_executed, backrun_out)."""
    pool = timeline.pool
    reserves = {"x": pool.reserve_x, "y": pool.reserve_y}

    def swap(direction: Direction, amount_in: int) -> int:
        current = Pool(
            token_x=pool.token_x,
            token_y=pool.token_y,
            reserve_x=reserves["x"],
            reserve_y=reserves["y"],
            fee=pool.fee,
        )
        out = quote_oracle(current, direction, amount_in)
        side_in, side_out = ("x", "y") if direction is Direction.X_FOR_Y else ("y", "x")
        reserves[side_in] += amount_in
        reserves[side_out] -= out
        return out

    victim = timeline.victim
    frontrun_out = swap(victim.direction, frontrun_in) if frontrun_in else 0
    for direction, amount in timeline.noisy_swaps:
        swap(direction, amount)
    saved = dict(reserves)
    executed = swap(victim.direction, victim.amount_in) >= victim.min_out
    if not executed:
        reserves.update(saved)
    recovered = swap(victim.direction.opposite(), frontrun_out) if frontrun_out else 0
    return executed, recovered


def dist_sample_oracle(family: str, params: dict, rng) -> float:
    """One draw of a distribution, as DistSpec.sample drew it before the
    family table: the family looked up by name and every parameter read
    through float() on each draw."""
    p = params
    if family == "fixed":
        value = float(p["value"])
    elif family == "uniform":
        value = rng.uniform(float(p["low"]), float(p["high"]))
    elif family == "exponential":
        value = rng.expovariate(float(p["rate"]))
    elif family == "lognormal":
        sigma = float(p["sigma"])
        if "p95" in p:
            mu = math.log(float(p["p95"])) - 1.6448536269514722 * sigma
        else:
            mu = float(p["mu"])
        value = rng.lognormvariate(mu, sigma)
    else:
        raise ValueError(f"unknown distribution family {family!r}")
    if "min" in p:
        value = max(value, float(p["min"]))
    if "max" in p:
        value = min(value, float(p["max"]))
    return value


def classify_and_price_oracle(pairs, prices):
    """classify_and_price through dataclasses.replace: every field of a
    pair is carried over and only the three profit fields are set."""
    enriched, missing = [], set()
    for pair in pairs:
        profit = pair.back.token_out_amount - pair.front.token_in_amount
        try:
            usd = prices.usd(pair.token_in, profit)
        except MissingPrice:
            missing.add(pair.token_in)
            usd = None
        rate = Fraction(profit, pair.front.token_in_amount)
        enriched.append(replace(pair, profit_token=profit, profit_rate=rate, profit_usd=usd))
    return enriched, missing


# Reference writers: the dict form of each JSONL row kind, written out
# field by field. ingest derives its <kind>_to_dict and its writer texts
# from one table per row kind; the tests compare both against these, so
# a table is checked against a second spelling, not against itself.


def _fraction_text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def swap_log_dict_oracle(log) -> dict:
    return {
        "tx_hash": log.tx_hash,
        "block_number": log.block_number,
        "log_index": log.log_index,
        "pool_address": log.pool_address,
        "chain_id": log.chain_id,
        "direction": log.direction.value,
        "token_in_amount": log.token_in_amount,
        "token_out_amount": log.token_out_amount,
        "sender": log.sender,
        "recipient": log.recipient,
        "gas_price": log.gas_price,
        "timestamp": log.timestamp,
    }


def record_dict_oracle(record) -> dict:
    return {
        "record_id": record.record_id,
        "src_tx_hash": record.src_tx_hash,
        "src_chain_id": record.src_chain_id,
        "src_block_number": record.src_block_number,
        "src_timestamp": record.src_timestamp,
        "dst_tx_hash": record.dst_tx_hash,
        "dst_chain_id": record.dst_chain_id,
        "dst_block_number": record.dst_block_number,
        "dst_timestamp": record.dst_timestamp,
        "dst_gas_price": record.dst_gas_price,
        "hops": [
            {
                "pool_address": hop.pool_address,
                "token_in": hop.token_in,
                "token_out": hop.token_out,
                "direction": hop.direction.value,
                "amount_in": hop.amount_in,
                "amount_out": hop.amount_out,
                "min_return": hop.min_return,
            }
            for hop in record.hops
        ],
    }


def pool_dict_oracle(pool: Pool) -> dict:
    return {
        "token_x": pool.token_x,
        "token_y": pool.token_y,
        "reserve_x": str(pool.reserve_x),
        "reserve_y": str(pool.reserve_y),
        "fee": _fraction_text(pool.fee),
        "address": pool.address,
    }


def timeline_dict_oracle(timeline) -> dict:
    return {
        "pool": pool_dict_oracle(timeline.pool),
        "noisy_swaps": [
            [direction.value, str(amount)] for direction, amount in timeline.noisy_swaps
        ],
        "victim": {
            "direction": timeline.victim.direction.value,
            "amount_in": str(timeline.victim.amount_in),
            "min_out": str(timeline.victim.min_out),
            "sender": timeline.victim.sender,
            "recipient": timeline.victim.recipient,
        },
    }


def pair_dict_oracle(pair) -> dict:
    return {
        "record_id": pair.record_id,
        "pool_address": pair.pool_address,
        "front": swap_log_dict_oracle(pair.front),
        "victim": swap_log_dict_oracle(pair.victim),
        "back": swap_log_dict_oracle(pair.back),
        "classification": pair.classification.value,
        "token_in": pair.token_in,
        "front_window_start_block": pair.front_window_start_block,
        "profit_token": None if pair.profit_token is None else str(pair.profit_token),
        "profit_rate": None if pair.profit_rate is None else _fraction_text(pair.profit_rate),
        "profit_usd": None if pair.profit_usd is None else str(pair.profit_usd),
    }
