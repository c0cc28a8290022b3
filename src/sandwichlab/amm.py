"""Exact constant-product swap math and the front-run solver.

All pool math runs on arbitrary-precision integers (token base units,
capped at 256 bits like the EVM) with a single floor per quote, so that
replays are bit-exact and the simulator and the detector agree on every
amount. Rates (fees, slippage tolerances, extraction fractions) are
exact rationals.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

MAX_AMOUNT = 2**256 - 1


class AmmError(Exception):
    pass


class ZeroInput(AmmError):
    """Swap input amount was zero."""


class Overflow(AmmError):
    """An amount or updated reserve exceeded 256 bits."""


class Direction(enum.Enum):
    X_FOR_Y = "x_for_y"
    Y_FOR_X = "y_for_x"

    def opposite(self) -> "Direction":
        return Direction.Y_FOR_X if self is Direction.X_FOR_Y else Direction.X_FOR_Y


def _check_amount(name: str, value: int, minimum: int = 0) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    if value > MAX_AMOUNT:
        raise Overflow(f"{name} exceeds 256 bits")


def _check_rate(name: str, value: Fraction, lo_open: bool = True) -> None:
    # on the integer terms n/d, d > 0: a Fraction comparison costs about
    # four times as much, and every simulated commit checks its tolerance
    n, d = value.numerator, value.denominator
    if not ((n > 0 if lo_open else n >= 0) and n < d):
        raise ValueError(f"{name} out of range: {value}")


@dataclass(frozen=True, slots=True)
class Pool:
    """Constant-product pool state.

    Concentrated-liquidity (V3-style) pools are treated as CPMMs at
    their current in-range liquidity; tick crossings are out of scope.
    """

    token_x: str
    token_y: str
    reserve_x: int
    reserve_y: int
    fee: Fraction = Fraction(0)
    address: str = "0x" + "00" * 20

    def __post_init__(self) -> None:
        _check_amount("reserve_x", self.reserve_x, minimum=1)
        _check_amount("reserve_y", self.reserve_y, minimum=1)
        if not isinstance(self.fee, Fraction):
            object.__setattr__(self, "fee", Fraction(self.fee))
        _check_rate("fee", self.fee, lo_open=False)

    def reserves(self, direction: Direction) -> tuple[int, int]:
        """(reserve_in, reserve_out) for the given swap direction."""
        if direction is Direction.X_FOR_Y:
            return self.reserve_x, self.reserve_y
        return self.reserve_y, self.reserve_x

    def tokens(self, direction: Direction) -> tuple[str, str]:
        """(token_in, token_out) for the given swap direction."""
        if direction is Direction.X_FOR_Y:
            return self.token_x, self.token_y
        return self.token_y, self.token_x

    def _derived(self, token_x: str, token_y: str, reserve_x: int, reserve_y: int) -> "Pool":
        """This pool with new tokens and reserves, built without
        __post_init__: callers pass values already known to be valid.
        Every slot is set, as the dataclass __init__ would set it."""
        pool = object.__new__(Pool)
        set_field = object.__setattr__
        set_field(pool, "token_x", token_x)
        set_field(pool, "token_y", token_y)
        set_field(pool, "reserve_x", reserve_x)
        set_field(pool, "reserve_y", reserve_y)
        set_field(pool, "fee", self.fee)
        set_field(pool, "address", self.address)
        return pool

    def after_swap(self, direction: Direction, amount_in: int, amount_out: int) -> "Pool":
        """The state after a swap of amount_in for amount_out, unchecked:
        amount_out must come from quote_output, which bounds the input
        to 256 bits and always leaves at least one unit of output."""
        if direction is Direction.X_FOR_Y:
            return self._derived(
                self.token_x,
                self.token_y,
                self.reserve_x + amount_in,
                self.reserve_y - amount_out,
            )
        return self._derived(
            self.token_x,
            self.token_y,
            self.reserve_x - amount_out,
            self.reserve_y + amount_in,
        )

    def mirrored(self) -> "Pool":
        """The same pool with token roles swapped."""
        return self._derived(self.token_y, self.token_x, self.reserve_y, self.reserve_x)


@dataclass(frozen=True, slots=True)
class SwapRequest:
    direction: Direction
    amount_in: int
    min_out: int = 0
    sender: str = "0x" + "00" * 20
    recipient: str = "0x" + "00" * 20

    def __post_init__(self) -> None:
        _check_amount("amount_in", self.amount_in, minimum=1)
        _check_amount("min_out", self.min_out)


@dataclass(frozen=True, slots=True)
class SwapOutcome:
    amount_in: int
    amount_out: int
    pool_after: Pool
    reverted: bool


def fee_terms(pool: Pool) -> tuple[int, int]:
    """(g, fd) with 1 - fee = g / fd: the integer fee terms of swap_output."""
    fd = pool.fee.denominator
    return fd - pool.fee.numerator, fd


def swap_output(reserve_in: int, reserve_out: int, g: int, fd: int, amount_in: int) -> int:
    """The one swap formula, on plain reserves: floor(out * (1-f) * dx /
    (in + (1-f) * dx)) as a single rational expression with one floor.

    Only the 256-bit guard on the updated input reserve is checked. The
    caller vouches for the rest: reserves >= 1, 1 <= amount_in, and
    (g, fd) from fee_terms. The output is then below reserve_out, so
    the output reserve never reaches zero.
    """
    if reserve_in + amount_in > MAX_AMOUNT:
        raise Overflow("updated reserve exceeds 256 bits")
    return reserve_out * g * amount_in // (reserve_in * fd + g * amount_in)


def quote_output(pool: Pool, direction: Direction, amount_in: int) -> int:
    """Exact swap quote: swap_output on the pool's reserves, after
    checking amount_in."""
    if amount_in == 0:
        raise ZeroInput("swap amount_in is zero")
    _check_amount("amount_in", amount_in, minimum=1)
    reserve_in, reserve_out = pool.reserves(direction)
    return swap_output(reserve_in, reserve_out, *fee_terms(pool), amount_in)


def execute_swap(pool: Pool, req: SwapRequest) -> SwapOutcome:
    """Apply a swap; reverting (output below min_out) is a normal outcome."""
    out = quote_output(pool, req.direction, req.amount_in)
    if out < req.min_out:
        return SwapOutcome(req.amount_in, 0, pool, reverted=True)
    return SwapOutcome(
        req.amount_in,
        out,
        pool.after_swap(req.direction, req.amount_in, out),
        reverted=False,
    )


def min_out_from_tolerance(quote: int, tolerance: Fraction) -> int:
    """ceil((1 - s) * quote) on the integer terms of s = n/d, so integer
    revert matches out' >= (1-s)*out."""
    _check_amount("quote", quote)
    _check_rate("tolerance", tolerance)
    n, d = tolerance.numerator, tolerance.denominator
    return -(-quote * (d - n) // d)


def victim_output_after_frontrun(
    pool: Pool, direction: Direction, frontrun_in: int, victim_in: int
) -> int:
    """The victim's output if a same-direction front-run of the given size
    lands first. frontrun_in == 0 means no front-run."""
    if frontrun_in:
        out = quote_output(pool, direction, frontrun_in)
        pool = pool.after_swap(direction, frontrun_in, out)
    return quote_output(pool, direction, victim_in)


def _analytic_frontrun_root(
    pool: Pool, direction: Direction, victim_in: int, min_out: int
) -> int:
    """Real-valued positive root of the boundary quadratic, floored.

    The boundary condition (victim output exactly at min_out, with the
    post-front-run reserve taken as x0 + a) expands to
        g*a^2 + (x0*(1+g) + g^2*dx)*a + x0*(x0 + g*dx) - x0*y0*g*dx/m <= 0
    with g = 1 - f and m = min_out. Writing g = G/D (D the fee
    denominator) and scaling by D^2*m gives the integer quadratic
        A*a^2 + B*a + C <= 0,  A = G*D*m,
        B = m*(x0*D*(D + G) + G^2*dx),
        C = D*x0*(m*(x0*D + G*dx) - y0*G*dx),
    whose root is floored with an integer square root.
    """
    x0, y0 = pool.reserves(direction)
    g, d = fee_terms(pool)
    dx, m = victim_in, min_out
    qa = g * d * m
    qb = m * (x0 * d * (d + g) + g * g * dx)
    qc = d * x0 * (m * (x0 * d + g * dx) - y0 * g * dx)
    disc = qb * qb - 4 * qa * qc
    if disc < 0:
        return 0
    return max(0, (math.isqrt(disc) - qb) // (2 * qa))


def largest_frontrun_for_min_out(
    pool: Pool, direction: Direction, victim_in: int, min_out: int
) -> int:
    """Largest a >= 0 such that the victim still clears min_out after a
    same-direction front-run of a. Integer local search up from the
    analytic root; galloping fallback keeps maximality exact even when
    integer flooring moves the boundary far above the real-valued root.

    The search only walks up, because the root is never above the
    answer. The root is where the victim's real output, before either
    floor, falls to m, rounded down by isqrt. Flooring the front-run's
    output leaves more in the pool for the victim, so at the root the
    victim's output before its own floor is still >= m, and as m is an
    integer the floored output is too. When not even a = 0 fits, the
    real output at 0 is below m and the root is 0, the answer.
    """
    _check_amount("victim_in", victim_in, minimum=1)
    _check_amount("min_out", min_out)
    if min_out == 0:
        min_out = 1  # a zero floor gives unbounded room; treat as one base unit

    # victim_output_after_frontrun on plain reserves; a comes from the
    # search below, so it is a positive int
    reserve_in, reserve_out = pool.reserves(direction)
    g, fd = fee_terms(pool)

    def fits(a: int) -> bool:
        front_out = swap_output(reserve_in, reserve_out, g, fd, a)
        victim_out = swap_output(reserve_in + a, reserve_out - front_out, g, fd, victim_in)
        return victim_out >= min_out

    a = _analytic_frontrun_root(pool, direction, victim_in, min_out)
    steps = 0
    while fits(a + 1):
        a += 1
        steps += 1
        if steps >= 64:  # analytic start was far off; gallop instead
            lo, step = a, 64
            while fits(lo + step):
                lo += step
                step *= 2
            hi = lo + step
            while lo + 1 < hi:
                mid = (lo + hi) // 2
                if fits(mid):
                    lo = mid
                else:
                    hi = mid
            return lo
    return a
