import math
from dataclasses import fields, replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (
    bisect_frontrun,
    boundary_quadratic,
    brute_force_frontrun,
    fraction_frontrun_root,
    quote_oracle,
)
from sandwichlab.amm import (
    MAX_AMOUNT,
    Direction,
    Overflow,
    Pool,
    PoolProtocol,
    SwapRequest,
    ZeroInput,
    _analytic_frontrun_root,
    execute_swap,
    largest_frontrun_for_min_out,
    min_out_from_tolerance,
    quote_output,
    swap_output,
)
from sandwichlab.attack import frontrun_size, optimal_frontrun_for_timeline, replay_timeline
from sandwichlab.selftest import FrontrunCase, make_timeline

FEE_30 = Fraction(30, 10_000)


def make_pool(x, y, fee=Fraction(0)):
    return Pool(token_x="X", token_y="Y", reserve_x=x, reserve_y=y, fee=fee)


reserves = st.integers(min_value=10**3, max_value=10**18)
fees = st.sampled_from(
    [Fraction(0), Fraction(5, 10_000), FEE_30, Fraction(100, 10_000)]
)

# the solver's fee range: zero, common fees and the extremes
WIDE_FEES = [
    Fraction(0),
    Fraction(25, 10_000),
    FEE_30,
    Fraction(1, 3),
    Fraction(9990, 10_000),
]


class TestQuote:
    def test_zero_fee_doubling_halves(self):
        pool = make_pool(1000, 1000)
        assert quote_output(pool, Direction.X_FOR_Y, 1000) == 500

    def test_fee_bearing_frozen_value(self):
        pool = make_pool(1_000_000, 1_000_000, FEE_30)
        assert quote_output(pool, Direction.X_FOR_Y, 10_000) == 9_871

    def test_tiny_pool_matches_brute_force(self):
        # Max integer output o with (x + (1-f)dx)(y - o) >= x*y.
        pool = make_pool(5, 7, FEE_30)
        x, y, dx = 5, 7, 1
        g = 1 - FEE_30
        best = max(
            o
            for o in range(0, y)
            if (Fraction(x) + g * dx) * (y - o) >= x * y
        )
        assert quote_output(pool, Direction.X_FOR_Y, 1) == best

    def test_zero_input_raises(self):
        with pytest.raises(ZeroInput):
            quote_output(make_pool(10, 10), Direction.X_FOR_Y, 0)

    def test_overflowing_reserve_raises(self):
        pool = make_pool(MAX_AMOUNT - 5, 10)
        with pytest.raises(Overflow):
            quote_output(pool, Direction.X_FOR_Y, 10)

    @given(x=reserves, y=reserves, fee=fees, dx=st.integers(1, 10**15))
    @settings(max_examples=200)
    def test_matches_rational_oracle(self, x, y, fee, dx):
        pool = make_pool(x, y, fee)
        assert quote_output(pool, Direction.X_FOR_Y, dx) == quote_oracle(
            pool, Direction.X_FOR_Y, dx
        )

    @given(x=reserves, y=reserves, fee=fees, dx=st.integers(1, 10**15))
    @settings(max_examples=200)
    def test_output_below_reserve(self, x, y, fee, dx):
        pool = make_pool(x, y, fee)
        assert quote_output(pool, Direction.X_FOR_Y, dx) < y

    @given(x=reserves, y=reserves, dx=st.integers(1, 10**15))
    @settings(max_examples=200)
    def test_direction_mirroring(self, x, y, dx):
        pool = make_pool(x, y, FEE_30)
        assert quote_output(pool, Direction.Y_FOR_X, dx) == quote_output(
            pool.mirrored(), Direction.X_FOR_Y, dx
        )

    def test_input_past_256_bits_raises(self):
        with pytest.raises(Overflow):
            quote_output(make_pool(10, 10), Direction.X_FOR_Y, MAX_AMOUNT + 1)


class TestBoundaries:
    """Each 256-bit and rate bound at its edge: the largest value it
    admits passes, and the next one fails."""

    def test_largest_amount_is_two_to_the_256_less_one(self):
        assert make_pool(MAX_AMOUNT, MAX_AMOUNT).reserve_x == 2**256 - 1
        with pytest.raises(Overflow):
            make_pool(2**256, 10)
        with pytest.raises(Overflow):
            SwapRequest(Direction.X_FOR_Y, 1, min_out=2**256)

    def test_amount_of_max_amount_passes(self):
        request = SwapRequest(Direction.X_FOR_Y, MAX_AMOUNT, min_out=MAX_AMOUNT)
        assert (request.amount_in, request.min_out) == (MAX_AMOUNT, MAX_AMOUNT)

    def test_updated_reserve_of_max_amount_passes(self):
        assert swap_output(MAX_AMOUNT - 5, 10, 1, 1, 5) == 0
        assert quote_output(make_pool(MAX_AMOUNT - 5, 10), Direction.X_FOR_Y, 5) == 0
        with pytest.raises(Overflow):
            swap_output(MAX_AMOUNT - 5, 10, 1, 1, 6)

    def test_solver_overflows_when_one_unit_of_front_run_passes_256_bits(self):
        # the victim's own swap takes the input reserve to MAX_AMOUNT; the
        # victim clears a floor of 5 alone, and not one of 6
        pool = make_pool(MAX_AMOUNT - 5, MAX_AMOUNT)
        assert quote_output(pool, Direction.X_FOR_Y, 5) == 5
        for min_out in (5, 6):
            with pytest.raises(Overflow):
                largest_frontrun_for_min_out(pool, Direction.X_FOR_Y, 5, min_out)

    def test_open_lower_rate_bound_rejects_zero(self):
        with pytest.raises(ValueError, match="tolerance out of range: 0"):
            min_out_from_tolerance(100, Fraction(0))
        assert min_out_from_tolerance(100, Fraction(1, 10**18)) == 100
        # the fee's lower bound is closed
        assert make_pool(10, 10, Fraction(0)).fee == 0


def validated(pool):
    """pool rebuilt from every one of its fields through the validating
    constructor; reading a slot that was never set raises AttributeError,
    so this also checks that each field is set on the instance."""
    return Pool(**{field.name: getattr(pool, field.name) for field in fields(Pool)})


def listed_pool(x, y, fee):
    """A pool whose defaulted fields all hold non-default values."""
    return Pool(
        token_x="X",
        token_y="Y",
        reserve_x=x,
        reserve_y=y,
        fee=fee,
        address="0x" + "ab" * 20,
        protocol=PoolProtocol.PANCAKE_V3,
    )


class TestPoolTransitions:
    @given(
        x=reserves,
        y=reserves,
        fee=fees,
        dx=st.integers(1, 10**15),
        direction=st.sampled_from(list(Direction)),
    )
    @settings(max_examples=200)
    def test_after_swap_equals_validated_pool(self, x, y, fee, dx, direction):
        pool = listed_pool(x, y, fee)
        out = quote_output(pool, direction, dx)
        after = pool.after_swap(direction, dx, out)
        assert after == validated(after)
        reserve_in, reserve_out = pool.reserves(direction)
        assert after.reserves(direction) == (reserve_in + dx, reserve_out - out)
        assert replace(after, reserve_x=x, reserve_y=y) == pool

    @given(x=reserves, y=reserves, fee=fees)
    def test_mirrored_equals_validated_pool(self, x, y, fee):
        pool = listed_pool(x, y, fee)
        mirrored = pool.mirrored()
        assert mirrored == validated(mirrored)
        assert (mirrored.token_x, mirrored.reserve_x) == ("Y", y)
        assert (mirrored.token_y, mirrored.reserve_y) == ("X", x)
        assert mirrored.mirrored() == pool

    def test_constructor_still_validates(self):
        with pytest.raises(ValueError):
            make_pool(0, 10)
        with pytest.raises(Overflow):
            make_pool(MAX_AMOUNT + 1, 10)
        with pytest.raises(ValueError):
            make_pool(10, 10, Fraction(1))


class TestExecute:
    def test_success_updates_reserves(self):
        outcome = execute_swap(
            make_pool(1000, 1000), SwapRequest(Direction.X_FOR_Y, 1000, min_out=500)
        )
        assert not outcome.reverted
        assert (outcome.pool_after.reserve_x, outcome.pool_after.reserve_y) == (
            2000,
            500,
        )

    def test_boundary_revert_leaves_pool(self):
        pool = make_pool(1000, 1000)
        outcome = execute_swap(pool, SwapRequest(Direction.X_FOR_Y, 1000, min_out=501))
        assert outcome.reverted
        assert outcome.pool_after == pool
        assert outcome.amount_out == 0

    def test_revert_from_frozen_quote(self):
        pool = make_pool(1_000_000, 1_000_000, FEE_30)
        outcome = execute_swap(
            pool, SwapRequest(Direction.X_FOR_Y, 10_000, min_out=9_872)
        )
        assert outcome.reverted

    @given(x=reserves, y=reserves, fee=fees, dx=st.integers(1, 10**15))
    @settings(max_examples=200)
    def test_k_growth(self, x, y, fee, dx):
        pool = make_pool(x, y, fee)
        outcome = execute_swap(pool, SwapRequest(Direction.X_FOR_Y, dx))
        k_before = pool.reserve_x * pool.reserve_y
        k_after = outcome.pool_after.reserve_x * outcome.pool_after.reserve_y
        if fee > 0:
            assert k_after >= k_before
        else:
            # Zero fee: only floor slack, bounded by the new input reserve.
            assert k_before <= k_after < k_before + outcome.pool_after.reserve_x

    @given(x=reserves, y=reserves, fee=fees, dx=st.integers(1, 10**15))
    @settings(max_examples=200)
    def test_round_trip_dominance(self, x, y, fee, dx):
        pool = make_pool(x, y, fee)
        first = execute_swap(pool, SwapRequest(Direction.X_FOR_Y, dx))
        if first.amount_out == 0:
            return
        back = execute_swap(
            first.pool_after, SwapRequest(Direction.Y_FOR_X, first.amount_out)
        )
        assert back.amount_out <= dx


def test_price_impact_of_larger_reserve_x():
    # Along pool states with the same k, the same input buys less as
    # reserve_x grows.
    k = 10**24
    dx = 10**9
    quotes = []
    for x in (10**10, 10**11, 10**12, 2 * 10**12):
        assert k % x == 0
        quotes.append(quote_output(make_pool(x, k // x), Direction.X_FOR_Y, dx))
    assert quotes == sorted(quotes, reverse=True)
    assert len(set(quotes)) == len(quotes)


class TestMinOut:
    def test_exact_percent(self):
        assert min_out_from_tolerance(1000, Fraction(1, 100)) == 990

    def test_rounds_up(self):
        assert min_out_from_tolerance(999, Fraction(1, 100)) == 990

    def test_zero_quote(self):
        assert min_out_from_tolerance(0, Fraction(1, 100)) == 0

    @given(quote=st.integers(0, 10**18), num=st.integers(1, 999))
    @settings(max_examples=200)
    def test_matches_real_inequality(self, quote, num):
        s = Fraction(num, 1000)
        floor = min_out_from_tolerance(quote, s)
        # floor is the least integer satisfying out >= (1-s)*quote.
        assert floor >= (1 - s) * quote
        if floor > 0:
            assert floor - 1 < (1 - s) * quote


class TestFrontrunSolver:
    def test_big_symmetric_pool_matches_bisection(self):
        pool = make_pool(10**12, 10**12, FEE_30)
        case = FrontrunCase(make_timeline(pool, 10**9, Fraction(1, 100)), Fraction(1))
        floor = case.timeline.victim.min_out
        best = frontrun_size(pool, Direction.X_FOR_Y, 10**9, floor)
        assert best == bisect_frontrun(pool, Direction.X_FOR_Y, 10**9, floor)
        assert case.floor() == floor and case.is_maximal(best)

    def test_tiny_pool_matches_brute_force(self):
        pool = make_pool(997, 1013, FEE_30)
        victim_in = 101
        quote = quote_output(pool, Direction.X_FOR_Y, victim_in)
        floor = min_out_from_tolerance(quote, Fraction(5, 100))
        fast = largest_frontrun_for_min_out(pool, Direction.X_FOR_Y, victim_in, floor)
        assert fast == brute_force_frontrun(
            pool, Direction.X_FOR_Y, victim_in, floor, limit=2_000
        )

    def test_no_room_returns_zero(self):
        pool = make_pool(10**6, 10**6, FEE_30)
        # An already-reverting floor: nothing fits, not even zero room.
        assert largest_frontrun_for_min_out(pool, Direction.X_FOR_Y, 100, 10**6) == 0

    def test_theta_scales_room_monotonically(self):
        pool = make_pool(10**12, 10**12)
        min_out = make_timeline(pool, 10**9, Fraction(1, 100)).victim.min_out
        sizes = [
            frontrun_size(pool, Direction.X_FOR_Y, 10**9, min_out, Fraction(t, 4))
            for t in (1, 2, 3, 4)
        ]
        assert sizes == sorted(sizes)
        assert sizes[0] < sizes[-1]

    @given(
        x=st.integers(10**4, 10**14),
        y=st.integers(10**4, 10**14),
        fee=fees,
        victim_in=st.one_of(st.integers(1, 400), st.integers(1, 10**12)),
        s_num=st.integers(1, 500),
        theta=st.sampled_from([Fraction(1, 2), Fraction(3, 4), Fraction(1)]),
    )
    @settings(max_examples=200, deadline=None)
    def test_frontrun_size_targets_theta_floor(self, x, y, fee, victim_in, s_num, theta):
        pool = make_pool(x, y, fee)
        case = FrontrunCase(make_timeline(pool, victim_in, Fraction(s_num, 10_000)), theta)
        min_out = case.timeline.victim.min_out
        size = frontrun_size(pool, Direction.X_FOR_Y, victim_in, min_out, theta)
        # floor 0: no buffer above the victim's floor to take
        floor = case.floor()
        assert size == (floor and bisect_frontrun(pool, Direction.X_FOR_Y, victim_in, floor))

    @given(
        x=st.integers(10**4, 10**14),
        y=st.integers(10**4, 10**14),
        fee=st.one_of(fees, st.sampled_from(WIDE_FEES)),
        victim_frac=st.integers(1, 1000),
        s_num=st.integers(1, 500),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_bisection_oracle(self, x, y, fee, victim_frac, s_num):
        pool = make_pool(x, y, fee)
        victim_in = max(1, x * victim_frac // 10_000)
        tolerance = Fraction(s_num, 10_000)
        quote = quote_output(pool, Direction.X_FOR_Y, victim_in)
        if quote == 0:
            return
        floor = min_out_from_tolerance(quote, tolerance)
        fast = largest_frontrun_for_min_out(pool, Direction.X_FOR_Y, victim_in, floor)
        assert fast == bisect_frontrun(pool, Direction.X_FOR_Y, victim_in, floor)

    @given(
        x=st.integers(1, 10**24),
        y=st.integers(1, 10**24),
        fee=st.sampled_from(WIDE_FEES),
        victim_in=st.integers(1, 10**22),
        min_out=st.one_of(st.just(1), st.integers(1, 10**24)),
    )
    @settings(max_examples=400)
    # here the Fraction root's truncated square root leaves it 2 short
    @example(
        x=9_536_743_164_062_500,
        y=17_627,
        fee=Fraction(9990, 10_000),
        victim_in=9_536_743_164_062_500,
        min_out=1,
    )
    def test_integer_root_is_floor_of_real_root(self, x, y, fee, victim_in, min_out):
        pool = make_pool(x, y, fee)
        fast = _analytic_frontrun_root(pool, Direction.X_FOR_Y, victim_in, min_out)
        g, b, c = boundary_quadratic(pool, Direction.X_FOR_Y, victim_in, min_out)

        def boundary(a):
            return g * a * a + b * a + c

        # fast is the largest a >= 0 on the boundary's feasible side, or 0
        assert boundary(fast + 1) > 0
        assert fast == 0 or boundary(fast) <= 0
        # within 1 of the former Fraction root, beyond that root's own
        # truncation error of at most 1/(2*g*den(disc))
        slow = fraction_frontrun_root(pool, Direction.X_FOR_Y, victim_in, min_out)
        slack = 1 / (2 * g * (b * b - 4 * g * c).denominator)
        assert slow <= fast <= slow + 1 + slack

    @given(
        x=st.one_of(st.integers(1, 49), st.integers(1, 10**30)),
        y=st.one_of(st.integers(1, 49), st.integers(1, 10**30)),
        fee_bp=st.integers(0, 9_999),
        victim_in=st.integers(1, 10**30),
        direction=st.sampled_from(Direction),
        data=st.data(),
    )
    @settings(max_examples=400, deadline=None)
    def test_root_is_a_lower_bound_and_search_is_exact(
        self, x, y, fee_bp, victim_in, direction, data
    ):
        """The solver walks only up from the analytic root: the root is
        never above the bisection answer (and is 0 when nothing fits),
        and the search lands on that answer exactly."""
        pool = make_pool(x, y, Fraction(fee_bp, 10_000))
        quote = quote_output(pool, direction, victim_in)
        min_out = data.draw(st.integers(0, quote + 3), label="min_out")
        expected = bisect_frontrun(pool, direction, victim_in, min_out)
        assert _analytic_frontrun_root(pool, direction, victim_in, max(min_out, 1)) <= expected
        assert largest_frontrun_for_min_out(pool, direction, victim_in, min_out) == expected


class TestBackrun:
    def test_zero_fee_round_trip_within_one_unit(self):
        pool = make_pool(10**12, 10**12)
        out = quote_output(pool, Direction.X_FOR_Y, 10**6)
        pool_after = pool.after_swap(Direction.X_FOR_Y, 10**6, out)
        back = quote_output(pool_after, Direction.Y_FOR_X, out)
        assert 10**6 - 1 <= back <= 10**6


def sandwich(pool, victim_in, tolerance, theta=Fraction(1), direction=Direction.X_FOR_Y):
    """The attacker's front-run against an empty noise window and the
    replay of front-run, victim and back-run: (front-run in, victim
    executed, back-run out)."""
    timeline = make_timeline(pool, victim_in, tolerance, direction=direction)
    frontrun_in = optimal_frontrun_for_timeline(timeline, theta)
    return (frontrun_in, *replay_timeline(timeline, frontrun_in))


class TestSandwich:
    def test_no_room_no_frontrun(self):
        pool = make_pool(100, 100)
        # Floor pinned at the unattacked quote: there is no buffer to take.
        assert sandwich(pool, 100, Fraction(1, 10**9)) == (0, True, 0)

    def test_replay_consistency(self):
        pool = make_pool(10**12, 10**12, FEE_30)
        frontrun_in, executed, backrun_out = sandwich(pool, 10**9, Fraction(1, 100))
        assert frontrun_in > 0
        assert executed
        front_out = quote_output(pool, Direction.X_FOR_Y, frontrun_in)
        p1 = pool.after_swap(Direction.X_FOR_Y, frontrun_in, front_out)
        victim_out = quote_output(p1, Direction.X_FOR_Y, 10**9)
        assert victim_out >= make_timeline(pool, 10**9, Fraction(1, 100)).victim.min_out
        p2 = p1.after_swap(Direction.X_FOR_Y, 10**9, victim_out)
        assert quote_output(p2, Direction.Y_FOR_X, front_out) == backrun_out

    def test_profit_positive_and_bounded(self):
        pool = make_pool(10**12, 10**12)
        frontrun_in, _, backrun_out = sandwich(pool, 10**9, Fraction(1, 100))
        profit = backrun_out - frontrun_in
        assert profit > 0
        bound = Fraction(1, 100) * 10**9 * Fraction(10**12 + 10**9, 10**12)
        assert profit <= math.ceil(bound)

    def test_theta_half_strictly_smaller(self):
        pool = make_pool(10**12, 10**12)
        full_in, _, full_out = sandwich(pool, 10**9, Fraction(1, 100), Fraction(1))
        half_in, _, half_out = sandwich(pool, 10**9, Fraction(1, 100), Fraction(1, 2))
        assert half_in < full_in
        assert half_out - half_in < full_out - full_in

    def test_zero_fee_closed_form(self):
        # At f=0 the whole three-swap profit collapses to
        # (x0 + dx_v) - ceil(k / (y0 - dy_v)) with dy_v at the floor.
        pool = make_pool(10**12, 10**12)
        victim_in = 10**9
        tolerance = Fraction(1, 100)
        frontrun_in, _, backrun_out = sandwich(pool, victim_in, tolerance)
        floor = make_timeline(pool, victim_in, tolerance).victim.min_out
        closed = (pool.reserve_x + victim_in) - (
            -(-(pool.reserve_x * pool.reserve_y) // (pool.reserve_y - floor))
        )
        assert abs(backrun_out - frontrun_in - closed) <= 2

    def test_mirroring(self):
        pool = Pool(
            token_x="X", token_y="Y", reserve_x=10**12, reserve_y=3 * 10**12, fee=FEE_30
        )
        forward = sandwich(pool.mirrored(), 10**9, Fraction(1, 100))
        mirrored = sandwich(pool, 10**9, Fraction(1, 100), direction=Direction.Y_FOR_X)
        assert forward == mirrored
        assert forward[0] > 0
