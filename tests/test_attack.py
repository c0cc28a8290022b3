import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import replay_timeline_oracle
from sandwichlab import attack
from sandwichlab.amm import (
    MAX_AMOUNT,
    Direction,
    Overflow,
    Pool,
    SwapRequest,
    execute_swap,
    min_out_from_tolerance,
    quote_output,
)
from sandwichlab.attack import (
    EmptyInput,
    MalformedSequence,
    NoiseParams,
    OrderingScenario,
    PoolTimeline,
    ReturnRates,
    TxLabel,
    _magnitude_key,
    classify_ordering,
    estimate_noise_params,
    estimate_return_rates,
    exact_sum,
    expected_profit,
    noise_params_and_rates,
    optimal_frontrun_for_timeline,
    percent_text,
    replay_timeline,
    return_rate_texts,
    success_probability,
)
from sandwichlab.selftest import make_timeline, printing_step, replay_by_swaps


def _trimmed_means_oracle(rates, percentile):
    """estimate_return_rates with the magnitudes in plain sorted order."""

    def trimmed_mean(values):
        if not values:
            return Fraction(0)
        magnitudes = sorted(abs(v) for v in values)
        rank = math.ceil(percentile * len(values) / 100)
        kept = [v for v in values if abs(v) <= magnitudes[max(rank, 1) - 1]]
        return sum(kept, Fraction(0)) / len(kept)

    return ReturnRates(
        r_plus=trimmed_mean([r for r in rates if r >= 0]),
        r_minus=trimmed_mean([r for r in rates if r < 0]),
    )


Q = Fraction(57, 100)
P = Fraction(68, 100)
R_PLUS = Fraction(45, 1000)
R_MINUS = Fraction(-47, 1000)


def make_pool(x, y, fee=Fraction(0)):
    return Pool(token_x="X", token_y="Y", reserve_x=x, reserve_y=y, fee=fee)


class TestExpectedProfit:
    def test_published_headline_values(self):
        params = NoiseParams(q=Q, p=P)
        rates = ReturnRates(r_plus=R_PLUS, r_minus=R_MINUS)
        assert expected_profit(1, params, rates) == Fraction(323408, 10**7)
        assert float(expected_profit(1, params, rates)) == pytest.approx(0.0323408)
        assert success_probability(params) == Fraction(8624, 10**4)

    def test_no_noise_always_wins(self):
        params = NoiseParams(q=Fraction(1), p=None)
        rates = ReturnRates(r_plus=R_PLUS, r_minus=R_MINUS)
        assert success_probability(params) == 1
        assert expected_profit(10**6, params, rates) == 10**6 * R_PLUS

    def test_always_loses(self):
        params = NoiseParams(q=Fraction(0), p=Fraction(0))
        rates = ReturnRates(r_plus=R_PLUS, r_minus=R_MINUS)
        assert success_probability(params) == 0
        assert expected_profit(10**6, params, rates) == 10**6 * R_MINUS

    def test_unobservable_p_with_noise_raises(self):
        with pytest.raises(EmptyInput):
            success_probability(NoiseParams(q=Fraction(1, 2), p=None))

    def test_param_range_validation(self):
        with pytest.raises(ValueError):
            NoiseParams(q=Fraction(3, 2), p=None)
        with pytest.raises(ValueError):
            ReturnRates(r_plus=Fraction(-1, 10), r_minus=Fraction(0))

    @given(
        dx=st.integers(1, 10**12),
        q1=st.fractions(0, 1),
        q2=st.fractions(0, 1),
        p=st.fractions(0, 1),
    )
    @settings(max_examples=200)
    def test_monotone_in_q(self, dx, q1, q2, p):
        rates = ReturnRates(r_plus=R_PLUS, r_minus=R_MINUS)
        lo, hi = sorted((q1, q2))
        assert expected_profit(dx, NoiseParams(lo, p), rates) <= expected_profit(
            dx, NoiseParams(hi, p), rates
        )

    @given(dx=st.integers(0, 10**12), scale=st.integers(1, 100))
    @settings(max_examples=100)
    def test_linear_in_frontrun(self, dx, scale):
        params = NoiseParams(q=Q, p=P)
        rates = ReturnRates(r_plus=R_PLUS, r_minus=R_MINUS)
        assert expected_profit(dx * scale, params, rates) == scale * expected_profit(
            dx, params, rates
        )


L = TxLabel


class TestClassifyOrdering:
    def test_published_sequences(self):
        assert (
            classify_ordering([L.TA1, L.NOISE, L.TB1, L.TV, L.TA2])
            is OrderingScenario.CROSS_WINS_BACKRUN_RACE
        )
        assert (
            classify_ordering([L.TA1, L.TB1, L.TV, L.TB2, L.TA2])
            is OrderingScenario.CROSS_LOSES_BACKRUN_RACE
        )
        assert (
            classify_ordering([L.TB1, L.TA1, L.TV, L.TB2, L.TA2])
            is OrderingScenario.ATTACKER_SANDWICHED
        )

    def test_simple_cases(self):
        assert classify_ordering([L.TV]) is OrderingScenario.NO_ATTACK
        assert classify_ordering([]) is OrderingScenario.NO_ATTACK
        assert (
            classify_ordering([L.TB1, L.TV, L.TB2])
            is OrderingScenario.SINGLE_CHAIN_ONLY
        )
        assert (
            classify_ordering([L.TA1, L.TV, L.TA2])
            is OrderingScenario.CROSS_CHAIN_NO_BOT
        )

    def test_malformed_sequences(self):
        with pytest.raises(MalformedSequence):
            classify_ordering([L.TV, L.TV])
        with pytest.raises(MalformedSequence):
            classify_ordering([L.TA2, L.TV, L.TA1])
        with pytest.raises(MalformedSequence):
            classify_ordering([L.TB2, L.TB1])

    @given(st.data())
    @settings(max_examples=200)
    def test_noise_insertion_invariance(self, data):
        base = data.draw(
            st.sampled_from(
                [
                    [L.TV],
                    [L.TB1, L.TV, L.TB2],
                    [L.TA1, L.TV, L.TA2],
                    [L.TA1, L.TB1, L.TV, L.TA2, L.TB2],
                    [L.TA1, L.TB1, L.TV, L.TB2, L.TA2],
                    [L.TB1, L.TA1, L.TV, L.TB2, L.TA2],
                    [L.TA1, L.TV],
                    [L.TB1, L.TV],
                ]
            )
        )
        baseline = classify_ordering(base)
        noisy = list(base)
        for _ in range(data.draw(st.integers(0, 5))):
            index = data.draw(st.integers(0, len(noisy)))
            noisy.insert(index, L.NOISE)
        assert classify_ordering(noisy) is baseline


class TestReplayTimeline:
    def test_no_noise_matches_swap_by_swap_execution(self):
        pool = make_pool(10**12, 10**12, Fraction(30, 10_000))
        timeline = make_timeline(pool, 10**9, Fraction(1, 100))
        frontrun_in = optimal_frontrun_for_timeline(timeline)
        assert frontrun_in > 0
        front = execute_swap(pool, SwapRequest(Direction.X_FOR_Y, frontrun_in))
        victim = execute_swap(front.pool_after, timeline.victim)
        back = execute_swap(
            victim.pool_after, SwapRequest(Direction.Y_FOR_X, front.amount_out)
        )
        assert not victim.reverted
        assert replay_timeline(timeline, frontrun_in) == (True, back.amount_out)

    def test_no_noise_non_losing_at_zero_fee(self):
        pool = make_pool(10**12, 10**12)
        timeline = make_timeline(pool, 10**9, Fraction(1, 100))
        frontrun_in = optimal_frontrun_for_timeline(timeline)
        assert frontrun_in > 0
        executed, recovered = replay_timeline(timeline, frontrun_in)
        assert executed
        assert recovered >= frontrun_in

    def test_opposite_noise_causes_loss(self):
        pool = make_pool(10**12, 10**12)
        timeline = make_timeline(
            pool, 10**9, Fraction(1, 100), noise=[(Direction.Y_FOR_X, 10**11)]
        )
        frontrun_in = optimal_frontrun_for_timeline(timeline)
        executed, recovered = replay_timeline(timeline, frontrun_in)
        assert executed  # opposite noise improves the victim's price
        assert recovered < frontrun_in

    def test_same_direction_noise_reverts_victim(self):
        pool = make_pool(10**12, 10**12)
        timeline = make_timeline(
            pool, 10**9, Fraction(1, 100), noise=[(Direction.X_FOR_Y, 10**11)]
        )
        frontrun_in = optimal_frontrun_for_timeline(timeline)
        executed, _ = replay_timeline(timeline, frontrun_in)
        assert not executed

    def test_mirrored_victim_direction(self):
        pool = Pool(
            token_x="X", token_y="Y", reserve_x=10**12, reserve_y=3 * 10**12
        )
        quote = quote_output(pool, Direction.Y_FOR_X, 10**9)
        timeline = PoolTimeline(
            pool=pool,
            noisy_swaps=(),
            victim=SwapRequest(
                Direction.Y_FOR_X,
                10**9,
                min_out=min_out_from_tolerance(quote, Fraction(1, 100)),
            ),
        )
        frontrun_in = optimal_frontrun_for_timeline(timeline)
        assert frontrun_in > 0
        executed, recovered = replay_timeline(timeline, frontrun_in)
        assert executed
        assert recovered >= frontrun_in

    @given(
        reserves=st.tuples(st.integers(10**6, 10**15), st.integers(10**6, 10**15)),
        fee=st.sampled_from([Fraction(0), Fraction(30, 10_000), Fraction(1, 3)]),
        victim_direction=st.sampled_from(list(Direction)),
        victim_share=st.integers(1, 2_000),
        # min_out as a share of the quote in 1/10,000: above 10,000 the
        # victim reverts even unattacked
        keep=st.integers(9_000, 10_100),
        noise=st.lists(
            st.tuples(st.sampled_from(list(Direction)), st.integers(1, 10**14)),
            max_size=6,
        ),
        theta=st.sampled_from([Fraction(1), Fraction(3, 4), Fraction(1, 2)]),
        front=st.sampled_from(["none", "solver", "oversized"]),
        extra=st.integers(1, 10**14),
    )
    @settings(max_examples=300, deadline=None)
    def test_noisy_replay_matches_oracle(
        self, reserves, fee, victim_direction, victim_share, keep, noise, theta, front, extra
    ):
        pool = make_pool(*reserves, fee)
        victim_in = pool.reserves(victim_direction)[0] * victim_share // 10_000 + 1
        quote = quote_output(pool, victim_direction, victim_in)
        timeline = PoolTimeline(
            pool=pool,
            noisy_swaps=tuple(noise),
            victim=SwapRequest(victim_direction, victim_in, min_out=quote * keep // 10_000),
        )
        frontrun_in = {
            "none": 0,
            "solver": optimal_frontrun_for_timeline(timeline, theta),
            "oversized": optimal_frontrun_for_timeline(timeline, theta) + extra,
        }[front]
        replayed = replay_timeline(timeline, frontrun_in)
        assert replayed == replay_timeline_oracle(timeline, frontrun_in)
        assert replayed == replay_by_swaps(timeline, frontrun_in)

    @pytest.mark.parametrize("noise_direction", list(Direction))
    def test_overflowing_noise_raises_like_swap_by_swap(self, noise_direction):
        # the noise swap pushes a reserve past 256 bits
        pool = make_pool(MAX_AMOUNT - 10**6, MAX_AMOUNT - 10**6)
        timeline = make_timeline(
            pool, 1_000, Fraction(1, 100), noise=[(noise_direction, 2**255)]
        )
        for replay in (replay_timeline, replay_by_swaps, replay_timeline_oracle):
            with pytest.raises(Overflow):
                replay(timeline, 10)


class TestOptimalFrontrunForTimeline:
    def test_theta_one_targets_frozen_floor(self):
        pool = make_pool(10**12, 10**12)
        timeline = make_timeline(pool, 10**9, Fraction(1, 100))
        frontrun_in = optimal_frontrun_for_timeline(timeline, Fraction(1))
        executed, _ = replay_timeline(timeline, frontrun_in)
        assert executed
        bumped = PoolTimeline(
            pool=timeline.pool,
            noisy_swaps=(),
            victim=timeline.victim,
        )
        executed_plus, _ = replay_timeline(bumped, frontrun_in + 1)
        assert not executed_plus

    def test_theta_leaves_buffer(self):
        pool = make_pool(10**12, 10**12)
        timeline = make_timeline(pool, 10**9, Fraction(1, 100))
        partial = optimal_frontrun_for_timeline(timeline, Fraction(1, 2))
        full = optimal_frontrun_for_timeline(timeline, Fraction(1))
        assert 0 < partial < full


class TestEstimators:
    def test_all_empty_corpus(self):
        pool = make_pool(10**12, 10**12)
        timelines = [make_timeline(pool, 10**9, Fraction(1, 100))] * 10
        params = estimate_noise_params(timelines)
        assert params.q == 1
        assert params.p is None

    def test_planted_57_68_corpus(self):
        # 100 timelines: 57 empty (q = 0.57 exactly); of the 43 noisy,
        # 29 carry opposite-direction dust (replay measures non-loss)
        # and 14 carry a victim-reverting same-direction wall (loss).
        pool = make_pool(10**12, 10**12)
        rng = random.Random(11)
        timelines = []
        for _ in range(57):
            timelines.append(make_timeline(pool, 10**9, Fraction(1, 100)))
        for index in range(43):
            if index < 29:
                noise = [(Direction.Y_FOR_X, rng.randrange(1, 100))]
            else:
                noise = [(Direction.X_FOR_Y, 10**11)]
            timelines.append(make_timeline(pool, 10**9, Fraction(1, 100), noise))
        params = estimate_noise_params(timelines)
        assert params.q == Fraction(57, 100)
        assert params.p == Fraction(29, 43)

    def test_empty_corpus_raises(self):
        with pytest.raises(EmptyInput):
            estimate_noise_params([])
        with pytest.raises(EmptyInput):
            noise_params_and_rates([])

    @staticmethod
    def _corpus(windows, seed=7):
        """60 timelines on one fee-bearing pool, each window drawn from
        windows: "empty", "dust" (opposite-direction noise, non-loss) or
        "wall" (same-direction noise that reverts the victim). The victim
        sizes include one too small to front-run (no rate sample)."""
        pool = make_pool(10**12, 10**12, Fraction(3, 1000))
        rng = random.Random(seed)
        noises = {
            "empty": lambda: [],
            "dust": lambda: [(Direction.Y_FOR_X, rng.randrange(1, 10**9))],
            "wall": lambda: [(Direction.X_FOR_Y, 10**11)],
        }
        timelines = []
        for _ in range(60):
            noise = noises[rng.choice(windows)]()
            size = rng.choice([10, 10**9, 5 * 10**9])
            timelines.append(make_timeline(pool, size, Fraction(1, 100), noise))
        return timelines

    @staticmethod
    def _separate_estimates(timelines, theta):
        """(q, p) and the rate samples, each counted on its own pass: q
        over every window, p over the non-empty ones, a rate for every
        timeline the attacker fronts."""
        noisy = [t for t in timelines if t.noisy_swaps]
        non_loss = 0
        for timeline in noisy:
            frontrun_in = optimal_frontrun_for_timeline(timeline, theta)
            executed, recovered = replay_timeline(timeline, frontrun_in)
            non_loss += executed and recovered >= frontrun_in
        q = Fraction(len(timelines) - len(noisy), len(timelines))
        p = Fraction(non_loss, len(noisy)) if noisy else None
        rates = []
        for timeline in timelines:
            frontrun_in = optimal_frontrun_for_timeline(timeline, theta)
            if frontrun_in:
                _, recovered = replay_timeline(timeline, frontrun_in)
                rates.append(Fraction(recovered - frontrun_in, frontrun_in))
        return NoiseParams(q=q, p=p), rates

    def test_one_pass_matches_separate_estimates(self):
        # Mixed corpus: empty and noisy windows, winning and losing
        # replays, and a victim too small to front-run (no rate sample).
        timelines = self._corpus(["empty", "dust", "wall"])
        for theta in (Fraction(1), Fraction(1, 2)):
            params, rates = noise_params_and_rates(timelines, theta)
            assert (params, rates) == self._separate_estimates(timelines, theta)
            assert estimate_noise_params(timelines, theta) == params
            assert 0 < len(rates) < len(timelines)
            assert any(r < 0 for r in rates) and any(r >= 0 for r in rates)

    @pytest.mark.parametrize(
        "windows", [["empty"], ["dust", "wall"]], ids=["all empty", "all noisy"]
    )
    def test_one_sided_corpus_matches_separate_estimates(self, windows):
        timelines = self._corpus(windows)
        for theta in (Fraction(1), Fraction(1, 2)):
            params, rates = noise_params_and_rates(timelines, theta)
            assert (params, rates) == self._separate_estimates(timelines, theta)
            assert estimate_noise_params(timelines, theta) == params
            assert rates
        if windows == ["empty"]:
            assert (params.q, params.p) == (1, None)  # p is unobservable
        else:
            assert params.q == 0 and 0 < params.p < 1

    def test_exact_sum_equals_linear_sum(self):
        rng = random.Random(3)
        for count in (0, 1, 2, 3, 7, 64, 101):
            values = [
                Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**6))
                for _ in range(count)
            ]
            total = exact_sum(values)
            assert isinstance(total, Fraction)
            assert total == sum(values, Fraction(0))
        assert exact_sum(iter([1, 2, 3])) == Fraction(6)

    def test_rates_all_positive(self):
        rates = estimate_return_rates([Fraction(5, 100)] * 7)
        assert rates.r_plus == Fraction(5, 100)
        assert rates.r_minus == 0

    def test_rates_symmetric(self):
        x = Fraction(3, 100)
        rates = estimate_return_rates([x, -x, x, -x])
        assert rates.r_plus == x
        assert rates.r_minus == -x

    def test_rates_trim_drops_black_swan(self):
        # 99 moderate losses and one catastrophic one: the 95th
        # percentile trim must discard the outlier.
        values = [Fraction(-1, 100)] * 99 + [Fraction(-9, 10)]
        rates = estimate_return_rates(values, percentile=Fraction(95))
        assert rates.r_minus == Fraction(-1, 100)
        untrimmed = estimate_return_rates(values, percentile=Fraction(100))
        assert untrimmed.r_minus < Fraction(-1, 100)

    @given(
        values=st.lists(
            st.fractions(min_value=-10, max_value=10, max_denominator=10**30), max_size=40
        ),
        ties=st.lists(st.integers(-3, 3), max_size=12),
        base=st.fractions(min_value=0, max_value=2, max_denominator=10**6),
        percentile=st.sampled_from([Fraction(50), Fraction(95), Fraction(100)]),
    )
    @settings(max_examples=200, deadline=None)
    def test_keyed_magnitude_order_is_fraction_order(self, values, ties, base, percentile):
        # base plus k * 2**-66: magnitudes equal up to 2**-64 (most share
        # floor(m * 2**64)), both signs, and exact repeats
        rates = values + [
            sign * (base + Fraction(k, 2**66)) for k in ties for sign in (1, -1)
        ]
        magnitudes = [abs(v) for v in rates]
        assert sorted(magnitudes, key=_magnitude_key) == sorted(magnitudes)
        if rates:
            assert estimate_return_rates(rates, percentile) == _trimmed_means_oracle(
                rates, percentile
            )

    @pytest.mark.parametrize("bits", [attack.BOUND_BITS, 20, 3])
    def test_certified_rate_texts_equal_exact_ones(self, bits):
        # each rate group is copies of one value or a few random rates:
        # a printing step or 2**-200 to either side of it, the midpoint of
        # two adjacent floats, a tiny negative rate (-0.0000 against the
        # 0.0000 of its upper bound) or zero. With e_step, the rates are
        # copies of one value that puts E(r) alone on a printing step.
        copies = lambda values: st.tuples(values, st.integers(1, 5)).map(lambda c: [c[0]] * c[1])
        tiny = Fraction(1, 2**200)
        groups = st.one_of(
            st.lists(st.fractions(-1, 1, max_denominator=10**12), min_size=1, max_size=8),
            copies(st.builds(
                lambda j, offset: printing_step(j) + offset,
                st.integers(-10**6, 10**6),
                st.sampled_from([-tiny, 0, tiny]),
            )),
            copies(st.floats(-1, 1).map(
                lambda x: (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2
            )),
            copies(st.integers(1000, 1100).map(lambda k: -Fraction(1, 2**k))),
            copies(st.just(Fraction(0))),
        )
        unit = st.fractions(0, 1, max_denominator=100)
        fell_back = []

        @given(
            groups=st.lists(groups, min_size=1, max_size=3),
            percentile=st.sampled_from([Fraction(p) for p in (50, 95, Fraction(333, 4), 100)]),
            params=st.one_of(
                st.just(NoiseParams(q=Fraction(1), p=None)), st.builds(NoiseParams, unit, unit)
            ),
            e_step=st.one_of(st.none(), st.tuples(st.integers(-10**6, 10**6), st.integers(1, 5))),
        )
        @settings(max_examples=300, deadline=None)
        def check(groups, percentile, params, e_step):
            rates = [rate for group in groups for rate in group]
            win = success_probability(params)
            if e_step and (weight := win if e_step[0] >= 0 else 1 - win):
                # E(r) is win * r+ with no losses, (1 - win) * r- with no gains
                rates = [printing_step(e_step[0]) / weight] * e_step[1]
            sums = []
            spy = lambda values: sums.append(1) or exact_sum(values)
            with mock.patch.object(attack, "BOUND_BITS", bits):
                with mock.patch.object(attack, "exact_sum", spy):
                    texts = return_rate_texts(rates, percentile, params)
            fell_back.append(bool(sums))
            exact = estimate_return_rates(rates, percentile)
            figures = exact.r_plus, exact.r_minus, expected_profit(1, params, exact)
            assert texts == tuple(f"{float(x) * 100:.4f}" for x in figures)

        check()
        assert any(fell_back)  # the exact fallback was compared too

    def test_only_a_class_whose_bounds_print_apart_takes_its_exact_sum(self):
        step = printing_step(12_345)
        # the bounds on one of these two means lie on either side of step
        for gain in (step, step - Fraction(1, 2**200)):
            low, high = attack._mean_bounds([gain])
            if percent_text(low) != percent_text(high):
                break
        summed = []
        spy = lambda values: summed.append(values) or exact_sum(values)
        certain = NoiseParams(q=Fraction(1), p=None)  # E(r) is r+
        with mock.patch.object(attack, "exact_sum", spy):
            texts = return_rate_texts([gain] * 3 + [Fraction(-1, 3)] * 2, Fraction(100), certain)
            assert summed == [[gain] * 3]
            summed.clear()
            return_rate_texts([Fraction(1, 3), Fraction(-1, 7)], Fraction(100), certain)
            assert summed == []
        assert texts == (percent_text(gain), "-33.3333", percent_text(gain))

    def test_certified_rate_texts_tell_minus_zero_from_zero(self):
        rates = [Fraction(0), -Fraction(1, 2**1075)]
        # E(r) is r+ at win 1 and r- at win 0
        texts = return_rate_texts(rates, Fraction(100), NoiseParams(q=Fraction(1), p=None))
        assert texts == ("0.0000", "-0.0000", "0.0000")
        texts = return_rate_texts(rates, Fraction(100), NoiseParams(q=Fraction(0), p=Fraction(0)))
        assert texts == ("0.0000", "-0.0000", "-0.0000")

    def test_rates_empty_raises(self):
        with pytest.raises(EmptyInput):
            estimate_return_rates([])

    def test_rates_percentile_validation(self):
        with pytest.raises(ValueError):
            estimate_return_rates([Fraction(1, 10)], percentile=Fraction(0))
