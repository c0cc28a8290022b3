import math
from fractions import Fraction

import pytest
import yaml

from sandwichlab.amm import AmmError, Direction, Pool
from sandwichlab.attack import TxLabel, frontrun_size, optimal_frontrun_for_timeline
from sandwichlab.bridge import (
    AttackerConfig,
    BotConfig,
    DistSpec,
    InvalidConfig,
    SimConfig,
    extract_corpus,
    run,
)
from sandwichlab.cli import sim_config_from_dict
from test_digests import CAPPED_YAML, MEMPOOL_YAML


def make_pools(fee=Fraction(30, 10_000)):
    return (
        Pool(
            token_x="WETH",
            token_y="USDT",
            reserve_x=10**21,
            reserve_y=3 * 10**21,
            fee=fee,
            address="0x" + "11" * 20,
        ),
        Pool(
            token_x="WBNB",
            token_y="BUSD",
            reserve_x=10**20,
            reserve_y=6 * 10**20,
            fee=fee,
            address="0x" + "22" * 20,
        ),
    )


def attacker_in(victim):
    """The attacker's front-run size for this victim; 0 if it never acted."""
    return victim.attacker.amount_in if victim.attacker is not None else 0


def base_config(**overrides):
    defaults = dict(
        seed=42,
        horizon=240.0,
        src_block_interval=12.0,
        dst_block_interval=3.0,
        relay_delay=DistSpec("fixed", {"value": 30.0}),
        victim_arrival_rate=0.1,
        victim_size=DistSpec("fixed", {"value": 1e15}),
        victim_tolerance=DistSpec("fixed", {"value": 0.01}),
        noise_arrival_rate=0.02,
        noise_size=DistSpec("fixed", {"value": 1e13}),
        attacker=AttackerConfig(enabled=True),
        bot=BotConfig(enabled=False),
        pools=make_pools(),
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


class TestConfigValidation:
    def test_needs_pools(self):
        with pytest.raises(InvalidConfig):
            SimConfig(pools=())

    @pytest.mark.parametrize("key", ["horizon", "src_block_interval", "dst_block_interval"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, 0, -1.0, True, "600"])
    def test_spans_must_be_finite_and_positive(self, key, value):
        # an infinite horizon ran forever; a NaN one or a NaN block
        # interval ran and dropped every victim
        with pytest.raises(InvalidConfig, match=f"{key} must be a finite number > 0"):
            base_config(**{key: value})

    def test_theta_range(self):
        with pytest.raises(InvalidConfig):
            AttackerConfig(theta=Fraction(0))

    # the run swaps and logs these amounts as ints, unchecked: a float
    # capital_limit made float front-runs, a float gas price float logs
    @pytest.mark.parametrize(
        "make, name",
        [
            (lambda v: AttackerConfig(capital_limit=v), "capital_limit"),
            (lambda v: AttackerConfig(gas_price=v), "gas_price"),
            (lambda v: BotConfig(gas_premium=v), "gas_premium"),
        ],
    )
    @pytest.mark.parametrize("value", [5e18, True, -1, 2**256, "7"])
    def test_agent_amounts_must_be_uint256(self, make, name, value):
        with pytest.raises(InvalidConfig, match=f"{name} must be an int in"):
            make(value)

    def test_unknown_distribution_family(self):
        rng_config = base_config(relay_delay=DistSpec("cauchy", {"x0": 1}))
        with pytest.raises(InvalidConfig):
            run(rng_config)


class TestDeterminism:
    def test_identical_seed_identical_trace(self):
        config = base_config(bot=BotConfig(enabled=True))
        trace_a, metrics_a = run(config)
        trace_b, metrics_b = run(config)
        assert trace_a.events == trace_b.events
        assert trace_a.final_pools == trace_b.final_pools
        assert metrics_a == metrics_b

    def test_different_seed_different_trace(self):
        trace_a, _ = run(base_config(seed=1))
        trace_b, _ = run(base_config(seed=2))
        assert trace_a.events != trace_b.events


class TestConservation:
    def test_pool_reserves_match_swap_flow(self):
        config = base_config(bot=BotConfig(enabled=True), noise_arrival_rate=0.05)
        trace, _ = run(config)
        for pool in config.pools:
            dx = dy = 0
            for event in trace.events:
                if (
                    event.kind != "swap"
                    or event.reverted
                    or event.pool_address != pool.address
                ):
                    continue
                if event.direction is Direction.X_FOR_Y:
                    dx += event.amount_in
                    dy -= event.amount_out
                else:
                    dx -= event.amount_out
                    dy += event.amount_in
            final = trace.final_pools[pool.address]
            assert final.reserve_x == pool.reserve_x + dx
            assert final.reserve_y == pool.reserve_y + dy


class TestOrderingAdvantage:
    def test_fixed_delay_front_lands_before_victim(self):
        trace, _ = run(base_config())
        attacked = [
            v
            for v in trace.victims.values()
            if v.attacker is not None
            and v.attacker.front_block is not None
            and v.exec_block is not None
        ]
        assert attacked
        for victim in attacked:
            assert victim.attacker.front_block < victim.exec_block

    def test_contested_cases_front_precedes_bot(self):
        # On 30 bp pools the bot's same-block bracket never pays; at zero
        # fee it does, so the bot attacks victims the attacker attacked.
        config = base_config(
            bot=BotConfig(enabled=True),
            attacker=AttackerConfig(enabled=True, theta=Fraction(1, 2)),
            horizon=480.0,
            pools=make_pools(fee=Fraction(0)),
        )
        trace, metrics = run(config)
        assert metrics.contested_cases > 0
        for victim in trace.victims.values():
            if victim.attacker is None or victim.bot is None:
                continue
            if victim.attacker.front_block is None or victim.bot.front_block is None:
                continue
            assert victim.attacker.front_block < victim.bot.front_block
        assert metrics.contested_cases == metrics.contested_front_precedes_bot

    def test_mempool_gas_order_within_blocks(self):
        config = base_config(bot=BotConfig(enabled=True), noise_arrival_rate=0.05)
        trace, _ = run(config)
        by_block: dict[int, list] = {}
        for event in trace.events:
            if event.kind == "swap":
                by_block.setdefault(event.block_number, []).append(event)
        for events in by_block.values():
            keys = [(-e.gas_price, e.time) for e in events]
            assert keys == sorted(keys)


class TestBotDecision:
    def test_bot_brackets_only_when_profit_clears_min_profit(self):
        # At zero fee the same-block bracket pays; no bracket pays 10**30.
        def bot_attacked(min_profit):
            config = base_config(
                attacker=AttackerConfig(enabled=False),
                bot=BotConfig(enabled=True, min_profit=min_profit),
                pools=make_pools(fee=Fraction(0)),
            )
            trace, metrics = run(config)
            attacked = [v for v in trace.victims.values() if v.bot is not None]
            assert len(attacked) == metrics.bot_attacked
            return metrics.bot_attacked

        assert bot_attacked(0) > 0
        assert bot_attacked(10**30) == 0


class TestAttackerDecision:
    def test_params_sizes_what_the_simulated_attacker_sized(self):
        # Swaps of 1-400 base units: many quotes equal their frozen floor
        # (quote * tolerance < 1 base unit), so there is no buffer to take.
        theta = Fraction(1, 2)
        config = base_config(
            seed=5,
            horizon=1800.0,
            victim_arrival_rate=0.3,
            victim_size=DistSpec("uniform", {"low": 1, "high": 400}),
            victim_tolerance=DistSpec("uniform", {"low": 0.005, "high": 0.03}),
            attacker=AttackerConfig(enabled=True, theta=theta),
            bot=BotConfig(enabled=True),
        )
        trace, _ = run(config)
        corpus = extract_corpus(trace)
        assert len(corpus.timelines) > 100
        disagree = [
            label["victim_id"]
            for timeline, label in zip(corpus.timelines, corpus.labels)
            if optimal_frontrun_for_timeline(timeline, theta)
            != attacker_in(trace.victims[label["victim_id"]])
        ]
        assert disagree == [], f"{len(disagree)}/{len(corpus.timelines)} timelines"

    def test_walls_have_ears(self):
        # The attacker's front-run is a function of the public commit log
        # (and the pool it names) alone, for every committed victim:
        # executed, reverted and dropped alike.
        theta, cap = Fraction(3, 4), 5 * 10**18
        config = base_config(
            seed=7,
            horizon=300.0,
            victim_arrival_rate=0.5,
            victim_size=DistSpec("lognormal", {"mu": 34.5, "sigma": 1.0}),
            victim_tolerance=DistSpec("uniform", {"low": 0.005, "high": 0.03}),
            noise_arrival_rate=0.05,
            attacker=AttackerConfig(enabled=True, theta=theta, capital_limit=cap),
            bot=BotConfig(enabled=True),
        )
        trace, _ = run(config)
        checked = []
        for event in trace.events:
            if event.kind != "commit":
                continue
            victim = trace.victims[event.victim_id]
            try:
                size = frontrun_size(
                    victim.pool_snapshot,
                    event.direction,
                    event.amount_in,
                    event.amount_out,
                    theta,
                )
            except AmmError:
                size = 0
            assert attacker_in(victim) == max(0, min(cap, size)), victim.victim_id
            checked.append(victim)
        assert len(checked) == len(trace.victims)
        assert any(attacker_in(v) == cap for v in checked)
        assert any(0 < attacker_in(v) < cap for v in checked)
        assert any(v.reverted and attacker_in(v) for v in checked)
        # dropped: never executed
        assert any(v.exec_block is None and attacker_in(v) for v in checked)


class TestVictimOutcomes:
    def test_quiet_window_gets_frozen_quote(self):
        # With the attacker off and no noise traffic, any victim whose
        # relay window saw no other swaps receives exactly the quote
        # frozen at commit time.
        config = base_config(
            attacker=AttackerConfig(enabled=False), noise_arrival_rate=0.0
        )
        trace, _ = run(config)
        corpus = extract_corpus(trace)
        timelines = {t.victim.sender: t for t in corpus.timelines}
        quiet = 0
        for victim in trace.victims.values():
            timeline = timelines.get(victim.sender)
            if timeline is None or timeline.noisy_swaps:
                continue
            quiet += 1
            assert victim.amount_out == victim.quote_at_commit
        assert quiet > 0

    def test_attacker_drives_victim_toward_floor(self):
        # Only victims with an otherwise-empty relay window: other
        # victims' back-runs can legitimately improve the price.
        trace, _ = run(base_config(noise_arrival_rate=0.0, victim_arrival_rate=0.02))
        corpus = extract_corpus(trace)
        quiet_ids = {
            label["victim_id"]
            for timeline, label in zip(corpus.timelines, corpus.labels)
            if not timeline.noisy_swaps and label["attacker_front_block"] is not None
        }
        assert quiet_ids
        for victim_id in quiet_ids:
            victim = trace.victims[victim_id]
            assert victim.min_return <= victim.amount_out < victim.quote_at_commit


class TestExtractCorpus:
    def test_empty_when_no_victims(self):
        config = base_config(victim_arrival_rate=0.0, noise_arrival_rate=0.0)
        trace, _ = run(config)
        corpus = extract_corpus(trace)
        assert corpus.timelines == []
        assert corpus.records == []
        assert corpus.labels == []

    def test_timeline_excludes_own_frontrun(self):
        # No noise traffic and a sparse victim stream: attacked victims
        # with no overlapping cross-traffic must show an EMPTY noise
        # window even though their own TA1 executed inside it. With 3 s
        # destination blocks a TA1 lands in the block at its commit's own
        # timestamp, outside the window; 5 s blocks put it inside.
        trace, _ = run(
            base_config(noise_arrival_rate=0.0, victim_arrival_rate=0.02, dst_block_interval=5.0)
        )
        corpus = extract_corpus(trace)
        labels_by_record = {label["record_id"]: label for label in corpus.labels}
        attacked_empty = 0
        for timeline, record in zip(corpus.timelines, corpus.records):
            label = labels_by_record[record.record_id]
            if label["attacker_front_block"] is not None and not timeline.noisy_swaps:
                attacked_empty += 1
        assert attacked_empty > 0

    def test_records_align_with_labels(self):
        trace, _ = run(base_config())
        corpus = extract_corpus(trace)
        assert len(corpus.records) == len(corpus.timelines) == len(corpus.labels)
        record_ids = {r.record_id for r in corpus.records}
        assert record_ids == {label["record_id"] for label in corpus.labels}
        for record in corpus.records:
            assert record.dst_timestamp >= record.src_timestamp

    def test_swap_log_time_is_its_destination_block_time(self):
        # with one chain id for both chains, the logs once took the time
        # of the source block of the same number
        apart = extract_corpus(run(base_config(seed=3))[0]).swap_logs
        shared = extract_corpus(
            run(base_config(seed=3, src_chain_id=56, dst_chain_id=56))[0]
        ).swap_logs
        assert apart
        assert shared == apart
        for log in shared:
            assert log.timestamp == log.block_number * 3.0

    def test_swap_logs_totally_ordered_per_pool(self):
        trace, _ = run(base_config(noise_arrival_rate=0.05))
        corpus = extract_corpus(trace)
        per_pool: dict[str, list] = {}
        for log in corpus.swap_logs:
            per_pool.setdefault(log.pool_address, []).append(log.position())
        for positions in per_pool.values():
            assert len(set(positions)) == len(positions)


def windows_and_orders(trace):
    """Each victim's noise window and the labels of its executed legs,
    derived from ``trace.events`` alone after the run. The window walks
    back from the victim's own swap over the executed swaps on its pool
    while they are timestamped after its commit, skipping its own
    attacker front-run; the legs are sorted by (block, log_index)."""
    commit_time = {}
    pool_swaps = {}  # pool -> executed swaps in trace order
    windows, legs = {}, {}
    for event in trace.events:
        if event.kind == "commit":
            commit_time[event.victim_id] = event.time
            continue
        if event.reverted:
            continue
        swaps = pool_swaps.setdefault(event.pool_address, [])
        if event.label == TxLabel.TV.value:
            window = []
            for earlier in reversed(swaps):
                if earlier.time <= commit_time[event.victim_id]:
                    break
                if not (earlier.label == TxLabel.TA1.value and earlier.victim_id == event.victim_id):
                    window.append((earlier.direction, earlier.amount_in))
            windows[event.victim_id] = tuple(reversed(window))
        swaps.append(event)
        if event.victim_id is not None:
            legs.setdefault(event.victim_id, []).append(
                ((event.block_number, event.log_index), TxLabel(event.label))
            )
    orders = {vid: tuple(label for _, label in sorted(tagged)) for vid, tagged in legs.items()}
    return windows, orders


class TestRecordedWhileRunning:
    @pytest.mark.parametrize("text", [CAPPED_YAML, MEMPOOL_YAML], ids=["capped", "mempool"])
    def test_windows_and_orders_match_the_trace(self, text):
        trace, _ = run(sim_config_from_dict(yaml.safe_load(text)))
        windows, orders = windows_and_orders(trace)
        victims = trace.victims.values()
        # the config exercises every outcome and both agents
        assert any(v.exec_block is None for v in victims)
        assert any(v.reverted for v in victims)
        assert any(v.window for v in victims)
        assert any(TxLabel.TA1 in v.order for v in victims)
        assert any(TxLabel.TB1 in v.order for v in victims)
        # a window holds the trace's own events, not copies
        in_trace = {id(event) for event in trace.events}
        for victim in victims:
            assert all(id(event) in in_trace for event in victim.window)
            window = tuple((e.direction, e.amount_in) for e in victim.window)
            assert window == windows.get(victim.victim_id, ())
            assert victim.order == orders.get(victim.victim_id, ())


class TestMetrics:
    def test_scenario_counts_cover_completed_victims(self):
        config = base_config(bot=BotConfig(enabled=True))
        trace, metrics = run(config)
        assert (
            sum(metrics.scenario_counts.values())
            == metrics.victims_executed + metrics.victims_reverted
        )
        assert metrics.victims_total == (
            metrics.victims_executed
            + metrics.victims_reverted
            + metrics.victims_dropped
        )

    def test_attacker_profitable_without_interference(self):
        config = base_config(noise_arrival_rate=0.0, victim_arrival_rate=0.03)
        trace, metrics = run(config)
        assert metrics.attacker_attacked > 0
        # Fee-bearing pools can make individual sandwiches slightly
        # lossy, but the recorded profits must at least be present.
        assert metrics.attacker_profit_by_token
