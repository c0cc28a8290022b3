import random
from dataclasses import asdict, replace
from decimal import Decimal
from fractions import Fraction

import pytest

from sandwichlab.amm import Direction
from sandwichlab.detector import (
    Classification,
    CrossChainTx,
    DetectionConfig,
    MalformedData,
    MissingPrice,
    PriceTable,
    SandwichPair,
    SwapLog,
    VictimHop,
    aggregate,
    classify_and_price,
    detect_pairs,
    group_logs,
    prefilter,
    reference_detect_pairs,
)
from sandwichlab.selftest import check_detector, detection_case

POOL = "0x" + "11" * 20
GWEI = 10**9


def make_log(
    block,
    log_index,
    direction=Direction.X_FOR_Y,
    amount_in=1_000,
    amount_out=1_000,
    tx_hash=None,
    recipient="0x" + "22" * 20,
    gas_price=GWEI,
    timestamp=None,
    pool=POOL,
):
    return SwapLog(
        tx_hash=tx_hash or f"0x{block:032x}{log_index:032x}",
        block_number=block,
        log_index=log_index,
        pool_address=pool,
        chain_id=56,
        direction=direction,
        token_in_amount=amount_in,
        token_out_amount=amount_out,
        sender=recipient,
        recipient=recipient,
        gas_price=gas_price,
        timestamp=float(block * 3) if timestamp is None else timestamp,
    )


def make_record(
    victim_log,
    src_timestamp=0.0,
    record_id="r0",
    pool=POOL,
    token_in="WETH",
    token_out="USDT",
):
    return CrossChainTx(
        record_id=record_id,
        src_tx_hash="0x" + "01" * 32,
        src_chain_id=1,
        src_block_number=1,
        src_timestamp=src_timestamp,
        dst_tx_hash=victim_log.tx_hash,
        dst_chain_id=56,
        dst_block_number=victim_log.block_number,
        dst_timestamp=victim_log.timestamp,
        dst_gas_price=victim_log.gas_price,
        hops=(
            VictimHop(
                pool_address=pool,
                token_in=token_in,
                token_out=token_out,
                direction=victim_log.direction,
                amount_in=victim_log.token_in_amount,
                amount_out=victim_log.token_out_amount,
                min_return=0,
            ),
        ),
    )


class TestPrefilter:
    def _record(self, interval, token_in="WETH", token_out="USDT"):
        victim = make_log(10, 0, timestamp=100.0 + interval)
        return make_record(victim, src_timestamp=100.0, token_in=token_in, token_out=token_out)

    def test_interval_boundary_inclusive(self):
        cfg = DetectionConfig()
        assert prefilter([self._record(100.0)], cfg) != []
        assert prefilter([self._record(101.0)], cfg) == []

    def test_stable_to_stable_dropped(self):
        cfg = DetectionConfig()
        assert prefilter([self._record(10.0, "USDC", "USDT")], cfg) == []
        assert prefilter([self._record(10.0, "WETH", "USDC")], cfg) != []

    def test_mixed_hops_kept(self):
        victim = make_log(10, 0)
        record = make_record(victim, src_timestamp=victim.timestamp - 10)
        record = replace(
            record,
            hops=record.hops
            + (
                VictimHop(
                    pool_address="0x" + "33" * 20,
                    token_in="USDC",
                    token_out="USDT",
                    direction=Direction.X_FOR_Y,
                    amount_in=1,
                    amount_out=1,
                    min_return=0,
                ),
            ),
        )
        assert prefilter([record], DetectionConfig()) == [record]


class TestBand:
    @staticmethod
    def in_band(cfg, back_in, front_out):
        lo, hi = cfg.back_band(front_out)
        return lo <= back_in <= hi

    def test_endpoints_inclusive(self):
        cfg = DetectionConfig()
        assert cfg.back_band(100) == (90, 110)
        assert self.in_band(cfg, 90, 100)
        assert self.in_band(cfg, 110, 100)
        assert not self.in_band(cfg, 89, 100)
        assert not self.in_band(cfg, 111, 100)

    def test_scale_invariance(self):
        cfg = DetectionConfig()
        for scale in (1, 7, 10**12):
            assert self.in_band(cfg, 95 * scale, 100 * scale)
            assert not self.in_band(cfg, 89 * scale, 100 * scale)

    def test_zero_front_out(self):
        assert not self.in_band(DetectionConfig(), 100, 0)
        assert not self.in_band(DetectionConfig(), 0, 0)

    @pytest.mark.parametrize(
        "band_low, band_high",
        [
            (Fraction(9, 10), Fraction(11, 10)),
            (Fraction(7, 8), Fraction(9, 7)),
            (Fraction(1, 2), Fraction(3, 2)),
            (Fraction(99, 100), Fraction(101, 100)),
        ],
    )
    def test_back_band_edges_match_exact_ratio(self, band_low, band_high):
        cfg = DetectionConfig(band_low=band_low, band_high=band_high)
        for front_out in (-3, 0, 1, 2, 7, 9, 100, 101, 10**18 + 7):
            lo, hi = cfg.back_band(front_out)
            if front_out <= 0:
                assert lo > hi
            for back_in in (0, lo - 1, lo, lo + 1, hi - 1, hi, hi + 1):
                exact = (
                    front_out > 0
                    and band_low <= Fraction(back_in, front_out) <= band_high
                )
                assert (lo <= back_in <= hi) == exact


class TestDetectPairs:
    def _scenario(self, back_amounts):
        victim = make_log(50, 10, amount_in=10**6, amount_out=10**6)
        front = make_log(49, 0, amount_out=100, recipient="0x" + "aa" * 20)
        backs = [
            make_log(
                51,
                i,
                direction=Direction.Y_FOR_X,
                amount_in=amount,
                recipient="0x" + "bb" * 20,
            )
            for i, amount in enumerate(back_amounts)
        ]
        logs = sorted([front, victim] + backs, key=SwapLog.position)
        record = make_record(victim, src_timestamp=0.0)
        return record, {POOL: logs}, front, backs

    def test_band_selects_only_matching_back(self):
        record, logs, front, backs = self._scenario([89, 90, 111])
        pairs = detect_pairs(record, logs, DetectionConfig())
        assert len(pairs) == 1
        assert pairs[0].back == backs[1]
        assert pairs[0].front == front

    def test_no_backlogs_no_pairs(self):
        victim = make_log(50, 10)
        front = make_log(49, 0)
        record = make_record(victim)
        pairs = detect_pairs(record, {POOL: [front, victim]}, DetectionConfig())
        assert pairs == []

    def test_recipient_match_beats_earlier_candidate(self):
        victim = make_log(50, 10, amount_in=10**6, amount_out=10**6)
        attacker = "0x" + "aa" * 20
        front = make_log(49, 0, amount_out=100, recipient=attacker)
        early = make_log(51, 0, direction=Direction.Y_FOR_X, amount_in=100)
        matching = make_log(
            52, 0, direction=Direction.Y_FOR_X, amount_in=100, recipient=attacker
        )
        logs = [front, victim, early, matching]
        pairs = detect_pairs(make_record(victim), {POOL: logs}, DetectionConfig())
        assert len(pairs) == 1
        assert pairs[0].back == matching

    def test_back_consumed_once(self):
        victim = make_log(50, 10, amount_in=10**6, amount_out=10**6)
        front_a = make_log(48, 0, amount_out=100)
        front_b = make_log(49, 0, amount_out=100)
        only_back = make_log(51, 0, direction=Direction.Y_FOR_X, amount_in=100)
        logs = [front_a, front_b, victim, only_back]
        pairs = detect_pairs(make_record(victim), {POOL: logs}, DetectionConfig())
        assert len(pairs) == 1
        assert pairs[0].front == front_a

    def test_back_window_block_bound(self):
        victim = make_log(50, 10, amount_in=10**6, amount_out=10**6)
        front = make_log(49, 0, amount_out=100)
        inside = make_log(150, 0, direction=Direction.Y_FOR_X, amount_in=100)
        outside = make_log(151, 0, direction=Direction.Y_FOR_X, amount_in=100)
        cfg = DetectionConfig()
        pairs = detect_pairs(make_record(victim), {POOL: [front, victim, inside]}, cfg)
        assert len(pairs) == 1
        pairs = detect_pairs(make_record(victim), {POOL: [front, victim, outside]}, cfg)
        assert pairs == []

    def test_front_before_source_commit_excluded(self):
        victim = make_log(50, 10, amount_in=10**6, amount_out=10**6)
        stale = make_log(40, 0, amount_out=100)  # timestamp 120
        back = make_log(51, 0, direction=Direction.Y_FOR_X, amount_in=100)
        record = make_record(victim, src_timestamp=130.0)
        pairs = detect_pairs(record, {POOL: [stale, victim, back]}, DetectionConfig())
        assert pairs == []

    def test_same_block_front_is_single_chain(self):
        victim = make_log(50, 10, amount_in=10**6, amount_out=10**6)
        same_block = make_log(50, 5, amount_out=100)
        earlier_block = make_log(49, 0, amount_out=100)
        backs = [
            make_log(51, i, direction=Direction.Y_FOR_X, amount_in=100)
            for i in range(2)
        ]
        logs = [earlier_block, same_block, victim] + backs
        pairs = detect_pairs(make_record(victim), {POOL: logs}, DetectionConfig())
        classes = {p.front.position(): p.classification for p in pairs}
        assert classes[(49, 0)] is Classification.CROSS_CHAIN
        assert classes[(50, 5)] is Classification.SINGLE_CHAIN

    def test_multi_pool_record(self):
        other_pool = "0x" + "44" * 20
        victim_a = make_log(50, 10, amount_in=10**6, amount_out=10**6)
        victim_b = make_log(
            50, 20, amount_in=10**6, amount_out=10**6, pool=other_pool,
            tx_hash=victim_a.tx_hash,
        )
        front_b = make_log(49, 0, amount_out=100, pool=other_pool)
        back_b = make_log(
            51, 0, direction=Direction.Y_FOR_X, amount_in=100, pool=other_pool
        )
        record = make_record(victim_a)
        record = replace(
            record,
            hops=record.hops
            + (
                VictimHop(
                    pool_address=other_pool,
                    token_in="WBNB",
                    token_out="BUSD",
                    direction=Direction.X_FOR_Y,
                    amount_in=10**6,
                    amount_out=10**6,
                    min_return=0,
                ),
            ),
        )
        logs = {POOL: [victim_a], other_pool: [front_b, victim_b, back_b]}
        pairs = detect_pairs(record, logs, DetectionConfig())
        assert len(pairs) == 1
        assert pairs[0].pool_address == other_pool
        assert pairs[0].token_in == "WBNB"


class TestGroupLogs:
    def test_duplicate_position_is_malformed(self):
        # The two matchers read a second log at the victim's position
        # differently: detect_pairs takes it as a back, the reference
        # does not, since it is not positioned after the victim.
        front = make_log(9, 0, tx_hash="0xf")
        victim = make_log(10, 1, tx_hash="0xv")
        twin = make_log(10, 1, direction=Direction.Y_FOR_X, tx_hash="0xb")
        logs = {POOL: [front, victim, twin]}
        record, cfg = make_record(victim), DetectionConfig()
        assert [(p.front.tx_hash, p.back.tx_hash) for p in detect_pairs(record, logs, cfg)] == [
            ("0xf", "0xb")
        ]
        assert reference_detect_pairs(record, logs, cfg) == []
        with pytest.raises(MalformedData, match=rf"pool {POOL}: two logs at \(10, 1\)"):
            group_logs([front, victim, twin])
        # a shared block or log index alone is no duplicate
        assert len(group_logs([front, victim, make_log(10, 2), make_log(11, 1)])[POOL]) == 4


class TestGreedyMatchesReference:
    def test_randomized_equivalence(self):
        assert check_detector(random.Random(1234), 300)

    @pytest.mark.parametrize("num_blocks", [1, 100])
    def test_dense_corpora(self, num_blocks):
        """Hundreds of logs of 95-105 units and two recipients: nearly
        every back is in every front's band, so the fronts compete for
        the same backs, and a third to a half of the takes pass over
        free in-band backs for a later one that pays the front's
        recipient. With one block of backs the fronts outnumber them and
        many go without."""
        rng = random.Random(num_blocks)
        cfg = DetectionConfig(num_blocks=num_blocks)
        found = unmatched = 0
        for _ in range(8):
            record, logs = detection_case(rng, rng.randrange(200, 400), dense=True)
            pairs = detect_pairs(record, logs, cfg)
            assert pairs == reference_detect_pairs(record, logs, cfg)
            victim = record.dst_tx_hash
            fronts = [log for log in logs[POOL] if log.block_number <= 50 and log.tx_hash != victim]
            found += len(pairs)
            unmatched += sum(log.direction is Direction.X_FOR_Y for log in fronts) - len(pairs)
        assert found > 50
        assert (unmatched > 100) is (num_blocks == 1)

    def test_two_hop_record(self):
        """Two pools whose hops both pair: the pairs of the two hops are
        merged in (victim, front) position order, as the reference has
        them."""
        other = "0x" + "44" * 20
        rng = random.Random(8)
        cfg = DetectionConfig()
        for _ in range(10):
            record, first = detection_case(rng, 60)
            _, second = detection_case(rng, 60)
            logs = {POOL: first[POOL], other: [replace(log, pool_address=other) for log in second[POOL]]}
            hop = replace(record.hops[0], pool_address=other, token_in="WBNB")
            record = replace(record, hops=(record.hops[0], hop))
            pairs = detect_pairs(record, logs, cfg)
            assert pairs == reference_detect_pairs(record, logs, cfg)
            assert {pair.pool_address for pair in pairs} == {POOL, other}

    def test_every_record_of_a_simulated_corpus(self):
        """Every record past the prefilter of the 30/25 bp config of
        tests/test_digests.py, where the attacker and the bot both act."""
        import yaml
        from test_digests import FEES_YAML

        from sandwichlab.bridge import extract_corpus, run
        from sandwichlab.cli import sim_config_from_dict

        trace, metrics = run(sim_config_from_dict(yaml.safe_load(FEES_YAML)))
        assert metrics.attacker_attacked > 0 and metrics.bot_attacked > 0
        corpus = extract_corpus(trace)
        logs, cfg = group_logs(corpus.swap_logs), DetectionConfig()
        kept = prefilter(corpus.records, cfg)
        found = 0
        for record in kept:
            pairs = detect_pairs(record, logs, cfg)
            assert pairs == reference_detect_pairs(record, logs, cfg), record.record_id
            found += len(pairs)
        assert len(kept) > 20 and found > len(kept)

    @pytest.mark.parametrize("num_blocks", [1, 3, 100])
    @pytest.mark.parametrize(
        "band_low, band_high",
        [
            (Fraction(7, 8), Fraction(9, 7)),
            (Fraction(1, 2), Fraction(3, 2)),
            (Fraction(99, 100), Fraction(101, 100)),
        ],
    )
    def test_equivalence_under_other_bands_and_horizons(
        self, band_low, band_high, num_blocks
    ):
        # A fifth of the logs have a zero output, so some fronts have an
        # empty band.
        rng = random.Random(num_blocks * 1_000 + band_low.denominator)
        cfg = DetectionConfig(
            num_blocks=num_blocks, band_low=band_low, band_high=band_high
        )
        found = 0
        for _ in range(150):
            record, logs = detection_case(rng, rng.randrange(2, 40))
            logs = {
                POOL: [
                    replace(log, token_out_amount=0) if rng.random() < 0.2 else log
                    for log in logs[POOL]
                ]
            }
            pairs = detect_pairs(record, logs, cfg)
            assert pairs == reference_detect_pairs(record, logs, cfg)
            found += len(pairs)
        assert found > 0

    def test_determinism_under_input_shuffle(self):
        rng = random.Random(99)
        cfg = DetectionConfig()
        record, logs = detection_case(rng, 30)
        baseline = detect_pairs(record, logs, cfg)
        for _ in range(10):
            shuffled = list(logs[POOL])
            rng.shuffle(shuffled)
            shuffled.sort(key=SwapLog.position)
            assert detect_pairs(record, {POOL: shuffled}, cfg) == baseline

    def test_canonical_output_order(self):
        rng = random.Random(5)
        record, logs = detection_case(rng, 35)
        pairs = detect_pairs(record, logs, DetectionConfig())
        keys = [(p.victim.position(), p.front.position()) for p in pairs]
        assert keys == sorted(keys)


class TestClassifyAndPrice:
    def _pair(self, front_in=100, back_out=100, token="WETH"):
        victim = make_log(50, 10, amount_in=10**6, amount_out=10**6)
        front = make_log(49, 0, amount_in=front_in, amount_out=100)
        back = make_log(
            51, 0, direction=Direction.Y_FOR_X, amount_in=100, amount_out=back_out
        )
        record = make_record(victim, token_in=token)
        pairs = detect_pairs(record, {POOL: [front, victim, back]}, DetectionConfig())
        assert len(pairs) == 1
        return pairs

    def test_zero_rate(self):
        prices = PriceTable(prices={"WETH": Decimal(3000)}, decimals={"WETH": 0})
        enriched, missing = classify_and_price(self._pair(100, 100), prices)
        assert missing == set()
        assert enriched[0].profit_token == 0
        assert enriched[0].profit_rate == 0
        assert enriched[0].profit_usd == 0

    def test_positive_rate_and_usd(self):
        prices = PriceTable(prices={"WETH": Decimal(3000)}, decimals={"WETH": 0})
        enriched, _ = classify_and_price(self._pair(1000, 1034), prices)
        assert enriched[0].profit_token == 34
        assert enriched[0].profit_rate == Fraction(34, 1000)
        assert enriched[0].profit_usd == Decimal(34) * 3000

    def test_missing_price_retains_pair(self):
        prices = PriceTable(prices={}, decimals={})
        enriched, missing = classify_and_price(self._pair(token="OBSCURE"), prices)
        assert missing == {"OBSCURE"}
        assert enriched[0].profit_usd is None
        assert enriched[0].profit_token is not None

    def test_price_table_from_csv(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text(
            "token_id,usd_price,decimals,snapshot_date\n"
            "WETH,3000,18,2025-10-31\n"
            "USDT,1,6,2025-10-31\n"
        )
        table = PriceTable.from_csv(str(path))
        assert table.usd("WETH", 10**18) == Decimal(3000)
        assert table.usd("USDT", 2 * 10**6) == Decimal(2)
        assert table.snapshot_date == "2025-10-31"

    def test_usd_scale_per_token(self):
        prices = {"A": Decimal("2.5"), "B": Decimal(7), "C": Decimal(1)}
        table = PriceTable(prices=prices, decimals={"A": 0, "B": 255})
        for token, decimals in (("A", 0), ("B", 255), ("C", 18)):
            for amount in (-3, 0, 12345):
                expected = Decimal(amount) / Decimal(10) ** decimals * prices[token]
                assert table.usd(token, amount) == expected
        with pytest.raises(MissingPrice):
            table.usd("D", 1)


class TestAggregate:
    def test_empty_report(self):
        report = aggregate([], [])
        assert report.total_pairs == 0
        assert report.total_profit_usd == 0
        assert report.front_gas_ratio_lt_1 == 0.0

    def test_gas_and_split_stats(self):
        victim = make_log(50, 10, amount_in=10**6, amount_out=10**6, gas_price=5 * GWEI)
        front_zero_gas = make_log(49, 0, amount_in=100, amount_out=100, gas_price=0)
        back_cheap = make_log(
            51, 0, direction=Direction.Y_FOR_X, amount_in=100, amount_out=120,
            gas_price=4 * GWEI,
        )
        record = make_record(victim)
        pairs = detect_pairs(
            record, {POOL: [front_zero_gas, victim, back_cheap]}, DetectionConfig()
        )
        prices = PriceTable(prices={"WETH": Decimal(1)}, decimals={"WETH": 0})
        enriched, _ = classify_and_price(pairs, prices)
        report = aggregate(enriched, [record])
        assert report.total_pairs == 1
        assert report.cross_chain_pairs == 1
        assert report.single_chain_pairs == 0
        assert report.zero_gas_front_runs == 1
        assert report.front_gas_ratio_lt_1 == 1.0
        assert report.back_gas_delta_buckets["[1,10)"] == 1
        assert report.total_profit_usd == Decimal(20)
        assert report.chain_pairs["1->56"]["pairs"] == 1
        assert report.pool_counts == {POOL: 1}

    @staticmethod
    def _binned_pairs():
        """Five priced pairs of one record at the edges of the position
        bins, and that record."""
        victim = make_log(50, 10)
        record = make_record(victim, record_id="r0")
        prices = PriceTable(prices={"WETH": Decimal(1)}, decimals={"WETH": 0})

        def pair(front_block, back_block, window_start, back_out):
            return SandwichPair(
                record_id="r0",
                pool_address=POOL,
                front=make_log(front_block, 0, amount_in=100),
                victim=victim,
                back=make_log(back_block, 0, Direction.Y_FOR_X, amount_out=back_out),
                classification=Classification.CROSS_CHAIN,
                token_in="WETH",
                front_window_start_block=window_start,
            )

        pairs = [
            pair(40, 50, 40, 150),  # front at the window start, back in the victim's block
            pair(35, 60, 40, 50),  # front before the window start: rel < 0
            pair(49, 75, 40, 120),  # rel 0.9 and 0.25
            pair(50, 150, 40, 90),  # rel 1 for both: the last bin
            pair(45, 160, 50, 200),  # span 0: no front bin; back rel 1.1
        ]
        enriched, _ = classify_and_price(pairs, prices)
        return enriched, record

    def test_position_bins_clamp_to_first_and_last(self):
        enriched, record = self._binned_pairs()
        report = aggregate(enriched, [record], num_blocks=100)
        assert report.front_position_hist == [2, 0, 0, 0, 0, 0, 0, 0, 0, 2]
        assert report.back_position_hist == [1, 1, 1, 0, 0, 0, 0, 0, 0, 2]
        # profitable: back_out > 100 (pairs 1, 3 and 5)
        assert report.front_position_hist_profitable == [1, 0, 0, 0, 0, 0, 0, 0, 0, 1]
        assert report.back_position_hist_profitable == [1, 0, 1, 0, 0, 0, 0, 0, 0, 1]
        assert report.chain_pairs == {"1->56": {"pairs": 5, "profit_usd": Decimal(110)}}

    def test_iterator_gives_the_report_of_a_list(self):
        """analyze streams its pairs: aggregate reads them once, in order,
        so an iterator must give the report a list gives, field by field,
        the empty one included (which once divided by zero)."""
        enriched, record = self._binned_pairs()
        for pairs in ([], enriched):
            streamed = aggregate(iter(pairs), [record], num_blocks=100)
            assert asdict(streamed) == asdict(aggregate(pairs, [record], num_blocks=100))
        assert aggregate(iter([]), []).front_gas_ratio_lt_1 == 0.0
