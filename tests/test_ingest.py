import json
from dataclasses import asdict
from fractions import Fraction

import pytest

from sandwichlab.amm import Direction, Pool, SwapRequest
from sandwichlab.attack import PoolTimeline
from sandwichlab.bridge import AttackerConfig, BotConfig, DistSpec, SimConfig, extract_corpus, run
from sandwichlab.detector import SwapLog
from sandwichlab.ingest import (
    MalformedData,
    RunManifest,
    file_digest,
    pair_from_dict,
    pair_to_dict,
    pool_from_dict,
    pool_to_dict,
    read_jsonl,
    record_from_dict,
    record_to_dict,
    swap_log_from_dict,
    swap_log_to_dict,
    timeline_from_dict,
    timeline_to_dict,
    write_jsonl,
)


def small_sim_config(seed=5):
    return SimConfig(
        seed=seed,
        horizon=180.0,
        relay_delay=DistSpec("fixed", {"value": 20.0}),
        victim_arrival_rate=0.1,
        victim_size=DistSpec("fixed", {"value": 1e15}),
        victim_tolerance=DistSpec("fixed", {"value": 0.01}),
        noise_arrival_rate=0.02,
        noise_size=DistSpec("fixed", {"value": 1e13}),
        attacker=AttackerConfig(enabled=True),
        bot=BotConfig(enabled=False),
        pools=(
            Pool(
                token_x="WETH",
                token_y="USDT",
                reserve_x=10**21,
                reserve_y=3 * 10**21,
                fee=Fraction(30, 10_000),
                address="0x" + "11" * 20,
            ),
        ),
    )


class TestCodecRoundTrips:
    def test_simulator_corpus_round_trips(self):
        trace, _ = run(small_sim_config())
        corpus = extract_corpus(trace)
        assert corpus.swap_logs and corpus.records and corpus.timelines
        for log in corpus.swap_logs:
            assert swap_log_from_dict(json.loads(json.dumps(swap_log_to_dict(log)))) == log
        for record in corpus.records:
            assert record_from_dict(json.loads(json.dumps(record_to_dict(record)))) == record
        for timeline in corpus.timelines:
            assert (
                timeline_from_dict(json.loads(json.dumps(timeline_to_dict(timeline))))
                == timeline
            )

    @pytest.mark.parametrize(
        "entry",
        [
            ["x_for_y", "0"],
            ["x_for_y", "-5"],
            ["x_for_y", str(2**256)],
            ["x_for_y", "1.5"],
            ["x_for_y", 1.0],
            ["x_for_y", None],
            ["sideways", "10"],
            ["x_for_y"],
            "x_for_y",
        ],
    )
    def test_timeline_rejects_bad_noisy_swap(self, entry):
        pool = Pool(token_x="X", token_y="Y", reserve_x=10**6, reserve_y=10**6)
        timeline = PoolTimeline(
            pool=pool,
            noisy_swaps=((Direction.Y_FOR_X, 7),),
            victim=SwapRequest(Direction.X_FOR_Y, 100, min_out=90),
            victim_tolerance=Fraction(1, 100),
        )
        row = json.loads(json.dumps(timeline_to_dict(timeline)))
        assert timeline_from_dict(row) == timeline
        row["noisy_swaps"].append(entry)
        with pytest.raises(MalformedData, match="noisy_swaps"):
            timeline_from_dict(row)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("block_number", "5"),
            ("block_number", True),
            ("log_index", 1.0),
            ("chain_id", "1"),
            ("timestamp", "3.0"),
            ("timestamp", None),
        ],
    )
    def test_swap_log_rejects_non_numeric_position(self, key, value):
        log = SwapLog(
            tx_hash="0xaa",
            block_number=5,
            log_index=1,
            pool_address="0x" + "11" * 20,
            chain_id=1,
            direction=Direction.X_FOR_Y,
            token_in_amount=10,
            token_out_amount=9,
            sender="0xbb",
            recipient="0xbb",
            gas_price=7,
            timestamp=15.0,
        )
        row = json.loads(json.dumps(swap_log_to_dict(log)))
        assert swap_log_from_dict(row) == log
        assert swap_log_from_dict({**row, "timestamp": 15}).timestamp == 15
        with pytest.raises(TypeError, match=key):
            swap_log_from_dict({**row, key: value})

    def test_field_codecs_write_what_asdict_wrote(self):
        trace, _ = run(small_sim_config())
        corpus = extract_corpus(trace)

        def canonical(data):
            return json.dumps(data, sort_keys=True)

        for log in corpus.swap_logs:
            old = {**asdict(log), "direction": log.direction.value}
            assert canonical(swap_log_to_dict(log)) == canonical(old)
        for record in corpus.records:
            old = asdict(record)
            old["hops"] = [
                {**asdict(hop), "direction": hop.direction.value} for hop in record.hops
            ]
            assert canonical(record_to_dict(record)) == canonical(old)

    def test_pool_round_trip_preserves_fraction_fee(self):
        pool = Pool(
            token_x="A",
            token_y="B",
            reserve_x=7,
            reserve_y=13,
            fee=Fraction(25, 10_000),
            address="0x" + "77" * 20,
        )
        restored = pool_from_dict(json.loads(json.dumps(pool_to_dict(pool))))
        assert restored == pool
        assert restored.fee == Fraction(1, 400)

    def test_pair_round_trip(self):
        from decimal import Decimal

        from sandwichlab.detector import Classification, SandwichPair

        log = SwapLog(
            tx_hash="0x01",
            block_number=5,
            log_index=1,
            pool_address="0x" + "11" * 20,
            chain_id=56,
            direction=Direction.X_FOR_Y,
            token_in_amount=10,
            token_out_amount=9,
            sender="0xa",
            recipient="0xa",
            gas_price=1,
            timestamp=1.0,
        )
        pair = SandwichPair(
            record_id="r1",
            pool_address="0x" + "11" * 20,
            front=log,
            victim=log,
            back=log,
            classification=Classification.CROSS_CHAIN,
            token_in="WETH",
            front_window_start_block=3,
            profit_token=-1,
            profit_rate=Fraction(-1, 10),
            profit_usd=Decimal("-3.5"),
        )
        assert pair_from_dict(json.loads(json.dumps(pair_to_dict(pair)))) == pair
        bare = SandwichPair(
            record_id="r2",
            pool_address="0x" + "11" * 20,
            front=log,
            victim=log,
            back=log,
            classification=Classification.SINGLE_CHAIN,
            token_in="WETH",
            front_window_start_block=3,
        )
        assert pair_from_dict(json.loads(json.dumps(pair_to_dict(bare)))) == bare

    def test_pair_memo_shares_equal_logs(self):
        from sandwichlab.detector import Classification, SandwichPair

        def log(block, index, amount):
            return SwapLog(
                tx_hash=f"0x{block:02x}{index:02x}",
                block_number=block,
                log_index=index,
                pool_address="0x" + "11" * 20,
                chain_id=56,
                direction=Direction.X_FOR_Y,
                token_in_amount=amount,
                token_out_amount=amount - 1,
                sender="0xa",
                recipient="0xa",
                gas_price=10**9,
                timestamp=3.0 * block,
            )

        victim = log(5, 9, 10**20)
        pairs = [
            SandwichPair(
                record_id="r1",
                pool_address=victim.pool_address,
                front=log(4, index, 10**18 + index),
                victim=victim,
                back=log(6, index, 10**18 - index),
                classification=Classification.CROSS_CHAIN,
                token_in="WETH",
                front_window_start_block=3,
            )
            for index in range(3)
        ]
        rows = [json.loads(json.dumps(pair_to_dict(pair))) for pair in pairs]
        memo: dict = {}
        shared = [pair_from_dict(row, memo) for row in rows]
        assert shared == [pair_from_dict(row) for row in rows] == pairs
        assert shared[0].victim is shared[1].victim is shared[2].victim
        assert len({id(pair.front) for pair in shared}) == 3
        assert len(memo) == 7

    def test_jsonl_header_and_round_trip(self, tmp_path):
        path = tmp_path / "logs.jsonl"
        rows = [{"a": 1}, {"b": 2}]
        manifest = RunManifest(command="test")
        write_jsonl(str(path), rows, manifest)
        text = path.read_text()
        assert text.startswith("# manifest-digest ")
        assert list(read_jsonl(str(path))) == rows


class TestManifest:
    def test_digest_changes_iff_inputs_change(self, tmp_path):
        a = tmp_path / "a.txt"
        a.write_text("hello")
        base = RunManifest(command="detect", input_digests={"a": file_digest(str(a))})
        same = RunManifest(command="detect", input_digests={"a": file_digest(str(a))})
        assert base.digest() == same.digest()
        a.write_text("hello!")
        changed = RunManifest(
            command="detect", input_digests={"a": file_digest(str(a))}
        )
        assert base.digest() != changed.digest()

    def test_seed_affects_digest(self):
        assert (
            RunManifest(command="simulate", seed=1).digest()
            != RunManifest(command="simulate", seed=2).digest()
        )
