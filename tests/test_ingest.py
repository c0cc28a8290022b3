import json
from dataclasses import asdict
from fractions import Fraction

import pytest

from sandwichlab.amm import Direction, Pool, SwapRequest
from sandwichlab.attack import PoolTimeline
from sandwichlab.bridge import AttackerConfig, BotConfig, DistSpec, SimConfig, extract_corpus, run
from sandwichlab.detector import SwapLog
from sandwichlab.ingest import (
    DEFAULT_REGISTRY,
    SKIP,
    BridgeIntent,
    MalformedData,
    MissingOracleRequest,
    RawLogRecord,
    RunManifest,
    Skip,
    TOPIC_ORACLE_REQUEST,
    TOPIC_PANCAKE_V3_SWAP,
    TOPIC_UNISWAP_V2_SWAP,
    TOPIC_UNISWAP_V3_SWAP,
    UnknownSelector,
    decode_bridge_intent,
    decode_swap_log,
    encode_bridge_intent,
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

WORD = 32


def words(*values, signed=False):
    return "0x" + "".join(
        int(v).to_bytes(WORD, "big", signed=signed).hex() for v in values
    )


def raw(topic, data, topics_extra=(), **kwargs):
    defaults = dict(
        tx_hash="0x" + "ab" * 32,
        block_number=100,
        log_index=3,
        address="0x" + "11" * 20,
        topics=(topic, *topics_extra),
        data=data,
        chain_id=56,
        gas_price=10**9,
        timestamp=300.0,
    )
    defaults.update(kwargs)
    return RawLogRecord(**defaults)


class TestRegistry:
    # Every registry row, spelled out so a drifted constant fails loudly.
    EXPECTED_TOPICS = {
        ("Uniswap V2", "Swap"): "0xd78ad95fa46c994b6551d0da85fc275fe613ce37657fb8d5e3d130840159d822",
        ("PancakeSwap V2", "Swap"): "0xd78ad95fa46c994b6551d0da85fc275fe613ce37657fb8d5e3d130840159d822",
        ("Uniswap V3", "Swap"): "0xc42079f94a6350d7e6235f29174924f928cc2ac818eb64fed8004e115fbcca67",
        ("PancakeSwap V3", "Swap"): "0x19b47279256b2a23a1665c810c8d55a1758940ee09377d4f8d26497a3577dc83",
        ("Symbiosis", "OracleRequest"): "0x532dbb6d061eee97ab4370060f60ede10b3dc361cc1214c07ae5e34dd86e6aaf",
    }
    EXPECTED_SELECTORS = {
        ("Symbiosis", "metaMintSyntheticToken"): "0xc29a91bc",
        ("Symbiosis", "metaBurnSyntheticToken"): "0xe66bb550",
        ("Symbiosis", "receiveRequestV2Signed"): "0x84d61c97",
        ("Symbiosis", "metaUnsynthesize"): "0xc23a4c88",
        ("Symbiosis", "externalCall"): "0xf5b697a5",
        ("1inch", "swap"): "0x12aa3caf",
        ("1inch", "uniswapV3SwapTo"): "0xbc80f1a8",
        ("OpenOcean", "swap"): "0x90411a32",
        ("Uniswap V2", "swapExactTokensForTokens"): "0x38ed1739",
        ("Uniswap V2", "swapExactTokensForETH"): "0x18cbafe5",
    }

    def test_every_event_row_present(self):
        actual = {
            (e.protocol, e.event_name): e.topic for e in DEFAULT_REGISTRY.events
        }
        assert actual == self.EXPECTED_TOPICS

    def test_every_function_row_present(self):
        actual = {
            (f.protocol, f.function_name): f.selector
            for f in DEFAULT_REGISTRY.functions
        }
        assert actual == self.EXPECTED_SELECTORS

    def test_shared_v2_topic_keeps_both_rows(self):
        entries = DEFAULT_REGISTRY.layouts_for_topic(TOPIC_UNISWAP_V2_SWAP)
        assert {e.protocol for e in entries} == {"Uniswap V2", "PancakeSwap V2"}
        assert {e.layout for e in entries} == {"v2"}

    def test_unknown_selector_raises(self):
        with pytest.raises(UnknownSelector):
            DEFAULT_REGISTRY.function_by_selector("0xdeadbeef")


class TestDecodeSwapLog:
    def test_v2_token0_in(self):
        record = raw(TOPIC_UNISWAP_V2_SWAP, words(100, 0, 0, 97))
        log = decode_swap_log(record)
        assert isinstance(log, SwapLog)
        assert log.direction is Direction.X_FOR_Y
        assert log.token_in_amount == 100
        assert log.token_out_amount == 97

    def test_v2_token1_in(self):
        log = decode_swap_log(raw(TOPIC_UNISWAP_V2_SWAP, words(0, 200, 195, 0)))
        assert log.direction is Direction.Y_FOR_X
        assert log.token_in_amount == 200
        assert log.token_out_amount == 195

    def test_v2_both_inputs_nonzero_raises(self):
        with pytest.raises(MalformedData, match="ambiguous"):
            decode_swap_log(raw(TOPIC_UNISWAP_V2_SWAP, words(100, 200, 0, 97)))

    def test_v2_wrong_length_raises(self):
        with pytest.raises(MalformedData):
            decode_swap_log(raw(TOPIC_UNISWAP_V2_SWAP, words(1, 2, 3)))

    def test_v3_positive_amount0_in(self):
        data = words(100, -97, 0, 0, 0, signed=True)
        log = decode_swap_log(raw(TOPIC_UNISWAP_V3_SWAP, data))
        assert log.direction is Direction.X_FOR_Y
        assert log.token_in_amount == 100
        assert log.token_out_amount == 97

    def test_v3_negative_amount0_out(self):
        data = words(-95, 100, 0, 0, 0, signed=True)
        log = decode_swap_log(raw(TOPIC_PANCAKE_V3_SWAP, data))
        assert log.direction is Direction.Y_FOR_X
        assert log.token_in_amount == 100
        assert log.token_out_amount == 95

    def test_v3_short_data_raises(self):
        with pytest.raises(MalformedData):
            decode_swap_log(raw(TOPIC_UNISWAP_V3_SWAP, words(1, 2, 3, 4, signed=True)))

    def test_unknown_topic_skips(self):
        result = decode_swap_log(raw("0x" + "99" * 32, words(1, 2, 3, 4)))
        assert isinstance(result, Skip)
        assert result is SKIP

    def test_no_topics_skips(self):
        record = RawLogRecord(
            tx_hash="0x00",
            block_number=1,
            log_index=0,
            address="0x" + "11" * 20,
            topics=(),
            data="0x",
        )
        assert decode_swap_log(record) is SKIP

    def test_indexed_sender_recipient_from_topics(self):
        sender = "0x" + "00" * 12 + "ab" * 20
        recipient = "0x" + "00" * 12 + "cd" * 20
        record = raw(
            TOPIC_UNISWAP_V2_SWAP, words(5, 0, 0, 4), topics_extra=(sender, recipient)
        )
        log = decode_swap_log(record)
        assert log.sender == "0x" + "ab" * 20
        assert log.recipient == "0x" + "cd" * 20


class TestBridgeIntent:
    def _intent(self):
        return BridgeIntent(
            selector="0xc29a91bc",
            dest_chain_id=56,
            pool_addresses=("0x" + "11" * 20,),
            victim_in=10**18,
            min_return=99 * 10**16,
            recipient="0x" + "ee" * 20,
        )

    def test_round_trip(self):
        intent = self._intent()
        payload = encode_bridge_intent(intent)
        record = raw(TOPIC_ORACLE_REQUEST, payload)
        assert decode_bridge_intent([record]) == intent

    def test_missing_oracle_request(self):
        with pytest.raises(MissingOracleRequest):
            decode_bridge_intent([raw(TOPIC_UNISWAP_V2_SWAP, words(1, 0, 0, 1))])

    def test_unknown_selector(self):
        body = encode_bridge_intent(self._intent())[10:]
        with pytest.raises(UnknownSelector):
            decode_bridge_intent([raw(TOPIC_ORACLE_REQUEST, "0xdeadbeef" + body)])

    def test_malformed_body(self):
        with pytest.raises(MalformedData):
            decode_bridge_intent(
                [raw(TOPIC_ORACLE_REQUEST, "0xc29a91bc" + b"not json".hex())]
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
