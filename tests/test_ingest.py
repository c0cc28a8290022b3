import dataclasses
import json
import math
import re
import tempfile
from dataclasses import asdict, replace
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (
    pair_dict_oracle,
    pool_dict_oracle,
    record_dict_oracle,
    swap_log_dict_oracle,
    timeline_dict_oracle,
)
from sandwichlab import ingest
from sandwichlab.amm import MAX_AMOUNT, Direction, Overflow, Pool, PoolProtocol, SwapRequest
from sandwichlab.attack import PoolTimeline
from sandwichlab.bridge import AttackerConfig, BotConfig, DistSpec, SimConfig, extract_corpus, run
from sandwichlab.detector import Classification, CrossChainTx, SandwichPair, SwapLog, VictimHop
from sandwichlab.ingest import (
    MalformedData,
    RunManifest,
    _fraction_from_str,
    file_digest,
    iter_decoded,
    iter_pairs,
    iter_records,
    iter_swap_logs,
    iter_timelines,
    label_text,
    pair_from_dict,
    pair_to_dict,
    pool_from_dict,
    pool_to_dict,
    read_jsonl,
    record_from_dict,
    record_text,
    record_to_dict,
    swap_log_from_dict,
    swap_log_text,
    swap_log_to_dict,
    timeline_from_dict,
    timeline_text,
    timeline_to_dict,
    write_jsonl,
    write_lines,
    write_pairs_jsonl,
)


def _spelled_alike(derived: dict, reference: dict) -> bool:
    """Whether two dict forms are equal with their keys in the same
    order at every level, the order json.dumps writes unsorted."""
    return json.dumps(derived) == json.dumps(reference)


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


SWAP_LOG = SwapLog(
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


class TestCodecRoundTrips:
    def test_simulator_corpus_round_trips(self):
        trace, _ = run(small_sim_config())
        corpus = extract_corpus(trace)
        assert corpus.swap_logs and corpus.records and corpus.timelines
        for encode, oracle, decode, rows in (
            (swap_log_to_dict, swap_log_dict_oracle, swap_log_from_dict, corpus.swap_logs),
            (record_to_dict, record_dict_oracle, record_from_dict, corpus.records),
            (timeline_to_dict, timeline_dict_oracle, timeline_from_dict, corpus.timelines),
        ):
            for row in rows:
                assert _spelled_alike(encode(row), oracle(row))
                assert decode(json.loads(json.dumps(oracle(row)))) == row

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

    # int() read amount_in 1.5 as 1 and min_out true as 1, and the pool
    # reserves likewise; string fields passed whatever their JSON type
    @pytest.mark.parametrize(
        "where, key, value",
        [
            ("victim", "amount_in", 1.5),
            ("victim", "amount_in", True),
            ("victim", "amount_in", "1.5"),
            ("victim", "amount_in", " 100"),
            ("victim", "amount_in", "+100"),
            ("victim", "amount_in", "0"),
            ("victim", "min_out", True),
            ("victim", "min_out", "-1"),
            ("victim", "min_out", str(2**256)),
            ("victim", "sender", 5),
            ("victim", "recipient", None),
            ("pool", "reserve_x", 1.5),
            ("pool", "reserve_y", "1_000"),
            ("pool", "reserve_y", False),
            ("pool", "token_x", 5),
            ("pool", "address", ["0x11"]),
        ],
    )
    def test_timeline_rejects_bad_field(self, tmp_path, where, key, value):
        timeline = PoolTimeline(
            pool=Pool(token_x="X", token_y="Y", reserve_x=10**6, reserve_y=10**6),
            noisy_swaps=((Direction.Y_FOR_X, 7),),
            victim=SwapRequest(Direction.X_FOR_Y, 100, min_out=90),
            victim_tolerance=Fraction(1, 100),
        )
        row = json.loads(json.dumps(timeline_to_dict(timeline)))
        row[where][key] = value
        path = str(tmp_path / "timelines.jsonl")
        write_jsonl(path, [timeline_to_dict(timeline), row], RunManifest(command="simulate"))
        with pytest.raises(MalformedData, match=rf"^{re.escape(path)}:3: \w+: .*{key}"):
            list(iter_decoded(path, timeline_from_dict))

    @pytest.mark.parametrize(
        "entry, error",
        [
            ((Direction.X_FOR_Y, 0), ValueError),
            ((Direction.X_FOR_Y, -3), ValueError),
            ((Direction.X_FOR_Y, True), TypeError),
            ((Direction.X_FOR_Y, 1.0), TypeError),
            ((Direction.X_FOR_Y, MAX_AMOUNT + 1), Overflow),
            (("x_for_y", 5), TypeError),
        ],
    )
    def test_hand_built_timeline_rejects_bad_noise(self, entry, error):
        # replay_timeline applies noise unchecked, so the timeline checks it
        with pytest.raises(error, match="noisy_swaps"):
            PoolTimeline(
                pool=Pool(token_x="X", token_y="Y", reserve_x=10**6, reserve_y=10**6),
                noisy_swaps=((Direction.Y_FOR_X, 7), entry),
                victim=SwapRequest(Direction.X_FOR_Y, 100, min_out=90),
                victim_tolerance=Fraction(1, 100),
            )

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
        log = SWAP_LOG
        row = json.loads(json.dumps(swap_log_to_dict(log)))
        assert swap_log_from_dict(row) == log
        assert swap_log_from_dict({**row, "timestamp": 15}).timestamp == 15
        with pytest.raises(TypeError, match=key):
            swap_log_from_dict({**row, key: value})

    @pytest.mark.parametrize(
        "key, value, error",
        [
            *(
                (key, value, error)
                for key in ("token_in_amount", "token_out_amount", "gas_price")
                for value, error in (
                    ("5", TypeError),
                    (True, TypeError),
                    (1.5, TypeError),
                    (7.0, TypeError),
                    (None, TypeError),
                    (-3, ValueError),
                    (2**256, Overflow),
                    (2**300, Overflow),
                )
            ),
            ("token_in_amount", 0, ValueError),
        ],
        ids=lambda value: f"2**{value.bit_length() - 1}"
        if type(value) is int and value > 2**64
        else getattr(value, "__name__", None),
    )
    def test_swap_log_rejects_bad_amount(self, key, value, error):
        row = json.loads(json.dumps(swap_log_to_dict(SWAP_LOG)))
        assert swap_log_from_dict({**row, "token_in_amount": 1}).token_in_amount == 1
        for edge in (0, MAX_AMOUNT):
            assert swap_log_from_dict({**row, "token_out_amount": edge, "gas_price": edge}) == replace(
                SWAP_LOG, token_out_amount=edge, gas_price=edge
            )
        with pytest.raises(error, match=key):
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
        assert _spelled_alike(pool_to_dict(pool), pool_dict_oracle(pool))
        restored = pool_from_dict(json.loads(json.dumps(pool_to_dict(pool))))
        assert restored == pool
        assert restored.fee == Fraction(1, 400)

    def test_fraction_strings(self):
        # the sign stays for profit_rate; int() alone took " 3" and "3/"
        assert _fraction_from_str("-3/100") == Fraction(-3, 100)
        for value in (" 3/100", "3/100 ", "+3/100", "3/", "3/0", "3/-1", "1.5", "١/٢", 0):
            with pytest.raises(ValueError):
                _fraction_from_str(value)

    def test_pair_round_trip(self):
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
        assert _spelled_alike(pair_to_dict(pair), pair_dict_oracle(pair))
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
        assert _spelled_alike(pair_to_dict(bare), pair_dict_oracle(bare))
        assert pair_from_dict(json.loads(json.dumps(pair_to_dict(bare)))) == bare

    def test_reader_shares_equal_logs(self, tmp_path):
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
        path = str(tmp_path / "pairs.jsonl")
        write_pairs_jsonl(path, pairs, RunManifest(command="detect"))
        shared = list(iter_pairs(path))
        assert shared == [pair_from_dict(row) for row in read_jsonl(path)] == pairs
        assert shared[0].victim is shared[1].victim is shared[2].victim
        assert len({id(pair.front) for pair in shared}) == 3
        # one object per distinct log text: the victim, 3 fronts, 3 backs
        assert len(_log_ids(shared)) == 7

    def test_jsonl_header_and_round_trip(self, tmp_path):
        path = tmp_path / "logs.jsonl"
        rows = [{"a": 1}, {"b": 2}]
        manifest = RunManifest(command="test")
        write_jsonl(str(path), rows, manifest)
        text = path.read_text()
        assert text.startswith("# manifest-digest ")
        assert list(read_jsonl(str(path))) == rows


# json.dumps escapes each of these: a quote, a backslash, control
# characters, non-ASCII letters, a line separator, an astral character
# and a lone surrogate
_ESCAPED = st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\x7f", "é", "\u2028", "😀", "\ud800"])
# JSON writes a high surrogate followed by a low one as the escapes of
# the astral character they pair into, so such a string reads back as
# that one character: no JSON codec can tell them apart
_texts = (
    st.lists(st.one_of(_ESCAPED, st.characters()), max_size=4)
    .map("".join)
    .filter(lambda text: not re.search("[\ud800-\udbff][\udc00-\udfff]", text))
)
# a swap log's amounts are uint256s with a nonzero input; a profit may
# be negative
_amounts = st.integers(min_value=0, max_value=2**80)
_profits = st.integers(min_value=-(2**80), max_value=2**80)
_swap_logs = st.builds(
    SwapLog,
    tx_hash=_texts,
    block_number=st.integers(0, 10**12),
    log_index=st.integers(0, 10**6),
    pool_address=_texts,
    chain_id=st.integers(0, 10**6),
    direction=st.sampled_from(Direction),
    token_in_amount=_amounts.filter(bool),
    token_out_amount=_amounts,
    sender=_texts,
    recipient=_texts,
    gas_price=_amounts,
    timestamp=st.one_of(
        st.integers(-(2**60), 2**60), st.floats(allow_nan=False, allow_infinity=False)
    ),
)


@st.composite
def _pair_lists(draw):
    """Pairs whose logs are drawn from a small shared set or made fresh,
    each pair priced (all three profit fields) or unpriced."""
    shared = draw(st.lists(_swap_logs, min_size=1, max_size=3))
    logs = st.one_of(st.sampled_from(shared), _swap_logs)
    pairs = []
    for _ in range(draw(st.integers(0, 4))):
        priced = draw(st.booleans())
        pairs.append(
            SandwichPair(
                record_id=draw(_texts),
                pool_address=draw(_texts),
                front=draw(logs),
                victim=draw(logs),
                back=draw(logs),
                classification=draw(st.sampled_from(Classification)),
                token_in=draw(_texts),
                front_window_start_block=draw(st.integers(-(2**40), 2**40)),
                profit_token=draw(_profits) if priced else None,
                profit_rate=draw(st.fractions()) if priced else None,
                profit_usd=draw(st.decimals(allow_nan=False, allow_infinity=False))
                if priced
                else None,
            )
        )
    return pairs


def _logs(pairs):
    return [log for p in pairs for log in (p.front, p.victim, p.back)]


def _timestamp_types(pairs):
    return [type(log.timestamp) for log in _logs(pairs)]


def _log_ids(pairs):
    return {id(log) for log in _logs(pairs)}


def _window_rises(pairs):
    """Whether some pair's front_window_start_block is above that of the
    pair of its pool before it."""
    starts = {}
    for pair in pairs:
        last = starts.setdefault(pair.pool_address, pair.front_window_start_block)
        if pair.front_window_start_block > last:
            return True
        starts[pair.pool_address] = pair.front_window_start_block
    return False


def _log_texts(pairs):
    """Each decoded log's id -> the text json.dumps writes for it."""
    return {id(log): json.dumps(swap_log_to_dict(log), sort_keys=True) for log in _logs(pairs)}


class TestPairsWriter:
    @settings(max_examples=150, deadline=None)
    @given(pairs=_pair_lists())
    def test_rows_are_json_dumps_of_pair_to_dict_and_decode_back(self, pairs):
        manifest = RunManifest(command="detect", config={"num_blocks": 100})
        for pair in pairs:
            assert _spelled_alike(pair_to_dict(pair), pair_dict_oracle(pair))
        with tempfile.TemporaryDirectory() as tmp:
            new, old = Path(tmp, "new.jsonl"), Path(tmp, "old.jsonl")
            write_pairs_jsonl(str(new), pairs, manifest)
            write_jsonl(str(old), map(pair_dict_oracle, pairs), manifest)
            assert new.read_bytes() == old.read_bytes()
            shared = list(iter_pairs(str(new)))
            plain = [pair_from_dict(row) for row in read_jsonl(str(new))]
        assert shared == plain == pairs
        assert _timestamp_types(shared) == _timestamp_types(plain) == _timestamp_types(pairs)
        # one shared object per distinct log text, and no more, while no
        # pool's window start rises (a rise forgets the logs below it)
        if not _window_rises(pairs):
            texts = _log_texts(shared)
            assert len(set(texts.values())) == len(texts)

    def test_equal_profits_written_apart_are_not_shared(self, tmp_path):
        # Decimal("1") == Decimal("1.0"), but each writes its own text
        pair = SandwichPair(
            record_id="r1",
            pool_address=SWAP_LOG.pool_address,
            front=SWAP_LOG,
            victim=SWAP_LOG,
            back=SWAP_LOG,
            classification=Classification.CROSS_CHAIN,
            token_in="WETH",
            front_window_start_block=3,
            profit_token=1,
            profit_rate=Fraction(1, 2),
            profit_usd=Decimal("1"),
        )
        pairs = [pair, replace(pair, profit_usd=Decimal("1.0")), pair]
        new, old = tmp_path / "new.jsonl", tmp_path / "old.jsonl"
        write_pairs_jsonl(str(new), pairs)
        write_jsonl(str(old), map(pair_dict_oracle, pairs))
        assert new.read_bytes() == old.read_bytes()
        assert '"profit_usd": "1.0"' in new.read_text().splitlines()[1]


def _window_log(
    pool: str, block: int, index: int, direction: Direction, own_account: bool = False
) -> SwapLog:
    # with own_account, each log's sender and recipient are an account
    # of its own, as the simulator gives each victim
    account = f"0xuser{block:032x}{index:04x}" if own_account else "0x" + "aa" * 20
    return SwapLog(
        tx_hash=f"0x{pool[-2:]}{block:08x}{index:04x}",
        block_number=block,
        log_index=index,
        pool_address=pool,
        chain_id=56,
        direction=direction,
        token_in_amount=10**18 + index,
        token_out_amount=10**18 - index,
        sender=account,
        recipient=account,
        gas_price=10**9,
        timestamp=3.0 * block,
    )


def _record_pairs(pool: str, record: int, width: int = 3, own_accounts: bool = False):
    """The pairs of record on pool: its window starts at block 10 *
    record, with width fronts there, its victim one block later and
    width backs one block after that; front i pairs with back i."""
    start = 10 * record
    victim = _window_log(pool, start + 1, 0, Direction.X_FOR_Y, own_accounts)
    for index in range(width):
        yield SandwichPair(
            record_id=f"{pool[-2:]}-{record}",
            pool_address=pool,
            front=_window_log(pool, start, index, Direction.X_FOR_Y, own_accounts),
            victim=victim,
            back=_window_log(pool, start + 2, index, Direction.Y_FOR_X, own_accounts),
            classification=Classification.CROSS_CHAIN,
            token_in="WETH",
            front_window_start_block=start,
        )


class TestPairsMemoFollowsWindows:
    """The pairs writer and reader forget each pool's logs below its
    current front window. That changes no byte written and no value
    read, and their memory does not grow with the records."""

    POOL_A, POOL_B = "0x" + "11" * 20, "0x" + "22" * 20

    def test_window_starts_going_back_change_nothing(self, tmp_path, monkeypatch):
        from sandwichlab import ingest

        a1, a2 = list(_record_pairs(self.POOL_A, 1)), list(_record_pairs(self.POOL_A, 2))
        b1, b2 = list(_record_pairs(self.POOL_B, 1)), list(_record_pairs(self.POOL_B, 2))
        # the two pools interleaved, and A's record 1 again after its
        # record 2: A's window start rises, falls back and rises again
        pairs = [*a1[:2], *b1, *a1[2:], *a2, *b2, *a1, *a2]
        encoded = []

        def counted(log):
            encoded.append(log)
            return swap_log_text(log)

        monkeypatch.setattr(ingest, "swap_log_text", counted)
        new, old = tmp_path / "new.jsonl", tmp_path / "old.jsonl"
        manifest = RunManifest(command="detect")
        assert write_pairs_jsonl(str(new), pairs, manifest) == len(pairs)
        monkeypatch.undo()
        write_jsonl(str(old), map(pair_to_dict, pairs), manifest)
        assert new.read_bytes() == old.read_bytes()
        # 28 distinct logs (7 per record); A's record 1 was forgotten
        # when A's window rose past it, so its 7 logs are encoded again
        assert len(set(map(id, encoded))) == 28
        assert len(encoded) == 28 + 7

        read = list(iter_pairs(str(new)))
        assert read == list(iter_decoded(str(new), pair_from_dict)) == pairs
        first_a1, later_a1 = read[0], read[-len(a2) - 1]
        assert first_a1.victim is read[1].victim  # shared within a window
        assert later_a1.victim == first_a1.victim
        assert later_a1.victim is not first_a1.victim  # decoded again

    @staticmethod
    def forward(records: int, own_accounts: bool = False):
        """records records, one pool, each window past the one before and
        over logs of its own; each log is made when its record is."""
        for record in range(records):
            yield from _record_pairs(
                TestPairsMemoFollowsWindows.POOL_A, record, own_accounts=own_accounts
            )

    @staticmethod
    def peak(run) -> int:
        import tracemalloc

        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_writer_peak_heap_does_not_grow_with_records(self, tmp_path):
        """Calibration, R = 300: a writer that kept every log's text grew
        its traced peak 4.2-fold from R to 4R records (1.78 MB to
        7.41 MB); this one by under 1% (31 KB)."""
        path = str(tmp_path / "pairs.jsonl")

        def peak(records: int) -> int:
            return self.peak(lambda: write_pairs_jsonl(path, self.forward(records)))

        records = 300
        peak(records)  # one-time caches
        small, large = peak(records), peak(4 * records)
        assert large <= 1.25 * small, (small, large)

    def test_reader_peak_heap_does_not_grow_with_records(self, tmp_path):
        """Calibration, R = 300: a reader that kept every decoded log grew
        its traced peak 4.0-fold from R to 4R records (1.76 MB to
        7.02 MB); this one by under 1% (35 KB). With an account of its
        own in each log, as the simulator gives each victim, a reader
        that shared the logs' strings through one memo for the whole read
        grew 3.7-fold (274 KB to 1.00 MB)."""
        from collections import deque

        def peak(records: int, own_accounts: bool) -> int:
            path = str(tmp_path / f"pairs-{records}.jsonl")
            write_pairs_jsonl(path, self.forward(records, own_accounts))
            return self.peak(lambda: deque(iter_pairs(path), maxlen=0))

        records = 300
        for own_accounts in (False, True):
            peak(records, own_accounts)  # one-time caches
            small, large = peak(records, own_accounts), peak(4 * records, own_accounts)
            assert large <= 1.25 * small, (own_accounts, small, large)


class TestWritesAreAllOrNothing:
    """A writer publishes its file only after the last row: a row
    source or a write that raises leaves neither the file nor a
    temporary one, and an older file at the path stays as it was."""

    @staticmethod
    def rows_then_fail(rows):
        yield from rows[:2]
        raise RuntimeError("row source failed")

    def pair(self, index: int) -> SandwichPair:
        return SandwichPair(
            record_id=f"r{index}",
            pool_address=SWAP_LOG.pool_address,
            front=SWAP_LOG,
            victim=SWAP_LOG,
            back=SWAP_LOG,
            classification=Classification.CROSS_CHAIN,
            token_in="WETH",
            front_window_start_block=3,
        )

    def test_write_lines_failing_midway(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        with pytest.raises(RuntimeError, match="row source failed"):
            write_lines(str(path), self.rows_then_fail(["1", "2", "3"]), RunManifest(command="t"))
        assert list(tmp_path.iterdir()) == []

    def test_write_pairs_jsonl_failing_midway(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        pairs = [self.pair(index) for index in range(3)]
        with pytest.raises(RuntimeError, match="row source failed"):
            write_pairs_jsonl(str(path), self.rows_then_fail(pairs), RunManifest(command="detect"))
        assert list(tmp_path.iterdir()) == []

    def test_failure_keeps_the_older_file(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        assert write_jsonl(str(path), [{"a": 1}]) == 1
        with pytest.raises(RuntimeError):
            write_jsonl(str(path), self.rows_then_fail([{"b": 2}, {"c": 3}, {"d": 4}]))
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_text() == '{"a": 1}\n'

    def test_counts_rows_and_replaces(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        path.write_text("stale\n")
        pairs = [self.pair(index) for index in range(3)]
        assert write_pairs_jsonl(str(path), iter(pairs)) == 3
        assert list(tmp_path.iterdir()) == [path]
        assert list(iter_pairs(str(path))) == pairs


def _canonical(log: SwapLog) -> dict:
    return json.loads(json.dumps(swap_log_to_dict(log)))


# chain_id 56, so that a row with chain_id 1 differs from it
_LOG = replace(SWAP_LOG, chain_id=56)
_PAIR_FIELDS = {
    "record_id": "r1",
    "pool_address": _LOG.pool_address,
    "classification": "cross_chain",
    "token_in": "WETH",
    "front_window_start_block": 3,
    "profit_token": None,
    "profit_rate": None,
    "profit_usd": None,
}


def _row_text(front, victim, back, **fields) -> str:
    return json.dumps(
        {**_PAIR_FIELDS, "front": front, "victim": victim, "back": back, **fields},
        sort_keys=True,
    )


_ROW = _row_text(_canonical(_LOG), _canonical(_LOG), _canonical(_LOG))


def _row_with(front=_canonical(_LOG), victim=_canonical(_LOG), back=_canonical(_LOG), **fields):
    return _row_text(front, victim, back, **fields)


# lines other than _ROW: each must read as json.loads and pair_from_dict
# read it, to the same pair or the same error
_OTHER_LINES = {
    # whitespace around a canonical row, which every reader strips
    "spaces around": f" {_ROW} ",
    "lone CR": _ROW + "\r",
    # other layouts of the same row
    "reordered keys": json.dumps(dict(reversed(json.loads(_ROW).items()))),
    "no spaces": _ROW.replace(": ", ":"),
    "extra spaces": _ROW.replace(", ", " ,  "),
    "escape json.dumps would not write": _ROW.replace('"WETH"', '"W\\u0045TH"'),
    "15 for 15.0": _ROW.replace("15.0", "15", 1),
    "1.5e1 for 15.0": _ROW.replace("15.0", "1.5e1", 1),
    "profit_token 007": _row_with(profit_token="007"),
    "profit_rate 2/4": _row_with(profit_rate="2/4"),
    # canonical rows with other values
    "int and float timestamps": _row_with(victim={**_canonical(_LOG), "timestamp": 15}),
    "profit_token -7": _row_with(profit_token="-7"),
    "separators in log strings": _row_with(
        front={**_canonical(_LOG), "sender": '}, "victim": {'},
        back={**_canonical(_LOG), "sender": '}, "classification": "x", "front": {'},
    ),
    "separators in a row string": _row_with(token_in='"}, "victim": {'),
    # duplicate and extra keys, in the row and in a log
    "duplicate front": _ROW.replace('"front": {', '"front": {"x": 1}, "front": {'),
    "duplicate victim": _ROW.replace('"victim": ', '"victim": {"front": 1}, "victim": '),
    "duplicate log key": _ROW.replace('"front": {', '"front": {"block_number": 4, '),
    "extra row key": _row_with(extra=1),
    "extra log key": _row_with(front={**_canonical(_LOG), "extra": 1}),
    # values of another JSON type or out of range
    "true for a log int": _row_with(victim={**_canonical(_LOG), "log_index": True}),
    "true for front_window_start_block": _row_with(front_window_start_block=True),
    "1.5 for front_window_start_block": _row_with(front_window_start_block=1.5),
    "true for profit_token": _row_with(profit_token=True),
    "padded profit_token": _row_with(profit_token=" 7"),
    "NaN profit_usd": _row_with(profit_usd="NaN"),
    "padded profit_usd": _row_with(profit_usd=" 1_0"),
    "profit_usd 3_000": _row_with(profit_usd="3_000"),
    "Arabic-Indic profit_usd": _row_with(profit_usd="\u0663\u0660\u0660"),
    "profit_usd -1.5E-7": _row_with(profit_usd="-1.5E-7"),
    "int record_id": _row_with(record_id=5),
    "bad classification": _row_with(classification="x"),
    "zero front input": _row_with(front={**_canonical(_LOG), "token_in_amount": 0}),
    # lines that are not a row
    "cut short": _ROW[:-1],
    "wrong closing bracket": _ROW[:-1] + "]",
    "back only": '{"back": 1}',
    "array": "[1]",
}


def _read_both(path: Path, lines: list[str]):
    """Write lines (after a header) and read them with iter_pairs and with
    the general decoder: (pairs or MalformedData text) for each."""
    path.write_bytes(("# manifest-digest 0\n" + "".join(lines)).encode())

    def outcome(read):
        try:
            return list(read())
        except MalformedData as exc:
            return str(exc)

    fast = outcome(lambda: iter_pairs(str(path)))
    general = outcome(lambda: iter_decoded(str(path), pair_from_dict))
    return fast, general


def _written(path: Path, pair: SandwichPair):
    """The row write_pairs_jsonl writes for pair; None if it cannot (a
    field of another type than SandwichPair declares)."""
    try:
        write_pairs_jsonl(str(path), [pair])
    except TypeError:
        return None
    return path.read_text().rstrip("\n")


class TestPairsReader:
    """iter_pairs reads write_pairs_jsonl's rows fast and every other row
    as iter_decoded(path, pair_from_dict) does."""

    def test_memo_keeps_rows_with_one_position_apart(self, tmp_path):
        row = _canonical(_LOG)
        path = tmp_path / "pairs.jsonl"
        lines: list[str] = []

        def read(front, victim, back):
            """Append a row to the file and read it all; the last pair."""
            lines.append(_row_text(front, victim, back))
            path.write_text("# manifest-digest 0\n" + "\n".join(lines) + "\n")
            return list(iter_pairs(str(path)))[-1]

        def rejects(front, victim, back, key):
            """A row after those read so far fails on key, naming its line."""
            bad = [*lines, _row_text(front, victim, back)]
            path.write_text("# manifest-digest 0\n" + "\n".join(bad) + "\n")
            with pytest.raises(MalformedData, match=rf"^{path}:{len(bad) + 1}: TypeError: {key}"):
                list(iter_pairs(str(path)))

        bigger = {**row, "token_in_amount": 11}
        first = read(row, row, bigger)
        assert first.front is first.victim
        assert first.back is not first.front
        assert (first.front.token_in_amount, first.back.token_in_amount) == (10, 11)
        # equal in Python, not in JSON: decoded as without the memo
        int_time = {**row, "timestamp": 15}
        second = read(row, int_time, row)
        assert type(second.front.timestamp) is float and type(second.victim.timestamp) is int
        for key in ("block_number", "log_index"):
            rejects(row, {**row, key: float(row[key])}, row, key)
        one = {**row, "chain_id": 1}
        read(one, one, one)
        rejects(one, {**one, "chain_id": True}, one, "chain_id")
        # an amount equal in Python to a stored valid one must still fail
        unit = {**row, "token_in_amount": 1, "token_out_amount": 1, "gas_price": 0}
        read(unit, unit, unit)
        for key, value in (("token_in_amount", True), ("token_out_amount", 1.0), ("gas_price", False)):
            rejects(unit, {**unit, key: value}, unit, key)

    @pytest.mark.parametrize("name", list(_OTHER_LINES))
    def test_other_line_reads_as_the_general_path(self, tmp_path, name):
        line = _OTHER_LINES[name]
        # the line between two canonical rows, so an error names line 3
        lines = [_ROW + "\n", line + "\r\n", _ROW + "\n"]
        fast, general = _read_both(tmp_path / "pairs.jsonl", lines)
        assert fast == general
        if isinstance(fast, list):
            assert _timestamp_types(fast) == _timestamp_types(general)
            # a row in the writer's layout once stripped shares each log
            # whose text it has in common with the rows around it; any
            # other row is decoded apart from them
            around = _log_ids(fast[::2])
            written = line.strip() == _written(tmp_path / "written.jsonl", fast[1])
            for log in _logs(fast[1:2]):
                same_text = log == _LOG and type(log.timestamp) is float
                assert (id(log) in around) == (written and same_text)
        else:
            assert fast.startswith(f"{tmp_path / 'pairs.jsonl'}:3: "), fast

    @pytest.mark.parametrize(
        "name", ["NaN profit_usd", "padded profit_usd", "profit_usd 3_000", "Arabic-Indic profit_usd"]
    )
    def test_profit_usd_outside_the_number_rule_fails(self, tmp_path, name):
        # Decimal() read each of these on both paths
        fast, _ = _read_both(tmp_path / "pairs.jsonl", [_ROW + "\n", _OTHER_LINES[name] + "\n"])
        assert fast.startswith(
            f"{tmp_path / 'pairs.jsonl'}:3: ValueError: profit_usd must be a finite decimal number"
        ), fast

    # rows of one record whose own fields differ from an earlier row's,
    # which iter_pairs has kept, in one of the two runs between the logs
    _BASE = _row_with(front_window_start_block=15)
    _POOL = json.dumps(_LOG.pool_address)
    _OWN_VARIANTS = {
        "15.0 for 15": _BASE.replace('block": 15,', 'block": 15.0,'),
        "true for 15": _BASE.replace('block": 15,', 'block": true,'),
        "extra space in the tail": _BASE.replace('block": 15,', 'block":  15,'),
        "extra space in the head": _BASE.replace('"classification": ', '"classification":  '),
        "swapped key order": _BASE.replace(
            f'"pool_address": {_POOL}, "profit_rate": null',
            f'"profit_rate": null, "pool_address": {_POOL}',
        ),
        "profit_usd 1 for null": _BASE.replace('"profit_usd": null', '"profit_usd": "1"'),
        "other classification": _BASE.replace('"cross_chain"', '"single_chain"'),
        "classification one byte off": _BASE.replace('"cross_chain"', '"cross_chaim"'),
        # json.loads keeps the last of two keys: this row's back is the
        # second log
        "second back in the tail": _BASE.replace(
            '"token_in": "WETH"',
            f'"token_in": "WETH", "back": {json.dumps(_canonical(replace(_LOG, chain_id=1)))}',
        ),
        "trailing character after }": _BASE + "x",
        "closing } replaced": _BASE[:-1] + "x",
    }

    @pytest.mark.parametrize("name", list(_OWN_VARIANTS))
    def test_own_field_memo_reads_as_the_general_path(self, tmp_path, name):
        variant = self._OWN_VARIANTS[name]
        # the variant twice, so that a second sight of its runs is read too
        lines = [self._BASE + "\n", variant + "\n", variant + "\n", self._BASE + "\n"]
        fast, general = _read_both(tmp_path / "pairs.jsonl", lines)
        assert fast == general
        if isinstance(fast, list):
            # only a row in the writer's layout shares the kept logs
            written = variant == _written(tmp_path / "written.jsonl", fast[1])
            assert written == (name in ("profit_usd 1 for null", "other classification"))
            around = _log_ids(fast[::3])
            for log in _logs(fast[1:3]):
                assert (id(log) in around) == written
        else:
            assert fast.startswith(f"{tmp_path / 'pairs.jsonl'}:3: "), fast


# token amounts at the edges of the 256-bit range as well as in between
_token_amounts = st.one_of(
    st.sampled_from([0, 1, 2**53 + 1, MAX_AMOUNT]), st.integers(0, MAX_AMOUNT)
)
_positive_amounts = _token_amounts.filter(bool)
_timestamps = st.one_of(
    st.integers(0, 2**40), st.floats(0, 2**40, allow_nan=False, allow_infinity=False)
)
_wide_swap_logs = st.builds(
    SwapLog,
    tx_hash=_texts,
    block_number=st.integers(0, 10**12),
    log_index=st.integers(0, 10**6),
    pool_address=_texts,
    chain_id=st.integers(0, 10**6),
    direction=st.sampled_from(Direction),
    token_in_amount=_positive_amounts,
    token_out_amount=_token_amounts,
    sender=_texts,
    recipient=_texts,
    gas_price=_token_amounts,
    timestamp=_timestamps,
)
# any string, surrogate pairs and lone surrogates included: the text
# need only equal what json.dumps writes, not read back
_any_texts = st.lists(st.one_of(_ESCAPED, st.characters(), st.just("\udc00")), max_size=5).map(
    "".join
)
_edge_floats = st.sampled_from([1e16, 5e-324, -0.0, 0.0, 1e-7, 2.0**53 + 2, 1.7976931348623157e308])


_text_swap_logs = st.builds(
    SwapLog,
    tx_hash=_any_texts,
    block_number=st.integers(0, 2**64),
    log_index=st.integers(0, 2**32),
    pool_address=_any_texts,
    chain_id=st.integers(0, 2**64),
    direction=st.sampled_from(Direction),
    token_in_amount=_positive_amounts,
    token_out_amount=_token_amounts,
    sender=_any_texts,
    recipient=_any_texts,
    gas_price=_token_amounts,
    timestamp=st.one_of(
        st.integers(-(2**63), 2**63), _edge_floats, st.floats(allow_nan=False, allow_infinity=False)
    ),
)


class TestSwapLogText:
    @settings(max_examples=300, deadline=None)
    @given(log=_text_swap_logs)
    def test_is_json_dumps_of_swap_log_to_dict(self, log):
        assert _spelled_alike(swap_log_to_dict(log), swap_log_dict_oracle(log))
        assert swap_log_text(log) == json.dumps(swap_log_dict_oracle(log), sort_keys=True)



_hops = st.builds(
    VictimHop,
    pool_address=_texts,
    token_in=_texts,
    token_out=_texts,
    direction=st.sampled_from(Direction),
    amount_in=_token_amounts,
    amount_out=_token_amounts,
    min_return=_token_amounts,
)


@st.composite
def _records(draw):
    src_timestamp = draw(_timestamps)
    return CrossChainTx(
        record_id=draw(_texts),
        src_tx_hash=draw(_texts),
        src_chain_id=draw(st.integers(0, 10**6)),
        src_block_number=draw(st.integers(0, 10**12)),
        src_timestamp=src_timestamp,
        dst_tx_hash=draw(_texts),
        dst_chain_id=draw(st.integers(0, 10**6)),
        dst_block_number=draw(st.integers(0, 10**12)),
        # the destination never precedes the source
        dst_timestamp=src_timestamp + draw(st.sampled_from([0, 1, 0.5, 10**6])),
        dst_gas_price=draw(_token_amounts),
        hops=tuple(draw(st.lists(_hops, min_size=1, max_size=3))),
    )


_fees = st.fractions(min_value=0, max_value=Fraction(9999, 10_000), max_denominator=10**6)
_timelines = st.builds(
    PoolTimeline,
    pool=st.builds(
        Pool,
        token_x=_texts,
        token_y=_texts,
        reserve_x=_positive_amounts,
        reserve_y=_positive_amounts,
        fee=_fees,
        address=_texts,
        protocol=st.sampled_from(PoolProtocol),
    ),
    noisy_swaps=st.lists(
        st.tuples(st.sampled_from(Direction), _positive_amounts), max_size=4
    ).map(tuple),
    victim=st.builds(
        SwapRequest,
        direction=st.sampled_from(Direction),
        amount_in=_positive_amounts,
        min_out=_token_amounts,
        sender=_texts,
        recipient=_texts,
    ),
    # the decoder takes a tolerance in (0, 1) only
    victim_tolerance=st.fractions(0, 1, max_denominator=10**6).filter(lambda s: 0 < s < 1),
)


_text_timestamps = st.one_of(
    st.integers(-(2**63), 2**63), _edge_floats, st.floats(allow_nan=False, allow_infinity=False)
)
_text_hops = st.builds(
    VictimHop,
    pool_address=_any_texts,
    token_in=_any_texts,
    token_out=_any_texts,
    direction=st.sampled_from(Direction),
    amount_in=_token_amounts,
    amount_out=_token_amounts,
    min_return=_token_amounts,
)


@st.composite
def _text_records(draw):
    # CrossChainTx takes a destination no earlier than the source; each
    # timestamp keeps its own type, int or float
    src_timestamp, dst_timestamp = sorted([draw(_text_timestamps), draw(_text_timestamps)])
    return CrossChainTx(
        record_id=draw(_any_texts),
        src_tx_hash=draw(_any_texts),
        src_chain_id=draw(st.integers(0, 2**64)),
        src_block_number=draw(st.integers(0, 2**64)),
        src_timestamp=src_timestamp,
        dst_tx_hash=draw(_any_texts),
        dst_chain_id=draw(st.integers(0, 2**64)),
        dst_block_number=draw(st.integers(0, 2**64)),
        dst_timestamp=dst_timestamp,
        dst_gas_price=draw(_token_amounts),
        hops=tuple(draw(st.lists(_text_hops, min_size=1, max_size=3))),
    )


_text_timelines = st.builds(
    PoolTimeline,
    pool=st.builds(
        Pool,
        token_x=_any_texts,
        token_y=_any_texts,
        reserve_x=_positive_amounts,
        reserve_y=_positive_amounts,
        fee=_fees,
        address=_any_texts,
        protocol=st.sampled_from(PoolProtocol),
    ),
    noisy_swaps=st.lists(
        st.tuples(st.sampled_from(Direction), _positive_amounts), max_size=6
    ).map(tuple),
    victim=st.builds(
        SwapRequest,
        direction=st.sampled_from(Direction),
        amount_in=_positive_amounts,
        min_out=_token_amounts,
        sender=_any_texts,
        recipient=_any_texts,
    ),
    victim_tolerance=st.fractions(),
)
_optional_blocks = st.none() | st.integers(0, 2**64)
_optional_hashes = st.none() | _any_texts
_text_labels = st.fixed_dictionaries(
    {
        "victim_id": st.integers(0, 2**64),
        "record_id": _any_texts,
        "victim_tx": _any_texts,
        "attacker_front_tx": _optional_hashes,
        "attacker_back_tx": _optional_hashes,
        "attacker_front_block": _optional_blocks,
        "attacker_back_block": _optional_blocks,
        "bot_front_tx": _optional_hashes,
        "bot_back_tx": _optional_hashes,
    }
)
# estimate-50pool's whole-second block times make int timestamps
_INT_TIME_RECORD = CrossChainTx(
    record_id="rec-1",
    src_tx_hash="0x01",
    src_chain_id=1,
    src_block_number=5,
    src_timestamp=60,
    dst_tx_hash="0x02",
    dst_chain_id=56,
    dst_block_number=24,
    dst_timestamp=72,
    dst_gas_price=3 * 10**9,
    hops=(VictimHop("0x" + "11" * 20, "P0X", "P0Y", Direction.X_FOR_Y, 10**15, 2, 1),) * 2,
)


class TestRowTexts:
    """Each simulate row encoder, and each dict form, against json.dumps
    of the reference dict form in _oracles."""

    @settings(max_examples=150, deadline=None)
    @given(record=_text_records())
    @example(record=_INT_TIME_RECORD)
    def test_record_text_is_json_dumps_of_record_to_dict(self, record):
        assert _spelled_alike(record_to_dict(record), record_dict_oracle(record))
        assert record_text(record) == json.dumps(record_dict_oracle(record), sort_keys=True)

    @settings(max_examples=150, deadline=None)
    @given(timeline=_text_timelines)
    def test_timeline_text_is_json_dumps_of_timeline_to_dict(self, timeline):
        assert _spelled_alike(timeline_to_dict(timeline), timeline_dict_oracle(timeline))
        assert timeline_text(timeline) == json.dumps(timeline_dict_oracle(timeline), sort_keys=True)

    @settings(max_examples=200, deadline=None)
    @given(label=_text_labels)
    def test_label_text_is_json_dumps_of_the_label(self, label):
        assert label_text(label) == json.dumps(label, sort_keys=True)

    def test_simulated_rows(self):
        corpus = extract_corpus(run(small_sim_config())[0])
        assert corpus.records and corpus.timelines and corpus.labels
        for encode, spec, rows in (
            (swap_log_text, swap_log_dict_oracle, corpus.swap_logs),
            (record_text, record_dict_oracle, corpus.records),
            (timeline_text, timeline_dict_oracle, corpus.timelines),
            (label_text, dict, corpus.labels),
        ):
            for row in rows:
                assert encode(row) == json.dumps(spec(row), sort_keys=True)



# each row kind's table in ingest and the class it reads and writes
_ROW_TABLES = {
    "swap log": (ingest._SWAP_LOG, SwapLog),
    "hop": (ingest._HOP, VictimHop),
    "record": (ingest._RECORD, CrossChainTx),
    "pool": (ingest._POOL, Pool),
    "timeline victim": (ingest._VICTIM, SwapRequest),
    "timeline": (ingest._TIMELINE, PoolTimeline),
    "pair": (ingest._PAIR, SandwichPair),
}


def _names_its_fields(table: dict, cls: type) -> bool:
    """Whether table names exactly the fields of cls, in their order:
    a builder passes the fields by position."""
    return list(table) == list(cls.__match_args__)


class TestRowTables:
    """The tables that ingest derives each row's dict form, writer text,
    row pattern and builder from name exactly their rows' fields."""

    @pytest.mark.parametrize("name", sorted(_ROW_TABLES))
    def test_each_table_names_its_class_fields(self, name):
        assert _names_its_fields(*_ROW_TABLES[name])

    def test_pair_table_owns_the_decoders_own_fields(self):
        # _OWN_KEYS comes from the table: check it against the class
        own = set(SandwichPair.__match_args__) - {"front", "victim", "back"}
        assert ingest._OWN_KEYS == own

    def test_label_table_names_the_nine_label_keys(self):
        corpus = extract_corpus(run(small_sim_config())[0])
        assert corpus.labels
        assert all(list(label) == list(ingest._LABEL) for label in corpus.labels)
        assert len(ingest._LABEL) == 9

    def test_a_field_added_to_a_class_but_not_its_table_fails(self):
        fields = [(field.name, field.type) for field in dataclasses.fields(SwapLog)]
        wider = dataclasses.make_dataclass("SwapLog", [*fields, ("added_field", int)], slots=True)
        assert not _names_its_fields(ingest._SWAP_LOG, wider)


def _through_file(objects, encode, oracle, decode):
    """objects decoded from a file of their reference dict forms, which
    encode, the derived dict form, must spell alike."""
    rows = list(map(oracle, objects))
    assert all(map(_spelled_alike, map(encode, objects), rows))
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp, "rows.jsonl"))
        write_jsonl(path, rows, RunManifest(command="simulate"))
        return list(iter_decoded(path, decode))


class TestReadersShareStrings:
    """iter_swap_logs and iter_records give equal addresses and tokens
    one str object within a read, and share nothing else: a memo keyed
    by value would turn 15 into 15.0, or true into 1."""

    def test_equal_log_strings_are_one_object_within_a_read(self, tmp_path):
        path = tmp_path / "logs.jsonl"
        logs = [replace(SWAP_LOG, log_index=i, timestamp=t) for i, t in enumerate([15, 15.0])]
        write_lines(str(path), map(swap_log_text, logs))
        first, second = iter_swap_logs(str(path))
        assert (first, second) == tuple(logs)
        assert first.pool_address is second.pool_address
        assert first.sender is first.recipient is second.sender is second.recipient
        assert (type(first.timestamp), type(second.timestamp)) == (int, float)
        assert list(map(swap_log_text, (first, second))) == path.read_text().splitlines()
        # each read has its own memo, and a plain decode shares nothing
        assert next(iter_swap_logs(str(path))).pool_address is not first.pool_address
        plain = list(iter_decoded(str(path), swap_log_from_dict))
        assert plain[0].pool_address is not plain[1].pool_address

    def test_equal_hop_strings_are_one_object_within_a_read(self, tmp_path):
        path = tmp_path / "records.jsonl"
        records = [_INT_TIME_RECORD, replace(_INT_TIME_RECORD, record_id="rec-2", dst_timestamp=72.0)]
        write_lines(str(path), map(record_text, records))
        first, second = iter_records(str(path))
        assert [first, second] == records
        hops = [*first.hops, *second.hops]
        for name in ("pool_address", "token_in", "token_out"):
            assert len({id(getattr(hop, name)) for hop in hops}) == 1
        assert (type(first.dst_timestamp), type(second.dst_timestamp)) == (int, float)
        assert list(map(record_text, (first, second))) == path.read_text().splitlines()

    def test_true_after_one_is_still_rejected(self, tmp_path):
        path = tmp_path / "logs.jsonl"
        row = swap_log_to_dict(replace(SWAP_LOG, gas_price=1))
        lines = [json.dumps(row), json.dumps({**row, "log_index": 2, "gas_price": True})]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedData, match=rf"{re.escape(str(path))}:2: TypeError: gas_price"):
            list(iter_swap_logs(str(path)))

    def test_repeated_record_id_names_file_line_and_id(self, tmp_path):
        path = tmp_path / "records.jsonl"
        other = replace(_INT_TIME_RECORD, record_id="rec-2")
        write_lines(str(path), map(record_text, [_INT_TIME_RECORD, other, _INT_TIME_RECORD]))
        with pytest.raises(MalformedData) as raised:
            list(iter_records(str(path)))
        assert str(raised.value) == f"{path}:3: duplicate record_id 'rec-1'"


class TestCodecProperties:
    @settings(max_examples=50, deadline=None)
    @given(logs=st.lists(_wide_swap_logs, max_size=4))
    def test_swap_logs_round_trip(self, logs):
        decoded = _through_file(logs, swap_log_to_dict, swap_log_dict_oracle, swap_log_from_dict)
        assert decoded == logs
        assert [type(log.timestamp) for log in decoded] == [type(log.timestamp) for log in logs]

    @settings(max_examples=50, deadline=None)
    @given(records=st.lists(_records(), max_size=4))
    def test_records_round_trip(self, records):
        decoded = _through_file(records, record_to_dict, record_dict_oracle, record_from_dict)
        assert decoded == records
        assert [(type(r.src_timestamp), type(r.dst_timestamp)) for r in decoded] == [
            (type(r.src_timestamp), type(r.dst_timestamp)) for r in records
        ]

    @settings(max_examples=50, deadline=None)
    @given(timelines=st.lists(_timelines, max_size=4))
    def test_timelines_round_trip(self, timelines):
        decoded = _through_file(
            timelines, timeline_to_dict, timeline_dict_oracle, timeline_from_dict
        )
        assert decoded == timelines


def _paths(value, prefix=()):
    """The key path of every value inside a decoded JSON row."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield (*prefix, key)
        if isinstance(child, (dict, list)):
            yield from _paths(child, (*prefix, key))


def _at(row, key_path):
    """The value at key_path inside a decoded JSON row."""
    for key in key_path:
        row = row[key]
    return row


def _mutants(row):
    """(key path, replacement, mutant) for copies of row with one value
    deleted (from an object; the replacement is _DELETE) or replaced by a
    value of another JSON type, out of range, not finite, or a string that
    parses as a number."""
    replacements = [
        None, True, 0, -1, 1.5, 2**300, float("nan"), float("inf"),
        "", "x", "-5", "1/0", [], {}, [1], {"a": 1},
    ]
    for path in _paths(row):
        for replacement in [_DELETE, *replacements]:
            mutant = json.loads(json.dumps(row))
            container = _at(mutant, path[:-1])
            if replacement is _DELETE:
                if not isinstance(container, dict):
                    continue
                del container[path[-1]]
            else:
                container[path[-1]] = replacement
            yield path, replacement, mutant


_DELETE = object()


def _uint256(value) -> bool:
    return type(value) is int and 0 <= value <= MAX_AMOUNT


def _json_int(value) -> bool:
    return type(value) is int


def _finite(value) -> bool:
    return type(value) is int or (type(value) is float and math.isfinite(value))


def _string(value) -> bool:
    return type(value) is str


def _decimal_amount(least: int):
    """The test of a timeline amount: a JSON int or a string of ASCII
    digits, in [least, 2**256 - 1]."""

    def accepts(value) -> bool:
        if type(value) is str and value.isascii() and value.isdigit():
            value = int(value)
        return type(value) is int and least <= value <= MAX_AMOUNT

    return accepts


def _direction(value) -> bool:
    return value in ("x_for_y", "y_for_x")


_SWAP_LOG_VALUES = {
    "tx_hash": _string,
    "block_number": _json_int,
    "log_index": _json_int,
    "pool_address": _string,
    "chain_id": _json_int,
    "token_in_amount": lambda value: _uint256(value) and value >= 1,
    "token_out_amount": _uint256,
    "sender": _string,
    "recipient": _string,
    "gas_price": _uint256,
    "timestamp": _finite,
}
# per codec, the fields whose every mutant must be rejected unless the
# new value passes the field's test: the JSON type and range the format
# gives them (docs/formats.md)
_CHECKED_FIELDS = {
    "swap_logs": _SWAP_LOG_VALUES,
    "records": {
        "record_id": _string,
        "src_tx_hash": _string,
        "src_chain_id": _json_int,
        "src_block_number": _json_int,
        "src_timestamp": _finite,
        "dst_tx_hash": _string,
        "dst_chain_id": _json_int,
        "dst_block_number": _json_int,
        "dst_timestamp": _finite,
        "dst_gas_price": _uint256,
        "pool_address": _string,
        "token_in": _string,
        "token_out": _string,
        "amount_in": _uint256,
        "amount_out": _uint256,
        "min_return": _uint256,
    },
    "timelines": {
        "token_x": _string,
        "token_y": _string,
        "address": _string,
        "reserve_x": _decimal_amount(1),
        "reserve_y": _decimal_amount(1),
        "direction": _direction,
        "amount_in": _decimal_amount(1),
        "min_out": _decimal_amount(0),
        "sender": _string,
        "recipient": _string,
        # a noisy_swaps entry, [direction, amount]
        0: _direction,
        1: _decimal_amount(1),
    },
    "pairs": {
        **_SWAP_LOG_VALUES,
        "record_id": _string,
        "token_in": _string,
        "front_window_start_block": _json_int,
        "profit_token": lambda value: value is None
        or (type(value) is str and re.fullmatch(r"-?[0-9]+", value) is not None),
    },
}


# the readers the CLI runs
_CODECS = {
    "swap_logs": (_wide_swap_logs, swap_log_to_dict, lambda path: list(iter_swap_logs(path))),
    "records": (_records(), record_to_dict, lambda path: list(iter_records(path))),
    "timelines": (_timelines, timeline_to_dict, lambda path: list(iter_timelines(path))),
    "pairs": (
        _pair_lists().filter(bool).map(lambda pairs: pairs[0]),
        pair_to_dict,
        lambda path: list(iter_pairs(path)),
    ),
}


def _first_row(name: str, good: dict) -> dict:
    """good, as the row written before one of its mutants. A records row
    gets its own record_id, so that iter_records decodes the mutant and
    does not reject it only for repeating the id."""
    return {**good, "record_id": f"{good['record_id']}+"} if name == "records" else good


class TestDecodeFuzz:
    @pytest.mark.parametrize("name", sorted(_CODECS))
    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_mutated_row_fails_only_as_malformed_data(self, name, data):
        objects, encode, read = _CODECS[name]
        good = encode(data.draw(objects))
        checked = _CHECKED_FIELDS[name]
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp, f"{name}.jsonl"))
            for key_path, replacement, mutant in _mutants(json.loads(json.dumps(good))):
                # rows in the writers' layout, so that each reader tries
                # its pattern or its fast path on every mutant
                write_jsonl(path, [_first_row(name, good), mutant], RunManifest(command="simulate"))
                try:
                    read(path)
                except MalformedData as exc:
                    # the header is line 1 and the good row line 2
                    assert str(exc).startswith(f"{path}:3: "), str(exc)
                else:
                    accepts = checked.get(key_path[-1])
                    assert accepts is None or (
                        replacement is not _DELETE and accepts(replacement)
                    ), f"{key_path}: {replacement!r} was read"

    @pytest.mark.parametrize("name", ["pairs", "records", "swap_logs", "timelines"])
    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_extra_key_fails_as_malformed_data(self, name, data):
        objects, encode, read = _CODECS[name]
        good = json.loads(json.dumps(encode(data.draw(objects))))
        # the row and each object inside it: a records row's hops, a
        # timeline's pool and victim, a pair's three logs
        key_paths = [(), *(path for path in _paths(good) if isinstance(_at(good, path), dict))]
        nested = (
            len(good["hops"])
            if name == "records"
            else {"pairs": 3, "swap_logs": 0, "timelines": 2}[name]
        )
        assert len(key_paths) == 1 + nested
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp, f"{name}.jsonl"))
            for key_path in key_paths:
                mutant = json.loads(json.dumps(good))
                _at(mutant, key_path)["extra"] = 1
                write_jsonl(path, [_first_row(name, good), mutant], RunManifest(command="simulate"))
                with pytest.raises(MalformedData) as error:
                    read(path)
                assert str(error.value).startswith(f"{path}:3: TypeError: "), key_path
                assert str(error.value).endswith(" has no field 'extra'"), key_path


# printable ASCII, the strings the row patterns read (but for a quote
# or a backslash, which the writers escape)
_ascii_texts = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=4)


@st.composite
def _ascii_strings(draw, objects):
    """An object of objects with each string in it drawn again from
    _ascii_texts: mostly rows that the readers' patterns read."""

    def redraw(value):
        if isinstance(value, str):
            return draw(_ascii_texts)
        if isinstance(value, tuple):
            return tuple(map(redraw, value))
        if dataclasses.is_dataclass(value):
            names = [field.name for field in dataclasses.fields(value)]
            return replace(value, **{name: redraw(getattr(value, name)) for name in names})
        return value

    return redraw(draw(objects))


# kind -> (objects, the writer's text, the CLI's reader, the decoder)
_PATTERN_READERS = {
    "swap_logs": (_wide_swap_logs, swap_log_text, iter_swap_logs, swap_log_from_dict),
    "records": (_records(), record_text, iter_records, record_from_dict),
    "timelines": (_timelines, timeline_text, iter_timelines, timeline_from_dict),
}


def _with_types(value):
    """value with the type of each field in it, so that a timestamp of
    15 and one of 15.0 differ."""
    if isinstance(value, (list, tuple)):
        return [_with_types(item) for item in value]
    if dataclasses.is_dataclass(value):
        fields = dataclasses.fields(value)
        return type(value), [_with_types(getattr(value, field.name)) for field in fields]
    return type(value), value


def _shared_strings(objects) -> list[str]:
    """The strings of objects that one read shares: each swap log's pool
    address, sender and recipient, each hop's pool address and tokens."""
    strings = []
    for row in objects:
        if isinstance(row, SwapLog):
            strings += [row.pool_address, row.sender, row.recipient]
        elif isinstance(row, CrossChainTx):
            strings += [text for hop in row.hops for text in (hop.pool_address, hop.token_in, hop.token_out)]
    return strings


def _read_as_decoder(path: str, lines: list[str], read, decode) -> None:
    """Write lines after a header; read gives the objects, with the types
    of their numbers, or the MalformedData text that
    iter_decoded(path, decode) gives, and shares equal strings."""
    write_lines(path, lines, RunManifest(command="simulate"))

    def outcome(rows):
        try:
            return list(rows)
        except MalformedData as exc:
            return str(exc)

    read_rows, decoded = outcome(read(path)), outcome(iter_decoded(path, decode))
    assert _with_types(read_rows) == _with_types(decoded)
    if isinstance(read_rows, list):
        strings = _shared_strings(read_rows)
        assert len({id(text) for text in strings}) == len(set(strings))


_TIMELINE = PoolTimeline(
    pool=Pool("X", "Y", 10**6, 2 * 10**6, Fraction(3, 1000), "0x11", PoolProtocol.UNISWAP_V2),
    noisy_swaps=((Direction.Y_FOR_X, 7), (Direction.X_FOR_Y, 8)),
    victim=SwapRequest(Direction.X_FOR_Y, 100, min_out=90, sender="0xbb", recipient="0xcc"),
    victim_tolerance=Fraction(1, 100),
)
_TIMELINE_LINE = timeline_text(_TIMELINE)
_ONE_HOP_RECORD = replace(_INT_TIME_RECORD, hops=_INT_TIME_RECORD.hops[:1])
_LOG_LINE = swap_log_text(SWAP_LOG)
# name -> (kind, line): rows outside their writer's layout, which the
# decoder reads or rejects
_OTHER_LAYOUT_LINES = {
    "reserve_x 7": ("timelines", _TIMELINE_LINE.replace('"reserve_x": "1000000"', '"reserve_x": 7')),
    "amount_in 007": ("timelines", _TIMELINE_LINE.replace('"amount_in": "100"', '"amount_in": "007"')),
    "noise amount 007": ("timelines", _TIMELINE_LINE.replace('"7"]', '"007"]')),
    "two hops": ("records", record_text(_INT_TIME_RECORD)),
    "escaped quote": ("swap_logs", swap_log_text(replace(SWAP_LOG, sender='0x"bb'))),
    "escaped non-ASCII": ("records", record_text(replace(_ONE_HOP_RECORD, record_id="réc"))),
    "escaped newline": (
        "timelines",
        timeline_text(replace(_TIMELINE, victim=replace(_TIMELINE.victim, sender="0x\nbb"))),
    ),
    "compact separators": (
        "swap_logs",
        json.dumps(swap_log_to_dict(SWAP_LOG), sort_keys=True, separators=(",", ":")),
    ),
    "unsorted record keys": ("records", json.dumps(record_to_dict(_ONE_HOP_RECORD))),
    "unsorted timeline keys": ("timelines", json.dumps(timeline_to_dict(_TIMELINE))),
    "timestamp 1.5e1": ("swap_logs", _LOG_LINE.replace('"timestamp": 15.0', '"timestamp": 1.5e1')),
    "block_number -0": ("swap_logs", _LOG_LINE.replace('"block_number": 5', '"block_number": -0')),
    "gas_price of 78 digits": ("swap_logs", swap_log_text(replace(SWAP_LOG, gas_price=MAX_AMOUNT))),
    "gas_price past 256 bits": ("swap_logs", swap_log_text(replace(SWAP_LOG, gas_price=2**256))),
}
# rows in the writer's layout with a field that the builder rejects
_REJECTED_FIELD_LINES = {
    "timestamp 1e400": (
        "records",
        record_text(_ONE_HOP_RECORD).replace('"dst_timestamp": 72', '"dst_timestamp": 1e+400'),
    ),
    "destination before source": (
        "records",
        record_text(_ONE_HOP_RECORD).replace('"dst_timestamp": 72', '"dst_timestamp": 59'),
    ),
    "tolerance 1/1": ("timelines", _TIMELINE_LINE.replace('"1/100"', '"1/1"')),
    "fee 1/0": ("timelines", _TIMELINE_LINE.replace('"3/1000"', '"1/0"')),
    "unknown protocol": ("timelines", _TIMELINE_LINE.replace('"uniswap_v2"', '"uniswap_v9"')),
}


class TestPatternReaders:
    """iter_swap_logs, iter_records and iter_timelines read each row in
    its writer's layout by pattern, and every other row through json.loads
    and the row's decoder: the same objects and the same errors as
    iter_decoded."""

    @pytest.mark.parametrize("name", sorted(_PATTERN_READERS))
    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_rows_and_their_mutants_read_as_the_decoder(self, name, data):
        objects, text, read, decode = _PATTERN_READERS[name]
        # records with distinct ids, which iter_records requires
        distinct = (lambda row: row.record_id) if name == "records" else id
        rows = data.draw(st.lists(_ascii_strings(objects), min_size=1, max_size=4, unique_by=distinct))
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp, f"{name}.jsonl"))
            lines = list(map(text, rows))
            _read_as_decoder(path, lines, read, decode)
            good = json.loads(lines[0])
            first = json.dumps(_first_row(name, good), sort_keys=True)
            for _, _, mutant in _mutants(good):
                _read_as_decoder(path, [first, json.dumps(mutant, sort_keys=True)], read, decode)

    def test_writer_rows_take_no_json_path(self, tmp_path, monkeypatch):
        corpus = extract_corpus(run(small_sim_config())[0])
        decoded = []
        monkeypatch.setattr(ingest, "_decoded", lambda *args: decoded.append(args))
        for rows, text, read in (
            (corpus.swap_logs, swap_log_text, iter_swap_logs),
            (corpus.records, record_text, iter_records),
            (corpus.timelines, timeline_text, iter_timelines),
        ):
            assert rows
            path = str(tmp_path / "rows.jsonl")
            write_lines(path, map(text, rows), RunManifest(command="simulate"))
            assert list(read(path)) == rows
        assert decoded == []

    @pytest.mark.parametrize("name", [*_OTHER_LAYOUT_LINES, *_REJECTED_FIELD_LINES])
    def test_other_row_takes_the_json_path(self, tmp_path, monkeypatch, name):
        kind, line = {**_OTHER_LAYOUT_LINES, **_REJECTED_FIELD_LINES}[name]
        _, _, read, decode = _PATTERN_READERS[kind]
        pattern = {
            "swap_logs": ingest._SWAP_LOG_ROW,
            "records": ingest._RECORD_ROW,
            "timelines": ingest._TIMELINE_ROW,
        }[kind]
        assert bool(re.fullmatch(pattern, line)) == (name in _REJECTED_FIELD_LINES)
        decoded = []

        def spy(path, number, line, decode):
            decoded.append(line)
            return real(path, number, line, decode)

        real = ingest._decoded
        monkeypatch.setattr(ingest, "_decoded", spy)
        _read_as_decoder(str(tmp_path / f"{kind}.jsonl"), [line], read, decode)
        # once by the reader, once by iter_decoded
        assert decoded == [line, line]

    def test_enum_lookups_raise_the_enum_error(self, tmp_path):
        row = timeline_to_dict(_TIMELINE)
        row["victim"]["direction"] = "sideways"
        with pytest.raises(ValueError, match=r"^'sideways' is not a valid Direction$"):
            timeline_from_dict(row)
        pool = {**pool_to_dict(_TIMELINE.pool), "protocol": "uniswap_v9"}
        with pytest.raises(ValueError, match=r"^'uniswap_v9' is not a valid PoolProtocol$"):
            pool_from_dict(pool)
        path = tmp_path / "timelines.jsonl"
        write_lines(str(path), [_TIMELINE_LINE.replace('"uniswap_v2"', '"uniswap_v9"')])
        with pytest.raises(MalformedData) as raised:
            list(iter_timelines(str(path)))
        assert str(raised.value) == f"{path}:1: ValueError: 'uniswap_v9' is not a valid PoolProtocol"


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
