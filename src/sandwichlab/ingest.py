"""Raw-log decoding, file codecs, and run manifests.

The event-topic / function-selector registry drives decoding of
receipt-style log exports into swap logs. Bridge intents use a
documented, simplified payload (the simulator's export format): real
aggregator executor calldata is opaque and out of scope.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from . import __version__
from .amm import MAX_AMOUNT, Direction, Pool, SwapRequest
from .attack import PoolTimeline
from .detector import Classification, CrossChainTx, SandwichPair, SwapLog, VictimHop

WORD = 32  # bytes per ABI word

TOPIC_UNISWAP_V2_SWAP = (
    "0xd78ad95fa46c994b6551d0da85fc275fe613ce37657fb8d5e3d130840159d822"
)
TOPIC_UNISWAP_V3_SWAP = (
    "0xc42079f94a6350d7e6235f29174924f928cc2ac818eb64fed8004e115fbcca67"
)
TOPIC_PANCAKE_V3_SWAP = (
    "0x19b47279256b2a23a1665c810c8d55a1758940ee09377d4f8d26497a3577dc83"
)
TOPIC_ORACLE_REQUEST = (
    "0x532dbb6d061eee97ab4370060f60ede10b3dc361cc1214c07ae5e34dd86e6aaf"
)


class MalformedData(ValueError):
    """A known topic with a data payload of the wrong shape."""


class UnknownSelector(ValueError):
    pass


class MissingOracleRequest(ValueError):
    pass


@dataclass(frozen=True)
class EventEntry:
    protocol: str
    event_name: str
    topic: str
    layout: str  # "v2" | "v3" | "oracle_request"


@dataclass(frozen=True)
class FunctionEntry:
    protocol: str
    function_name: str
    selector: str


@dataclass(frozen=True)
class SignatureRegistry:
    events: tuple[EventEntry, ...]
    functions: tuple[FunctionEntry, ...]

    def layouts_for_topic(self, topic: str) -> list[EventEntry]:
        return [e for e in self.events if e.topic == topic.lower()]

    def function_by_selector(self, selector: str) -> FunctionEntry:
        for entry in self.functions:
            if entry.selector == selector.lower():
                return entry
        raise UnknownSelector(selector)


DEFAULT_REGISTRY = SignatureRegistry(
    events=(
        EventEntry("Uniswap V2", "Swap", TOPIC_UNISWAP_V2_SWAP, "v2"),
        EventEntry("PancakeSwap V2", "Swap", TOPIC_UNISWAP_V2_SWAP, "v2"),
        EventEntry("Uniswap V3", "Swap", TOPIC_UNISWAP_V3_SWAP, "v3"),
        EventEntry("PancakeSwap V3", "Swap", TOPIC_PANCAKE_V3_SWAP, "v3"),
        EventEntry("Symbiosis", "OracleRequest", TOPIC_ORACLE_REQUEST, "oracle_request"),
    ),
    functions=(
        FunctionEntry("Symbiosis", "metaMintSyntheticToken", "0xc29a91bc"),
        FunctionEntry("Symbiosis", "metaBurnSyntheticToken", "0xe66bb550"),
        FunctionEntry("Symbiosis", "receiveRequestV2Signed", "0x84d61c97"),
        FunctionEntry("Symbiosis", "metaUnsynthesize", "0xc23a4c88"),
        FunctionEntry("Symbiosis", "externalCall", "0xf5b697a5"),
        FunctionEntry("1inch", "swap", "0x12aa3caf"),
        FunctionEntry("1inch", "uniswapV3SwapTo", "0xbc80f1a8"),
        FunctionEntry("OpenOcean", "swap", "0x90411a32"),
        FunctionEntry("Uniswap V2", "swapExactTokensForTokens", "0x38ed1739"),
        FunctionEntry("Uniswap V2", "swapExactTokensForETH", "0x18cbafe5"),
    ),
)


@dataclass(frozen=True)
class RawLogRecord:
    tx_hash: str
    block_number: int
    log_index: int
    address: str
    topics: tuple[str, ...]
    data: str  # 0x-prefixed hex
    chain_id: int = 0
    gas_price: int = 0
    timestamp: float = 0.0


class Skip:
    """Sentinel: topic not in the registry, record ignored."""

    def __repr__(self) -> str:  # pragma: no cover
        return "Skip"


SKIP = Skip()


def _data_bytes(record: RawLogRecord) -> bytes:
    payload = record.data
    if payload.startswith("0x"):
        payload = payload[2:]
    try:
        return bytes.fromhex(payload)
    except ValueError as exc:
        raise MalformedData(f"bad hex in log data: {exc}") from exc


def _word(data: bytes, index: int) -> int:
    return int.from_bytes(data[index * WORD : (index + 1) * WORD], "big")


def _signed_word(data: bytes, index: int) -> int:
    return int.from_bytes(data[index * WORD : (index + 1) * WORD], "big", signed=True)


def _topic_address(record: RawLogRecord, index: int) -> str:
    if len(record.topics) > index:
        return "0x" + record.topics[index][-40:]
    return "0x" + "00" * 20


def decode_swap_log(
    record: RawLogRecord, registry: SignatureRegistry = DEFAULT_REGISTRY
):
    """Decode one receipt log into a SwapLog, or SKIP for unknown topics.

    V2 layout: four unsigned words (amount0In, amount1In, amount0Out,
    amount1Out); the nonzero In picks the direction. V3 layouts: two
    leading signed words (amount0, amount1); positive means the token
    flows into the pool.
    """
    if not record.topics:
        return SKIP
    entries = registry.layouts_for_topic(record.topics[0])
    swap_entries = [e for e in entries if e.layout in ("v2", "v3")]
    if not swap_entries:
        return SKIP
    layout = swap_entries[0].layout
    data = _data_bytes(record)
    if layout == "v2":
        if len(data) != 4 * WORD:
            raise MalformedData(
                f"V2 swap data must be 4 words, got {len(data)} bytes"
            )
        amount0_in, amount1_in, amount0_out, amount1_out = (
            _word(data, 0),
            _word(data, 1),
            _word(data, 2),
            _word(data, 3),
        )
        if amount0_in > 0 and amount1_in > 0:
            raise MalformedData(
                "V2 swap with both amount0In and amount1In nonzero is ambiguous"
            )
        if amount0_in > 0:
            direction = Direction.X_FOR_Y
            token_in, token_out = amount0_in, amount1_out
        else:
            direction = Direction.Y_FOR_X
            token_in, token_out = amount1_in, amount0_out
    else:
        if len(data) < 5 * WORD:
            raise MalformedData(
                f"V3 swap data must be at least 5 words, got {len(data)} bytes"
            )
        amount0 = _signed_word(data, 0)
        amount1 = _signed_word(data, 1)
        if amount0 > 0:
            direction = Direction.X_FOR_Y
            token_in, token_out = amount0, abs(amount1)
        else:
            direction = Direction.Y_FOR_X
            token_in, token_out = amount1, abs(amount0)
    return SwapLog(
        tx_hash=record.tx_hash,
        block_number=record.block_number,
        log_index=record.log_index,
        pool_address=record.address,
        chain_id=record.chain_id,
        direction=direction,
        token_in_amount=abs(token_in),
        token_out_amount=token_out,
        sender=_topic_address(record, 1),
        recipient=_topic_address(record, 2),
        gas_price=record.gas_price,
        timestamp=record.timestamp,
    )


@dataclass(frozen=True)
class BridgeIntent:
    """Decoded bridge-intent fragment: the destination swap the source
    chain leaks."""

    selector: str
    dest_chain_id: int
    pool_addresses: tuple[str, ...]
    victim_in: int
    min_return: int
    recipient: str


def encode_bridge_intent(intent: BridgeIntent) -> str:
    """Selector word followed by a JSON body, hex encoded."""
    body = json.dumps(
        {
            "dest_chain_id": intent.dest_chain_id,
            "pools": list(intent.pool_addresses),
            "victim_in": str(intent.victim_in),
            "min_return": str(intent.min_return),
            "recipient": intent.recipient,
        },
        sort_keys=True,
    ).encode()
    return intent.selector + body.hex()


def decode_bridge_intent(
    records: Iterable[RawLogRecord],
    registry: SignatureRegistry = DEFAULT_REGISTRY,
) -> BridgeIntent:
    """Extract the destination swap details from an OracleRequest log."""
    oracle = None
    for record in records:
        if record.topics and record.topics[0] == TOPIC_ORACLE_REQUEST:
            oracle = record
            break
    if oracle is None:
        raise MissingOracleRequest("no OracleRequest topic in the supplied logs")
    payload = oracle.data
    if not payload.startswith("0x") or len(payload) < 10:
        raise MalformedData("bridge intent payload too short")
    selector = payload[:10].lower()
    entry = registry.function_by_selector(selector)
    try:
        body = json.loads(bytes.fromhex(payload[10:]).decode())
        return BridgeIntent(
            selector=entry.selector,
            dest_chain_id=int(body["dest_chain_id"]),
            pool_addresses=tuple(body["pools"]),
            victim_in=int(body["victim_in"]),
            min_return=int(body["min_return"]),
            recipient=body["recipient"],
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise MalformedData(f"bridge intent payload malformed: {exc}") from exc


# -- JSONL codecs ----------------------------------------------------------


def _fraction_to_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _fraction_from_str(value: str) -> Fraction:
    num, _, den = value.partition("/")
    return Fraction(int(num), int(den or 1))


def swap_log_to_dict(log: SwapLog) -> dict:
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


def swap_log_from_dict(data: dict) -> SwapLog:
    data = dict(data)
    data["direction"] = Direction(data["direction"])
    for key in ("token_in_amount", "token_out_amount", "gas_price"):
        data[key] = int(data[key])
    return SwapLog(**data)


def record_to_dict(record: CrossChainTx) -> dict:
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


def record_from_dict(data: dict) -> CrossChainTx:
    data = dict(data)
    hops = []
    for hop in data["hops"]:
        hop = dict(hop)
        hop["direction"] = Direction(hop["direction"])
        for key in ("amount_in", "amount_out", "min_return"):
            hop[key] = int(hop[key])
        hops.append(VictimHop(**hop))
    data["hops"] = tuple(hops)
    return CrossChainTx(**data)


def pool_to_dict(pool: Pool) -> dict:
    return {
        "token_x": pool.token_x,
        "token_y": pool.token_y,
        "reserve_x": str(pool.reserve_x),
        "reserve_y": str(pool.reserve_y),
        "fee": _fraction_to_str(pool.fee),
        "address": pool.address,
        "protocol": pool.protocol.value,
    }


def pool_from_dict(data: dict) -> Pool:
    from .amm import PoolProtocol

    return Pool(
        token_x=data["token_x"],
        token_y=data["token_y"],
        reserve_x=int(data["reserve_x"]),
        reserve_y=int(data["reserve_y"]),
        fee=_fraction_from_str(data["fee"]),
        address=data["address"],
        protocol=PoolProtocol(data.get("protocol", "other")),
    )


def timeline_to_dict(timeline: PoolTimeline) -> dict:
    return {
        "pool": pool_to_dict(timeline.pool),
        "noisy_swaps": [
            [direction.value, str(amount)]
            for direction, amount in timeline.noisy_swaps
        ],
        "victim": {
            "direction": timeline.victim.direction.value,
            "amount_in": str(timeline.victim.amount_in),
            "min_out": str(timeline.victim.min_out),
            "sender": timeline.victim.sender,
            "recipient": timeline.victim.recipient,
        },
        "victim_tolerance": _fraction_to_str(timeline.victim_tolerance),
    }


_DIRECTIONS = {direction.value: direction for direction in Direction}


def _noisy_swap(entry) -> tuple[Direction, int]:
    """One [direction, amount] entry of noisy_swaps. The replay applies
    noise unchecked, so the amount must be a valid swap input here."""
    try:
        name, text = entry
        direction = _DIRECTIONS[name]
        if type(text) not in (str, int):
            raise TypeError(type(text).__name__)
        amount = int(text)
    except (TypeError, ValueError, KeyError) as exc:
        raise MalformedData(f"bad noisy_swaps entry {entry!r}: {exc!r}") from exc
    if not 1 <= amount <= MAX_AMOUNT:
        raise MalformedData(
            f"bad noisy_swaps entry {entry!r}: amount must be in [1, 2**256 - 1]"
        )
    return direction, amount


def timeline_from_dict(data: dict) -> PoolTimeline:
    victim = data["victim"]
    return PoolTimeline(
        pool=pool_from_dict(data["pool"]),
        noisy_swaps=tuple(_noisy_swap(entry) for entry in data["noisy_swaps"]),
        victim=SwapRequest(
            direction=Direction(victim["direction"]),
            amount_in=int(victim["amount_in"]),
            min_out=int(victim["min_out"]),
            sender=victim["sender"],
            recipient=victim["recipient"],
        ),
        victim_tolerance=_fraction_from_str(data["victim_tolerance"]),
    )


def pair_to_dict(pair: SandwichPair) -> dict:
    return {
        "record_id": pair.record_id,
        "pool_address": pair.pool_address,
        "front": swap_log_to_dict(pair.front),
        "victim": swap_log_to_dict(pair.victim),
        "back": swap_log_to_dict(pair.back),
        "classification": pair.classification.value,
        "token_in": pair.token_in,
        "front_window_start_block": pair.front_window_start_block,
        "profit_token": None if pair.profit_token is None else str(pair.profit_token),
        "profit_rate": None
        if pair.profit_rate is None
        else _fraction_to_str(pair.profit_rate),
        "profit_usd": None if pair.profit_usd is None else str(pair.profit_usd),
    }


def _shared_swap_log(row: dict, memo: Optional[dict]) -> SwapLog:
    if memo is None:
        return swap_log_from_dict(row)
    key = tuple(row.items())
    log = memo.get(key)
    if log is None:
        log = memo[key] = swap_log_from_dict(row)
    return log


def pair_from_dict(data: dict, memo: Optional[dict] = None) -> SandwichPair:
    """Decode one pairs.jsonl row. With a memo (one dict shared across
    the rows of a file), equal swap-log rows decode to one shared
    SwapLog: a victim sits in many pairs."""
    return SandwichPair(
        record_id=data["record_id"],
        pool_address=data["pool_address"],
        front=_shared_swap_log(data["front"], memo),
        victim=_shared_swap_log(data["victim"], memo),
        back=_shared_swap_log(data["back"], memo),
        classification=Classification(data["classification"]),
        token_in=data["token_in"],
        front_window_start_block=int(data["front_window_start_block"]),
        profit_token=None if data["profit_token"] is None else int(data["profit_token"]),
        profit_rate=None
        if data["profit_rate"] is None
        else _fraction_from_str(data["profit_rate"]),
        profit_usd=None if data["profit_usd"] is None else Decimal(data["profit_usd"]),
    )


@dataclass
class RunManifest:
    """Reproducibility envelope for one CLI invocation."""

    command: str
    config: dict = field(default_factory=dict)
    input_digests: dict = field(default_factory=dict)
    seed: Optional[int] = None
    output_paths: list = field(default_factory=list)
    tool_version: str = __version__

    def digest(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True, default=str).encode()
        return hashlib.sha256(blob).hexdigest()


def file_digest(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_jsonl(path: str, rows: Iterable[dict], manifest: Optional[RunManifest] = None) -> None:
    with open(path, "w") as handle:
        if manifest is not None:
            handle.write(f"# manifest-digest {manifest.digest()}\n")
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True) + "\n")


def read_jsonl(path: str) -> Iterator[dict]:
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            yield json.loads(line)
