"""File codecs and run manifests.

JSONL codecs for the simulator's exports (swap logs, cross-chain
records, pool timelines) and the detector's pairs, and the manifest
that ties each CLI run's outputs to its inputs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional

from . import __version__
from .amm import MAX_AMOUNT, AmmError, Direction, Pool, SwapRequest, _check_amount
from .attack import PoolTimeline
from .detector import (
    Classification,
    CrossChainTx,
    MalformedData,
    SandwichPair,
    SwapLog,
    VictimHop,
)


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


_SWAP_LOG_NUMBERS = (
    ("block_number", (int,)),
    ("log_index", (int,)),
    ("chain_id", (int,)),
    ("timestamp", (int, float)),
)
# uint256 amounts, each with its least value: analyze divides by the
# front's token_in_amount
_SWAP_LOG_AMOUNTS = (("token_in_amount", 1), ("token_out_amount", 0), ("gas_price", 0))


def swap_log_from_dict(data: dict) -> SwapLog:
    data = dict(data)
    # detect sorts on the position and bisects on the timestamp, which a
    # string or a bool would break or silently mis-order
    for key, allowed in _SWAP_LOG_NUMBERS:
        if type(data[key]) not in allowed:
            raise TypeError(f"{key} must be a JSON {allowed[-1].__name__}, not {data[key]!r}")
    for key, least in _SWAP_LOG_AMOUNTS:
        _check_amount(key, data[key], least)
    data["direction"] = Direction(data["direction"])
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
    key = (row["block_number"], row["log_index"], row["tx_hash"])
    hit = memo.get(key)
    if hit is not None and hit[0] == row and _same_number_types(hit[0], row):
        return hit[1]
    log = swap_log_from_dict(row)
    memo[key] = (row, log)
    return log


def _same_number_types(a: dict, b: dict) -> bool:
    """True == 1 == 1.0 in Python but not in JSON: a memo hit must not
    let a row skip the checks of swap_log_from_dict (_SWAP_LOG_NUMBERS,
    _SWAP_LOG_AMOUNTS) or decode an int timestamp as a float."""
    return (
        type(a["block_number"]) is type(b["block_number"])
        and type(a["log_index"]) is type(b["log_index"])
        and type(a["chain_id"]) is type(b["chain_id"])
        and type(a["timestamp"]) is type(b["timestamp"])
        and type(a["token_in_amount"]) is type(b["token_in_amount"])
        and type(a["token_out_amount"]) is type(b["token_out_amount"])
        and type(a["gas_price"]) is type(b["gas_price"])
    )


def pair_from_dict(data: dict, memo: Optional[dict] = None) -> SandwichPair:
    """Decode one pairs.jsonl row. With a memo (one dict shared across
    the rows of a file), equal swap-log rows decode to one shared
    SwapLog: a victim sits in many pairs. The memo is keyed on
    (block_number, log_index, tx_hash), and a hit counts only when the
    whole row, and the JSON type of each number, equals the stored one."""
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


@dataclass(slots=True)
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


def _write_lines(path: str, lines: Iterable[str], manifest: Optional[RunManifest]) -> None:
    with open(path, "w") as handle:
        if manifest is not None:
            handle.write(f"# manifest-digest {manifest.digest()}\n")
        for line in lines:
            handle.write(line + "\n")


def write_jsonl(path: str, rows: Iterable[dict], manifest: Optional[RunManifest] = None) -> None:
    _write_lines(path, (json.dumps(row, sort_keys=True) for row in rows), manifest)


# what json.dumps writes for a str, ensure_ascii escapes included
_json_str = json.encoder.encode_basestring_ascii


def _json_optional(value, to_str: Callable[..., str]) -> str:
    return "null" if value is None else _json_str(to_str(value))


def write_pairs_jsonl(
    path: str, pairs: Iterable[SandwichPair], manifest: Optional[RunManifest] = None
) -> None:
    """write_jsonl(path, map(pair_to_dict, pairs), manifest), byte for
    byte, with each distinct swap log encoded once: a victim sits in many
    pairs, and a front or back in several."""
    # id(log) -> (log, its text); holding the log keeps its id unique
    texts: dict[int, tuple[SwapLog, str]] = {}

    def log_text(log: SwapLog) -> str:
        entry = texts.get(id(log))
        if entry is None:
            entry = texts[id(log)] = (log, json.dumps(swap_log_to_dict(log), sort_keys=True))
        return entry[1]

    # the keys of pair_to_dict in sorted order
    lines = (
        f'{{"back": {log_text(pair.back)}, '
        f'"classification": {_json_str(pair.classification.value)}, '
        f'"front": {log_text(pair.front)}, '
        f'"front_window_start_block": {pair.front_window_start_block}, '
        f'"pool_address": {_json_str(pair.pool_address)}, '
        f'"profit_rate": {_json_optional(pair.profit_rate, _fraction_to_str)}, '
        f'"profit_token": {_json_optional(pair.profit_token, str)}, '
        f'"profit_usd": {_json_optional(pair.profit_usd, str)}, '
        f'"record_id": {_json_str(pair.record_id)}, '
        f'"token_in": {_json_str(pair.token_in)}, '
        f'"victim": {log_text(pair.victim)}}}'
        for pair in pairs
    )
    _write_lines(path, lines, manifest)


def _numbered_rows(path: str) -> Iterator[tuple[int, dict]]:
    """(line number, row) for each data line; a line that is not JSON
    raises MalformedData naming the file and line."""
    with open(path) as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                row = json.loads(line)
            except ValueError as exc:
                raise MalformedData(f"{path}:{number}: invalid JSON: {exc}") from exc
            yield number, row


def read_jsonl(path: str) -> Iterator[dict]:
    for _, row in _numbered_rows(path):
        yield row


def iter_decoded(path: str, decode: Callable[[dict], object]) -> Iterator:
    """Decode the rows of a JSONL file one at a time, as they are read.
    A row that decode rejects (not an object, a missing key, a value of
    the wrong type, an amount past 256 bits) raises MalformedData naming
    the file and line."""
    for number, row in _numbered_rows(path):
        try:
            value = decode(row)
        except (KeyError, TypeError, ValueError, AttributeError, ArithmeticError, AmmError) as exc:
            raise MalformedData(f"{path}:{number}: {type(exc).__name__}: {exc}") from exc
        yield value


def decode_jsonl(path: str, decode: Callable[[dict], object]) -> list:
    """Every row of a JSONL file, decoded: list(iter_decoded(...))."""
    return list(iter_decoded(path, decode))
