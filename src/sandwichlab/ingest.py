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
from .amm import MAX_AMOUNT, Direction, Pool, SwapRequest
from .attack import PoolTimeline
from .detector import Classification, CrossChainTx, SandwichPair, SwapLog, VictimHop


class MalformedData(ValueError):
    """An input row or field of the wrong shape."""


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


def swap_log_from_dict(data: dict) -> SwapLog:
    data = dict(data)
    # detect sorts on the position and bisects on the timestamp, which a
    # string or a bool would break or silently mis-order
    for key, allowed in _SWAP_LOG_NUMBERS:
        if type(data[key]) not in allowed:
            raise TypeError(f"{key} must be a JSON {allowed[-1].__name__}, not {data[key]!r}")
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


def decode_jsonl(path: str, decode: Callable[[dict], object]) -> list:
    """Decode every row of a JSONL file. A row that decode rejects (not
    an object, a missing key, a value of the wrong type) raises
    MalformedData naming the file and line."""
    out = []
    for number, row in _numbered_rows(path):
        try:
            out.append(decode(row))
        except (KeyError, TypeError, ValueError, AttributeError, ArithmeticError) as exc:
            raise MalformedData(f"{path}:{number}: {type(exc).__name__}: {exc}") from exc
    return out
