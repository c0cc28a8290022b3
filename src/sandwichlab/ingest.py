"""File codecs and run manifests.

JSONL codecs for the simulator's exports (swap logs, cross-chain
records, pool timelines) and the detector's pairs, and the manifest
that ties each CLI run's outputs to its inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import re
from dataclasses import asdict, dataclass, field
from decimal import Decimal
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Iterator, Optional

from . import __version__
from .amm import MAX_AMOUNT, AmmError, Direction, Pool, SwapRequest, _check_amount, _check_rate
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


# int() alone would also take " 3", "+3", "3_0" and non-ASCII digits
_FRACTION = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")


def _fraction_from_str(value: str) -> Fraction:
    """A string "n" or "n/d" of ASCII digits, n with an optional minus
    sign, d not zero."""
    if type(value) is not str or not _FRACTION.fullmatch(value):
        raise ValueError(f'bad fraction {value!r}: not a string "n" or "n/d" of digits, d > 0')
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


_JSON_NAMES = {int: "int", str: "string"}


def _typed(data: dict, key: str, kind: type):
    """data[key], which must be of exactly type kind: a bool is an int
    to Python, but not a JSON int."""
    value = data[key]
    if type(value) is not kind:
        raise TypeError(f"{key} must be a JSON {_JSON_NAMES[kind]}, not {value!r}")
    return value


def _require(data: dict, keys: tuple, kind: type) -> None:
    for key in keys:
        _typed(data, key, kind)


def _finite(data: dict, key: str):
    """data[key], a finite JSON number. NaN fails every comparison, so
    it would pass the order checks and switch the time windows off."""
    value = data[key]
    if type(value) is float:
        if not math.isfinite(value):
            raise ValueError(f"{key} must be finite, not {value!r}")
    elif type(value) is not int:
        raise TypeError(f"{key} must be a JSON number, not {value!r}")
    return value


def _uint256(data: dict, key: str, least: int = 0) -> int:
    """data[key], an int in [least, 2**256 - 1]; _check_amount raises
    the error for any other value."""
    value = data[key]
    if type(value) is not int or not least <= value <= MAX_AMOUNT:
        _check_amount(key, value, least)
    return value


_DIRECTIONS = {direction.value: direction for direction in Direction}


def _direction(value) -> Direction:
    """Direction(value), its ValueError included, without the enum's
    call on the two valid names (it costs twenty times a dict lookup)."""
    direction = _DIRECTIONS.get(value) if type(value) is str else None
    return Direction(value) if direction is None else direction


def _unknown_key(data: dict, cls: type) -> TypeError:
    """The error for a row object that holds every field of cls and
    more: it names the first key that is not a field."""
    fields = cls.__match_args__
    key = next(key for key in data if key not in fields)
    return TypeError(f"{cls.__name__} has no field {key!r}")


# Each decoder below checks each field as it reads it, in a fixed
# order, builds the row by position, and then rejects a row object
# with more keys than the row has fields: every field was found, so
# the rest are unknown keys.


def swap_log_from_dict(data: dict, strings: Optional[dict[str, str]] = None) -> SwapLog:
    """One swap_logs.jsonl row. Given strings, the memo of one read, the
    pool address, sender and recipient are taken from it when an equal
    string is there, and put in it when not."""
    # detect sorts on the position and bisects on the timestamp, which a
    # string or a bool would break or silently mis-order
    block_number = _typed(data, "block_number", int)
    log_index = _typed(data, "log_index", int)
    chain_id = _typed(data, "chain_id", int)
    timestamp = _finite(data, "timestamp")
    tx_hash = _typed(data, "tx_hash", str)
    pool_address = _typed(data, "pool_address", str)
    sender = _typed(data, "sender", str)
    recipient = _typed(data, "recipient", str)
    if strings is not None:
        pool_address = strings.setdefault(pool_address, pool_address)
        sender = strings.setdefault(sender, sender)
        recipient = strings.setdefault(recipient, recipient)
    # analyze divides by the front's token_in_amount
    token_in_amount = _uint256(data, "token_in_amount", 1)
    token_out_amount = _uint256(data, "token_out_amount")
    gas_price = _uint256(data, "gas_price")
    direction = _direction(data["direction"])
    if len(data) > len(SwapLog.__match_args__):
        raise _unknown_key(data, SwapLog)
    return SwapLog(
        tx_hash, block_number, log_index, pool_address, chain_id, direction,
        token_in_amount, token_out_amount, sender, recipient, gas_price, timestamp,
    )


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


def _hop_from_dict(data: dict, strings: Optional[dict[str, str]]) -> VictimHop:
    pool_address = _typed(data, "pool_address", str)
    token_in = _typed(data, "token_in", str)
    token_out = _typed(data, "token_out", str)
    if strings is not None:
        pool_address = strings.setdefault(pool_address, pool_address)
        token_in = strings.setdefault(token_in, token_in)
        token_out = strings.setdefault(token_out, token_out)
    direction = _direction(data["direction"])
    amount_in = _uint256(data, "amount_in")
    amount_out = _uint256(data, "amount_out")
    min_return = _uint256(data, "min_return")
    if len(data) > len(VictimHop.__match_args__):
        raise _unknown_key(data, VictimHop)
    return VictimHop(
        pool_address, token_in, token_out, direction, amount_in, amount_out, min_return
    )


def record_from_dict(data: dict, strings: Optional[dict[str, str]] = None) -> CrossChainTx:
    """One records.jsonl row; each hop's pool address and tokens are
    shared through strings as swap_log_from_dict shares its own."""
    src_chain_id = _typed(data, "src_chain_id", int)
    src_block_number = _typed(data, "src_block_number", int)
    dst_chain_id = _typed(data, "dst_chain_id", int)
    dst_block_number = _typed(data, "dst_block_number", int)
    src_timestamp = _finite(data, "src_timestamp")
    dst_timestamp = _finite(data, "dst_timestamp")
    record_id = _typed(data, "record_id", str)
    src_tx_hash = _typed(data, "src_tx_hash", str)
    dst_tx_hash = _typed(data, "dst_tx_hash", str)
    dst_gas_price = _uint256(data, "dst_gas_price")
    hops = tuple([_hop_from_dict(hop, strings) for hop in data["hops"]])
    if len(data) > len(CrossChainTx.__match_args__):
        raise _unknown_key(data, CrossChainTx)
    return CrossChainTx(
        record_id, src_tx_hash, src_chain_id, src_block_number, src_timestamp,
        dst_tx_hash, dst_chain_id, dst_block_number, dst_timestamp, dst_gas_price, hops,
    )


def _amount(key: str, value) -> int:
    """A pool reserve or timeline amount: a string of ASCII digits, as
    the writers put it, or a JSON int. int() alone would also take 1.5,
    true, " 7", "+7" and "1_0". The range is checked by the class that
    holds the value: Pool, SwapRequest or PoolTimeline."""
    if type(value) is int:
        return value
    if type(value) is str and value.isascii() and value.isdigit():
        return int(value)
    raise ValueError(f"{key} must be a decimal string or a JSON int, not {value!r}")


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

    _require(data, ("token_x", "token_y", "address"), str)
    return Pool(
        token_x=data["token_x"],
        token_y=data["token_y"],
        reserve_x=_amount("reserve_x", data["reserve_x"]),
        reserve_y=_amount("reserve_y", data["reserve_y"]),
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


def _noisy_swap(entry) -> tuple[Direction, int]:
    """One [direction, amount] entry of noisy_swaps; PoolTimeline checks
    the amount's range."""
    try:
        name, amount = entry
        return _DIRECTIONS[name], _amount("amount", amount)
    except (TypeError, ValueError, KeyError) as exc:
        raise MalformedData(f"bad noisy_swaps entry {entry!r}: {exc!r}") from exc


def timeline_from_dict(data: dict) -> PoolTimeline:
    victim = data["victim"]
    _require(victim, ("sender", "recipient"), str)
    request = SwapRequest(
        direction=Direction(victim["direction"]),
        amount_in=_amount("amount_in", victim["amount_in"]),
        min_out=_amount("min_out", victim["min_out"]),
        sender=victim["sender"],
        recipient=victim["recipient"],
    )
    pool = pool_from_dict(data["pool"])
    noisy_swaps = tuple(map(_noisy_swap, data["noisy_swaps"]))
    tolerance = _fraction_from_str(data["victim_tolerance"])
    _check_rate("victim_tolerance", tolerance)
    try:
        return PoolTimeline(pool, noisy_swaps, request, tolerance)
    except (TypeError, ValueError, AmmError) as exc:
        # PoolTimeline itself checks only the range of each noise amount
        raise MalformedData(f"bad noisy_swaps: {exc}") from exc


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


def _optional_str(key: str, value, parse: Callable[[str], object]):
    if value is None:
        return None
    if type(value) is not str:
        raise TypeError(f"{key} must be a string or null, not {value!r}")
    return parse(value)


# int() alone would also take " 7", "+7", "1_0" and non-ASCII digits
_DECIMAL_INT = re.compile(r"-?[0-9]+")


def _decimal_int(text: str) -> int:
    if not _DECIMAL_INT.fullmatch(text):
        raise ValueError(f"profit_token must be a decimal integer, not {text!r}")
    return int(text)


def _pair(data: dict, log: Callable[..., SwapLog]) -> SandwichPair:
    """A pairs.jsonl row's fields as a SandwichPair, each embedded swap
    log through log."""
    _require(data, ("record_id", "pool_address", "token_in"), str)
    _require(data, ("front_window_start_block",), int)
    return SandwichPair(
        record_id=data["record_id"],
        pool_address=data["pool_address"],
        front=log(data["front"]),
        victim=log(data["victim"]),
        back=log(data["back"]),
        classification=Classification(data["classification"]),
        token_in=data["token_in"],
        front_window_start_block=data["front_window_start_block"],
        profit_token=_optional_str("profit_token", data["profit_token"], _decimal_int),
        profit_rate=_optional_str("profit_rate", data["profit_rate"], _fraction_from_str),
        profit_usd=_optional_str("profit_usd", data["profit_usd"], Decimal),
    )


def pair_from_dict(data: dict) -> SandwichPair:
    """Decode one pairs.jsonl row."""
    return _pair(data, swap_log_from_dict)


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


def write_lines(path: str, lines: Iterable[str], manifest: Optional[RunManifest] = None) -> int:
    """One line per text, after the manifest-digest header if there is a
    manifest; returns the number of texts. The lines go to a temporary
    file beside path, which replaces path only after the last one: if
    lines or a write raises, the temporary file is deleted and path is
    left as it was, so a reader never sees a partial file."""
    partial = f"{path}.{os.getpid()}.partial"
    count = 0
    try:
        with open(partial, "w") as handle:
            if manifest is not None:
                handle.write(f"# manifest-digest {manifest.digest()}\n")
            for line in lines:
                handle.write(line + "\n")
                count += 1
        os.replace(partial, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(partial)
        raise
    return count


def write_jsonl(path: str, rows: Iterable[dict], manifest: Optional[RunManifest] = None) -> int:
    return write_lines(path, (json.dumps(row, sort_keys=True) for row in rows), manifest)


# what json.dumps writes for a str, ensure_ascii escapes included
_json_str = json.encoder.encode_basestring_ascii

# The row encoders below each give json.dumps(<spec>, sort_keys=True),
# byte for byte, with each dict's keys written in sorted order. As
# json.dumps does, they write strings with encode_basestring_ascii and
# numbers with int.__repr__ or float.__repr__; a timestamp is finite,
# from the simulator or through a decoder, so the NaN and infinity
# spellings never arise.


def swap_log_text(log: SwapLog) -> str:
    """json.dumps(swap_log_to_dict(log), sort_keys=True): the one text of
    a swap log in swap_logs.jsonl and pairs.jsonl."""
    return (
        f'{{"block_number": {log.block_number!r}, "chain_id": {log.chain_id!r}, '
        f'"direction": {_json_str(log.direction.value)}, "gas_price": {log.gas_price!r}, '
        f'"log_index": {log.log_index!r}, "pool_address": {_json_str(log.pool_address)}, '
        f'"recipient": {_json_str(log.recipient)}, "sender": {_json_str(log.sender)}, '
        f'"timestamp": {log.timestamp!r}, "token_in_amount": {log.token_in_amount!r}, '
        f'"token_out_amount": {log.token_out_amount!r}, "tx_hash": {_json_str(log.tx_hash)}}}'
    )


def _hop_text(hop: VictimHop) -> str:
    return (
        f'{{"amount_in": {hop.amount_in!r}, "amount_out": {hop.amount_out!r}, '
        f'"direction": {_json_str(hop.direction.value)}, "min_return": {hop.min_return!r}, '
        f'"pool_address": {_json_str(hop.pool_address)}, "token_in": {_json_str(hop.token_in)}, '
        f'"token_out": {_json_str(hop.token_out)}}}'
    )


def record_text(record: CrossChainTx) -> str:
    """json.dumps(record_to_dict(record), sort_keys=True)."""
    return (
        f'{{"dst_block_number": {record.dst_block_number!r}, '
        f'"dst_chain_id": {record.dst_chain_id!r}, "dst_gas_price": {record.dst_gas_price!r}, '
        f'"dst_timestamp": {record.dst_timestamp!r}, "dst_tx_hash": {_json_str(record.dst_tx_hash)}, '
        f'"hops": [{", ".join(map(_hop_text, record.hops))}], '
        f'"record_id": {_json_str(record.record_id)}, '
        f'"src_block_number": {record.src_block_number!r}, "src_chain_id": {record.src_chain_id!r}, '
        f'"src_timestamp": {record.src_timestamp!r}, "src_tx_hash": {_json_str(record.src_tx_hash)}}}'
    )


# '["x_for_y", "' and '["y_for_x", "': a noisy_swaps entry up to its amount
_NOISY_HEAD = {direction: f'[{_json_str(direction.value)}, "' for direction in Direction}


def timeline_text(timeline: PoolTimeline) -> str:
    """json.dumps(timeline_to_dict(timeline), sort_keys=True). Amounts
    are ints, so their decimal strings need no escapes."""
    pool, victim = timeline.pool, timeline.victim
    noisy = ", ".join(
        f'{_NOISY_HEAD[direction]}{amount}"]' for direction, amount in timeline.noisy_swaps
    )
    return (
        f'{{"noisy_swaps": [{noisy}], '
        f'"pool": {{"address": {_json_str(pool.address)}, '
        f'"fee": "{_fraction_to_str(pool.fee)}", "protocol": {_json_str(pool.protocol.value)}, '
        f'"reserve_x": "{pool.reserve_x}", "reserve_y": "{pool.reserve_y}", '
        f'"token_x": {_json_str(pool.token_x)}, "token_y": {_json_str(pool.token_y)}}}, '
        f'"victim": {{"amount_in": "{victim.amount_in}", '
        f'"direction": {_json_str(victim.direction.value)}, "min_out": "{victim.min_out}", '
        f'"recipient": {_json_str(victim.recipient)}, "sender": {_json_str(victim.sender)}}}, '
        f'"victim_tolerance": "{_fraction_to_str(timeline.victim_tolerance)}"}}'
    )


def _json_optional(value, to_str: Callable[..., str]) -> str:
    return "null" if value is None else _json_str(to_str(value))


def _json_optional_int(value: Optional[int]) -> str:
    return "null" if value is None else repr(value)


def label_text(label: dict) -> str:
    """json.dumps(label, sort_keys=True) for a labels.jsonl row as
    bridge.corpus_streams builds it: these nine keys, each block an int
    or None, each transaction hash a str or None."""
    return (
        f'{{"attacker_back_block": {_json_optional_int(label["attacker_back_block"])}, '
        f'"attacker_back_tx": {_json_optional(label["attacker_back_tx"], str)}, '
        f'"attacker_front_block": {_json_optional_int(label["attacker_front_block"])}, '
        f'"attacker_front_tx": {_json_optional(label["attacker_front_tx"], str)}, '
        f'"bot_back_tx": {_json_optional(label["bot_back_tx"], str)}, '
        f'"bot_front_tx": {_json_optional(label["bot_front_tx"], str)}, '
        f'"record_id": {_json_str(label["record_id"])}, "victim_id": {label["victim_id"]!r}, '
        f'"victim_tx": {_json_str(label["victim_tx"])}}}'
    )


def _own_segments(pair: SandwichPair) -> tuple[str, str]:
    """The two runs of a pairs.jsonl row that hold the pair's own
    fields: the classification, which sorts between back and front, and
    front_window_start_block to token_in, which sort between front and
    victim."""
    return (
        f'"classification": {_json_str(pair.classification.value)}',
        f'"front_window_start_block": {pair.front_window_start_block}, '
        f'"pool_address": {_json_str(pair.pool_address)}, '
        f'"profit_rate": {_json_optional(pair.profit_rate, _fraction_to_str)}, '
        f'"profit_token": {_json_optional(pair.profit_token, str)}, '
        f'"profit_usd": {_json_optional(pair.profit_usd, str)}, '
        f'"record_id": {_json_str(pair.record_id)}, '
        f'"token_in": {_json_str(pair.token_in)}',
    )


def _pair_line(back: str, front: str, victim: str, own: tuple[str, str]) -> str:
    """json.dumps(pair_to_dict(pair), sort_keys=True), given the text of
    each of its swap logs and _own_segments(pair): the one row layout of
    pairs.jsonl, shared by write_pairs_jsonl and iter_pairs."""
    return f'{{"back": {back}, {own[0]}, "front": {front}, {own[1]}, "victim": {victim}}}'


def write_pairs_jsonl(
    path: str, pairs: Iterable[SandwichPair], manifest: Optional[RunManifest] = None
) -> int:
    """write_jsonl(path, map(pair_to_dict, pairs), manifest), byte for
    byte, with each distinct swap log encoded once (a victim sits in many
    pairs, and a front or back in several). pairs is read once, in
    order, so it may be a generator; returns the number of pairs."""
    # id(log) -> (log, its text); holding the log keeps its id unique
    texts: dict[int, tuple[SwapLog, str]] = {}

    def log_text(log: SwapLog) -> str:
        entry = texts.get(id(log))
        if entry is None:
            entry = texts[id(log)] = (log, swap_log_text(log))
        return entry[1]

    lines = (
        _pair_line(
            log_text(pair.back), log_text(pair.front), log_text(pair.victim), _own_segments(pair)
        )
        for pair in pairs
    )
    return write_lines(path, lines, manifest)


def _numbered_lines(path: str) -> Iterator[tuple[int, str]]:
    """(line number, stripped text) for each line that is not blank or
    a # comment."""
    with open(path) as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if line and not line.startswith("#"):
                yield number, line


def _row(path: str, number: int, line: str):
    try:
        return json.loads(line)
    except ValueError as exc:
        raise MalformedData(f"{path}:{number}: invalid JSON: {exc}") from exc


def read_jsonl(path: str) -> Iterator[dict]:
    """The rows of a JSONL file; a line that is not JSON raises
    MalformedData naming the file and line."""
    for number, line in _numbered_lines(path):
        yield _row(path, number, line)


# what a decoder raises on a row it rejects: not an object, a missing
# key, a value of the wrong type, an amount past 256 bits
_DECODE_ERRORS = (KeyError, TypeError, ValueError, AttributeError, ArithmeticError, AmmError)


def _decoded(path: str, number: int, line: str, decode: Callable[[dict], object]):
    row = _row(path, number, line)
    try:
        return decode(row)
    except _DECODE_ERRORS as exc:
        raise MalformedData(f"{path}:{number}: {type(exc).__name__}: {exc}") from exc


def iter_decoded(path: str, decode: Callable[[dict], object]) -> Iterator:
    """Decode the rows of a JSONL file one at a time, as they are read.
    A line that is not JSON, or a row that decode rejects, raises
    MalformedData naming the file and line."""
    for number, line in _numbered_lines(path):
        yield _decoded(path, number, line, decode)


# Each reader below, and iter_pairs, owns one memo of strings for its
# read, and the decoders share equal addresses and tokens through it: a
# few hundred distinct strings stand for every row's copies, and the
# memo goes with the read. sys.intern would keep them for the life of
# the process.


def iter_swap_logs(path: str) -> Iterator[SwapLog]:
    """iter_decoded(path, swap_log_from_dict), the rows' equal strings
    shared."""
    return iter_decoded(path, partial(swap_log_from_dict, strings={}))


def iter_records(path: str) -> Iterator[CrossChainTx]:
    """iter_decoded(path, record_from_dict), the rows' equal strings
    shared. A record_id that an earlier row holds raises MalformedData
    naming the file, the line and the id: detect would write the
    record's pairs twice, and analyze count them twice."""
    decode = partial(record_from_dict, strings={})
    seen: set[str] = set()
    for number, line in _numbered_lines(path):
        record = _decoded(path, number, line, decode)
        if record.record_id in seen:
            raise MalformedData(f"{path}:{number}: duplicate record_id {record.record_id!r}")
        seen.add(record.record_id)
        yield record


# the text of _pair_line around its three swap-log texts and its two
# runs of own fields
_BEFORE_BACK = '{"back": '
_BEFORE_HEAD = ', "classification": '
_BEFORE_FRONT = ', "front": '
_BEFORE_TAIL = ', "front_window_start_block": '
_BEFORE_VICTIM = ', "victim": '


def _written_pair(
    line: str, log: Callable[[str], SwapLog], owns: dict[tuple[str, str], SandwichPair]
) -> Optional[SandwichPair]:
    """The pair of a line that _pair_line rebuilds byte for byte from
    what was read, each swap-log text through log; None for any other
    line, and for a line that any decoder rejects.

    The finds below fix every byte of the line outside its three log
    texts and its two runs of own fields, so the line rebuilds exactly
    when each log text is canonical (log checks it) and _own_segments
    gives back both runs. A JSON string cannot hold ', "' without a
    backslash before the quote, so no find stops inside a string of a
    row that rebuilds. owns maps the runs of the last row that rebuilt
    to its pair: a later row with the same two runs rebuilds as well, and
    takes its own fields from that pair without json.loads. detect
    writes the pairs of one record hop together, so rows with equal runs
    are adjacent (busy-2pool: 74,750 rows, 3,389 runs, each run's rows
    consecutive), and one entry finds every repeat."""
    if not (line.startswith(_BEFORE_BACK) and line.endswith("}")):
        return None
    a = line.find(_BEFORE_HEAD)
    b = line.find(_BEFORE_FRONT, a)
    c = line.find(_BEFORE_TAIL, b)
    d = line.find(_BEFORE_VICTIM, c)
    if -1 in (a, b, c, d):
        return None
    back = line[len(_BEFORE_BACK) : a]
    front = line[b + len(_BEFORE_FRONT) : c]
    victim = line[d + len(_BEFORE_VICTIM) : -1]
    runs = (line[a + 2 : b], line[c + 2 : d])
    try:
        seen = owns.get(runs)
        if seen is None:
            own = json.loads(f"{{{runs[0]}, {runs[1]}}}")
            own["back"], own["front"], own["victim"] = back, front, victim
            pair = _pair(own, log)
            if _own_segments(pair) != runs:
                return None
            # keep one entry, so memory does not grow with the rows
            owns.clear()
            owns[runs] = pair
            return pair
        return SandwichPair(
            seen.record_id,
            seen.pool_address,
            log(front),
            log(victim),
            log(back),
            seen.classification,
            seen.token_in,
            seen.front_window_start_block,
            seen.profit_token,
            seen.profit_rate,
            seen.profit_usd,
        )
    except _DECODE_ERRORS:
        # the caller decodes the line again in full and raises its error
        return None


def iter_pairs(path: str) -> Iterator[SandwichPair]:
    """iter_decoded(path, pair_from_dict), the same pairs and the same
    MalformedData errors, with each distinct swap-log text decoded once,
    and the own fields of a row decoded only when they differ from the
    row before.

    A row that write_pairs_jsonl could have written (_written_pair) is
    read from its three log texts, looked up by their exact text, and
    its own fields, looked up by the exact text of their two runs. A
    log text is decoded on its first sight, and kept only when
    swap_log_from_dict accepts it and swap_log_text encodes the log back
    to the same text; the runs are decoded when they are not those of
    the last row kept, and kept only when _own_segments encodes the
    fields back to the same runs. Every other row (other spacing or key
    order, 15 for 15.0, duplicate keys, a bad value) goes through
    json.loads and pair_from_dict. Equal texts give one shared SwapLog,
    so memory follows the distinct log texts, not the number of pairs,
    and those logs share equal strings as in iter_swap_logs."""
    logs: dict[str, SwapLog] = {}
    owns: dict[tuple[str, str], SandwichPair] = {}
    strings: dict[str, str] = {}

    def log(text: str) -> SwapLog:
        found = logs.get(text)
        if found is None:
            found = swap_log_from_dict(json.loads(text), strings)
            if swap_log_text(found) != text:
                raise ValueError("not a canonical swap-log text")
            logs[text] = found
        return found

    for number, line in _numbered_lines(path):
        pair = _written_pair(line, log, owns)
        yield pair if pair is not None else _decoded(path, number, line, pair_from_dict)
