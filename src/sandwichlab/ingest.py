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
from fractions import Fraction
from bisect import bisect_left, insort
from functools import partial
from itertools import groupby
from typing import IO, Callable, Collection, Iterable, Iterator, NamedTuple, Optional, TextIO

from . import __version__
from .amm import (
    MAX_AMOUNT,
    AmmError,
    Direction,
    Pool,
    SwapRequest,
    _check_amount,
)
from .attack import PoolTimeline
from .detector import (
    Classification,
    CrossChainTx,
    MalformedData,
    SandwichPair,
    SwapLog,
    VictimHop,
    finite_decimal,
)


# -- JSONL codecs ----------------------------------------------------------


def _fraction_to_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


# int() alone would also take " 3", "+3", "3_0" and non-ASCII digits
_FRACTION_TEXT = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")


def _fraction_from_str(value: str) -> Fraction:
    """A string "n" or "n/d" of ASCII digits, n with an optional minus
    sign, d not zero."""
    if type(value) is not str or not _FRACTION_TEXT.fullmatch(value):
        raise ValueError(f'bad fraction {value!r}: not a string "n" or "n/d" of digits, d > 0')
    num, _, den = value.partition("/")
    return Fraction(int(num), int(den or 1))


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
    """Direction(value), its ValueError included, as a lookup in
    _DIRECTIONS: an enum call costs twenty times one, so the call runs
    only on a miss, to raise its error."""
    found = _DIRECTIONS.get(value) if type(value) is str else None
    return Direction(value) if found is None else found


def _unknown_key(data: dict, cls: type, fields: Collection[str] = ()) -> TypeError:
    """The error for a row object that holds every field of cls (or
    each of fields, if given) and more: it names the first key that is
    not one."""
    fields = fields or cls.__match_args__
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


_POOL_KEYS = frozenset(Pool.__match_args__)


def pool_from_dict(data: dict) -> Pool:
    """A timeline's pool, or a pool of a simulate config. A key that is
    not a Pool field is an error, checked first: a misspelt key is named
    even where it stands for a missing field."""
    if not _POOL_KEYS.issuperset(data):
        raise _unknown_key(data, Pool)
    _require(data, ("token_x", "token_y", "address"), str)
    return Pool(
        data["token_x"], data["token_y"], _amount("reserve_x", data["reserve_x"]),
        _amount("reserve_y", data["reserve_y"]), _fraction_from_str(data["fee"]), data["address"],
    )


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
    if len(victim) > len(SwapRequest.__match_args__):
        raise _unknown_key(victim, SwapRequest)
    request = SwapRequest(
        direction=_direction(victim["direction"]),
        amount_in=_amount("amount_in", victim["amount_in"]),
        min_out=_amount("min_out", victim["min_out"]),
        sender=victim["sender"],
        recipient=victim["recipient"],
    )
    pool = pool_from_dict(data["pool"])
    noisy_swaps = tuple(map(_noisy_swap, data["noisy_swaps"]))
    if len(data) > len(PoolTimeline.__match_args__):
        raise _unknown_key(data, PoolTimeline)
    try:
        return PoolTimeline(pool, noisy_swaps, request)
    except (TypeError, ValueError, AmmError) as exc:
        # PoolTimeline itself checks only the range of each noise amount
        raise MalformedData(f"bad noisy_swaps: {exc}") from exc


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


_PAIR_KEYS = frozenset(SandwichPair.__match_args__)


def _own_fields(data: dict, keys: frozenset[str]) -> tuple:
    """A pairs.jsonl row's own fields, in SandwichPair's order, for
    _joined. Any key of data outside keys is an error: keys is
    _PAIR_KEYS for a whole row, _OWN_KEYS for the runs of own fields
    that iter_pairs parses apart from the logs."""
    record_id = _typed(data, "record_id", str)
    pool_address = _typed(data, "pool_address", str)
    classification = Classification(data["classification"])
    token_in = _typed(data, "token_in", str)
    front_window_start_block = _typed(data, "front_window_start_block", int)
    profit_token = _optional_str("profit_token", data["profit_token"], _decimal_int)
    profit_rate = _optional_str("profit_rate", data["profit_rate"], _fraction_from_str)
    profit_usd = _optional_str(
        "profit_usd", data["profit_usd"], partial(finite_decimal, "profit_usd")
    )
    if len(data) > len(keys):
        raise _unknown_key(data, SandwichPair, keys)
    return (
        record_id, pool_address, classification, token_in, front_window_start_block,
        profit_token, profit_rate, profit_usd,
    )


def _joined(own: tuple, front: SwapLog, victim: SwapLog, back: SwapLog) -> SandwichPair:
    return SandwichPair(own[0], own[1], front, victim, back, *own[2:])


def pair_from_dict(data: dict) -> SandwichPair:
    """Decode one pairs.jsonl row."""
    logs = map(swap_log_from_dict, (data["front"], data["victim"], data["back"]))
    return _joined(_own_fields(data, _PAIR_KEYS), *logs)


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


def write_rows(
    handle: IO[str], lines: Iterable[str], manifest: Optional[RunManifest] = None
) -> int:
    """One line per text to an open file, after the manifest-digest
    header if there is a manifest; returns the number of texts."""
    if manifest is not None:
        handle.write(f"# manifest-digest {manifest.digest()}\n")
    count = 0
    for line in lines:
        handle.write(line + "\n")
        count += 1
    return count


def write_lines(path: str, lines: Iterable[str], manifest: Optional[RunManifest] = None) -> int:
    """write_rows to path. The lines go to a temporary file beside path,
    which replaces path only after the last one: if lines or a write
    raises, the temporary file is deleted and path is left as it was, so
    a reader never sees a partial file."""
    partial = f"{path}.{os.getpid()}.partial"
    try:
        with open(partial, "w") as handle:
            count = write_rows(handle, lines, manifest)
        os.replace(partial, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(partial)
        raise
    return count


def write_jsonl(path: str, rows: Iterable[dict], manifest: Optional[RunManifest] = None) -> int:
    return write_lines(path, (json.dumps(row, sort_keys=True) for row in rows), manifest)


# -- Row tables ------------------------------------------------------------

# Each row kind is one table of (key, shape) entries, in its class's field
# order. From the table come the row's dict form (<kind>_to_dict), its
# writer text and, for the rows the CLI reads by pattern, its row pattern
# and the builder of its object from a match: each is compiled once, at
# import, into a plain function or pattern string of this module. The
# decoders above are written by hand: they read every row that misses a
# pattern, and the tests check each table against them and against the
# reference dict forms in tests/_oracles.py.
#
# A writer text is the bytes json.dumps(..., sort_keys=True) writes for
# the row's dict form, built as one f-string. As json.dumps does, it
# writes strings with encode_basestring_ascii and numbers with
# int.__repr__ or float.__repr__; a timestamp is finite, from the
# simulator or through a decoder, so the NaN and infinity spellings never
# arise. A pattern group takes only text that json.loads reads as the
# value built from it, and only values the row's decoder accepts: a
# string is printable ASCII with no quote or backslash, so it holds no
# escape; an amount has no leading zero and at most 77 digits, so it is
# below 10**77 < 2**256; an int or a timestamp is spelled as int.__repr__
# or float.__repr__ spell it.

# what json.dumps writes for a str, ensure_ascii escapes included
_json_str = json.encoder.encode_basestring_ascii


class _Shape(NamedTuple):
    """How a field is written and read. In each template $ stands for
    the field: its value in text and value, its pattern group in groups
    and build. text is the field's JSON text as an f-string piece, value
    the expression of its dict form, pattern the regex of its text, with
    one group per name in groups, and build the expression of its value
    from them. A shape with no build is in no derived builder: it is
    read only by the decoders."""

    text: str
    value: str = "$"
    pattern: str = ""
    build: str = ""
    groups: tuple[str, ...] = ("$",)


def _fill(template: str, expression: str) -> str:
    return template.replace("$", expression)


def _optional(json: str, value: str = "$") -> _Shape:
    """null, or a value whose JSON text is json and whose dict form is value."""
    return _Shape(f'{{"null" if $ is None else {json}}}', f"None if $ is None else {value}")


_TEXT = _Shape("{_json_str($)}", pattern=r'"([ !#-\[\]-~]*)"', build="$")
# a string that many rows repeat: the read's strings memo shares its copies
_SHARED = _TEXT._replace(build="share($, $)")
_INT = _Shape("{$!r}", pattern=r"(0|-?[1-9][0-9]*)", build="int($)")
_AMOUNT = _INT._replace(pattern=r"(0|[1-9][0-9]{0,76})")
_POSITIVE = _INT._replace(pattern=r"([1-9][0-9]{0,76})")
_NUMBER = _Shape("{$!r}", "$", r"(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:e[-+][0-9]+)?)", "_number($)")
# an amount written as a string of decimal digits
_DECIMAL = _Shape('"{$}"', "str($)", r'"(0|[1-9][0-9]{0,76})"', "int($)")
_POSITIVE_DECIMAL = _DECIMAL._replace(pattern=r'"([1-9][0-9]{0,76})"')
_FRACTION = _Shape('"{_fraction_to_str($)}"', "_fraction_to_str($)", r'"([0-9]+/[0-9]+)"')
_FEE = _FRACTION._replace(build="_fraction_from_str($)")
_ENUM = _Shape("{_json_str($.value)}", "$.value", _TEXT.pattern)
_DIRECTION_NAMES = "|".join(_DIRECTIONS)
_DIRECTION = _ENUM._replace(pattern=f'"({_DIRECTION_NAMES})"', build="_DIRECTIONS[$]")
_OPTIONAL_TEXT = _optional("_json_str($)")
_OPTIONAL_INT = _optional("repr($)")
_OPTIONAL_DECIMAL = _optional("_json_str(str($))", "str($)")
_OPTIONAL_FRACTION = _optional("_json_str(_fraction_to_str($))", "_fraction_to_str($)")


def _items(table: dict, keys: Iterable[str], part: str, access: str) -> str:
    """'"key": <the part of key's shape>' for each of keys, joined by ', ',
    with the field (access of key) for $."""
    return ", ".join(
        f'"{key}": ' + _fill(getattr(table[key], part), access.format(key)) for key in keys
    )


def _nested(cls: type, table: dict, access: str = "$.{}") -> _Shape:
    """The shape of a JSON object that holds a cls, its keys sorted; its
    value is built by position, in the order of table."""
    keys = sorted(table)
    return _Shape(
        "{{" + _items(table, keys, "text", access) + "}}",
        "{" + _items(table, table, "value", access) + "}",
        r"\{" + ", ".join(f'"{key}": {table[key].pattern}' for key in keys) + r"\}",
        f"{cls.__name__}(" + ", ".join(_fill(table[key].build, f"$_{key}") for key in table) + ")",
        tuple(_fill(group, f"$_{key}") for key in keys for group in table[key].groups),
    )


def _many(item: _Shape, writer: str) -> _Shape:
    """A JSON array of items, writer the name of the function that
    writes one; the pattern reads an array of exactly one item."""
    text = '[{", ".join(map(' + writer + ', $))}]'
    value = f"[{_fill(item.value, 'item')} for item in $]"
    return _Shape(text, value, rf"\[{item.pattern}\]", f"({item.build},)", item.groups)


def _define(name: str, result: str, *lines: str, args: str = "row") -> Callable:
    """def name(args): *lines; return result, compiled into this module,
    with the row for $."""
    body = "".join(f"    {_fill(line, 'row')}\n" for line in (*lines, f"return {result}"))
    exec(f"def {name}({args}):\n{body}", globals())
    return globals()[name]


def _builder(name: str, shape: _Shape, args: str = "strings") -> Callable[..., object]:
    """name(*args, match): the object of a match of shape's pattern. The
    builds of _SHARED strings share them through strings, the memo of one
    read."""
    lines = ["(" + "".join(f"{group}, " for group in shape.groups) + ") = match.groups()"]
    if "share(" in shape.build:
        lines.append("share = strings.setdefault")
    return _define(name, shape.build, *lines, args=f"{args}, match")


# '["x_for_y", "' and '["y_for_x", "': a noisy_swaps entry up to its amount
_NOISY_HEAD = {direction: f'[{_json_str(direction.value)}, "' for direction in Direction}
_NOISY_SWAP = rf'\["(?:{_DIRECTION_NAMES})", "[1-9][0-9]{{0,76}}"\]'
# the direction and the amount of each entry of a matched noisy_swaps
_NOISY_FIELDS = f'"({_DIRECTION_NAMES})", "([0-9]+)"'


def _noisy_text(swaps: tuple) -> str:
    return ", ".join([f'{_NOISY_HEAD[direction]}{amount}"]' for direction, amount in swaps])


_SWAP_LOG = {
    "tx_hash": _TEXT, "block_number": _INT, "log_index": _INT, "pool_address": _SHARED,
    "chain_id": _INT, "direction": _DIRECTION, "token_in_amount": _POSITIVE,
    "token_out_amount": _AMOUNT, "sender": _SHARED, "recipient": _SHARED,
    "gas_price": _AMOUNT, "timestamp": _NUMBER,
}
_SWAP_LOG_SHAPE = _nested(SwapLog, _SWAP_LOG)
_HOP = {
    "pool_address": _SHARED, "token_in": _SHARED, "token_out": _SHARED, "direction": _DIRECTION,
    "amount_in": _AMOUNT, "amount_out": _AMOUNT, "min_return": _AMOUNT,
}
_HOP_SHAPE = _nested(VictimHop, _HOP)
_RECORD = {
    "record_id": _TEXT, "src_tx_hash": _TEXT, "src_chain_id": _INT, "src_block_number": _INT,
    "src_timestamp": _NUMBER, "dst_tx_hash": _TEXT, "dst_chain_id": _INT,
    "dst_block_number": _INT, "dst_timestamp": _NUMBER, "dst_gas_price": _AMOUNT,
    "hops": _many(_HOP_SHAPE, "_hop_text"),
}
_RECORD_SHAPE = _nested(CrossChainTx, _RECORD)
_POOL = {
    "token_x": _TEXT, "token_y": _TEXT, "reserve_x": _POSITIVE_DECIMAL,
    "reserve_y": _POSITIVE_DECIMAL, "fee": _FEE, "address": _TEXT,
}
_POOL_SHAPE = _nested(Pool, _POOL)
# The timeline builder's memo, of one read, holds the first Pool of each
# distinct address and fee, checked by Pool, and each later pool is a
# copy of it with the row's tokens and reserves, which the pattern has
# checked.
_POOL_KEY = "($_address, $_fee)"
_POOL_SHAPE = _POOL_SHAPE._replace(
    build=f"(memo.get({_POOL_KEY}) or memo.setdefault({_POOL_KEY}, {_POOL_SHAPE.build}))"
    "._derived($_token_x, $_token_y, int($_reserve_x), int($_reserve_y))"
)
# a timeline's victim, a SwapRequest
_VICTIM = {
    "direction": _DIRECTION, "amount_in": _POSITIVE_DECIMAL, "min_out": _DECIMAL,
    "sender": _TEXT, "recipient": _TEXT,
}
# [direction, decimal amount] entries, read as one group that
# noisy_fields, the findall of _NOISY_FIELDS, splits
_NOISY_SWAPS = _Shape(
    "[{_noisy_text($)}]", "[[direction.value, str(amount)] for direction, amount in $]",
    rf"\[((?:{_NOISY_SWAP}(?:, {_NOISY_SWAP})*)?)\]",
    "tuple([(_DIRECTIONS[name], int(amount)) for name, amount in noisy_fields($)])",
)
_TIMELINE = {
    "pool": _POOL_SHAPE, "noisy_swaps": _NOISY_SWAPS, "victim": _nested(SwapRequest, _VICTIM),
}
_TIMELINE_SHAPE = _nested(PoolTimeline, _TIMELINE)
# a labels.jsonl row: a dict, as bridge.corpus_streams builds it
_LABEL = {
    "victim_id": _INT, "record_id": _TEXT, "victim_tx": _TEXT,
    "attacker_front_tx": _OPTIONAL_TEXT, "attacker_back_tx": _OPTIONAL_TEXT,
    "attacker_front_block": _OPTIONAL_INT, "attacker_back_block": _OPTIONAL_INT,
    "bot_front_tx": _OPTIONAL_TEXT, "bot_back_tx": _OPTIONAL_TEXT,
}
_LABEL_SHAPE = _nested(dict, _LABEL, '$["{}"]')
# a pair's swap log; a pairs.jsonl row holds the text log_text gives it
_PAIR_LOG = _SWAP_LOG_SHAPE._replace(text="{log_text($)}", value="swap_log_to_dict($)")
_PAIR = {
    "record_id": _TEXT, "pool_address": _TEXT, "front": _PAIR_LOG, "victim": _PAIR_LOG,
    "back": _PAIR_LOG, "classification": _ENUM, "token_in": _TEXT,
    "front_window_start_block": _INT, "profit_token": _OPTIONAL_DECIMAL,
    "profit_rate": _OPTIONAL_FRACTION, "profit_usd": _OPTIONAL_DECIMAL,
}
_PAIR_SHAPE = _nested(SandwichPair, _PAIR)
# a pair's own fields: all but its three swap logs
_OWN_KEYS = frozenset(key for key in _PAIR if _PAIR[key] is not _PAIR_LOG)

swap_log_to_dict = _define("swap_log_to_dict", _SWAP_LOG_SHAPE.value)
record_to_dict = _define("record_to_dict", _RECORD_SHAPE.value)
pool_to_dict = _define("pool_to_dict", _POOL_SHAPE.value)
timeline_to_dict = _define("timeline_to_dict", _TIMELINE_SHAPE.value)
pair_to_dict = _define("pair_to_dict", _PAIR_SHAPE.value)

# the one text of a swap log in swap_logs.jsonl and pairs.jsonl
swap_log_text = _define("swap_log_text", f"f'{_SWAP_LOG_SHAPE.text}'")
_hop_text = _define("_hop_text", f"f'{_HOP_SHAPE.text}'")
record_text = _define("record_text", f"f'{_RECORD_SHAPE.text}'")
timeline_text = _define("timeline_text", f"f'{_TIMELINE_SHAPE.text}'")
label_text = _define("label_text", f"f'{_LABEL_SHAPE.text}'")
# the one row layout of pairs.jsonl, each log written by log_text
_pair_text = _define("_pair_text", f"f'{_PAIR_SHAPE.text}'", args="row, log_text")

# A pairs.jsonl row holds the pair's keys sorted: the text of each log,
# and between the logs runs of the pair's own fields. The _BEFORE_* texts
# open each log and run, and iter_pairs splits a row at them.
_PAIR_RUNS = [list(run) for _, run in groupby(sorted(_PAIR), lambda key: _PAIR[key] is _PAIR_LOG)]
_BEFORE_BACK, _BEFORE_HEAD, _BEFORE_FRONT, _BEFORE_TAIL, _BEFORE_VICTIM = (
    (", " if index else "{") + f'"{run[0]}": ' for index, run in enumerate(_PAIR_RUNS)
)

# the patterns are compiled on the first read, not at import, and
# re.compile keeps them in its cache for later reads
_SWAP_LOG_ROW = _SWAP_LOG_SHAPE.pattern
_RECORD_ROW = _RECORD_SHAPE.pattern
_TIMELINE_ROW = _TIMELINE_SHAPE.pattern
_swap_log_of = _builder("_swap_log_of", _SWAP_LOG_SHAPE)
_record_of = _builder("_record_of", _RECORD_SHAPE)
_timeline_of = _builder("_timeline_of", _TIMELINE_SHAPE, "memo, noisy_fields")


class _WindowMemo:
    """What the pairs writer or reader keeps of each swap log it has
    met, for the logs of each pool's current front window only.

    detect pairs a record only with logs at or after its
    front_window_start_block and writes records in commit order, so on
    its own output a pool's window start never falls, and a log below it
    never comes back. follow(pair) drops the entries of the logs of the
    pair's pool that lie below its window start when that start is above
    the one of the pool's pair before. A dropped log that comes back in
    a file written otherwise (window starts that go back) is only
    encoded or decoded again: no byte and no value changes."""

    __slots__ = ("entries", "_below", "_starts")

    def __init__(self) -> None:
        self.entries: dict = {}
        # pool -> (block_number, key) of its logs in entries, sorted
        self._below: dict[str, list] = {}
        # pool -> front_window_start_block of its last pair
        self._starts: dict[str, int] = {}

    def add(self, key, log: SwapLog, entry) -> None:
        self.entries[key] = entry
        insort(self._below.setdefault(log.pool_address, []), (log.block_number, key))

    def follow(self, pair: SandwichPair) -> None:
        pool, start = pair.pool_address, pair.front_window_start_block
        last = self._starts.get(pool, start)
        self._starts[pool] = start
        if start > last and pool in self._below:
            below = self._below[pool]
            cut = bisect_left(below, (start,))
            for _, key in below[:cut]:
                del self.entries[key]
            del below[:cut]


def pair_rows(pairs: Iterable[SandwichPair]) -> Iterator[str]:
    """map(json.dumps(pair_to_dict(pair), sort_keys=True), pairs), byte
    for byte: each row is _pair_text, the layout the _PAIR table gives
    (the tests hold it to the reference dict form in tests/_oracles.py),
    with each distinct swap log encoded once while its pool's front
    window holds it (_WindowMemo): a victim sits in many pairs, and a
    front or back in several, all of records whose windows hold it.
    pairs is read once, in order, so it may be a generator."""
    memo = _WindowMemo()
    # id(log) -> (log, its text); holding the log keeps its id unique
    texts: dict[int, tuple[SwapLog, str]] = memo.entries

    def log_text(log: SwapLog) -> str:
        entry = texts.get(id(log))
        if entry is None:
            entry = (log, swap_log_text(log))
            memo.add(id(log), log, entry)
        return entry[1]

    for pair in pairs:
        memo.follow(pair)
        yield _pair_text(pair, log_text)


def write_pairs_jsonl(
    path: str, pairs: Iterable[SandwichPair], manifest: Optional[RunManifest] = None
) -> int:
    """write_jsonl(path, map(pair_to_dict, pairs), manifest), byte for
    byte, through pair_rows; returns the number of pairs."""
    return write_lines(path, pair_rows(pairs), manifest)


def _numbered_lines(
    path: str, start: int = 0, end: Optional[int] = None
) -> Iterator[tuple[int, str]]:
    """(line number, stripped text) for each line that is not blank or
    a # comment: of the whole file, or of its bytes from start up to end
    (the end of the file if None), each the start of a line. The line at
    start is line 1."""
    if start == 0 and end is None:
        handle = open(path)
        lines: Iterable[str] = handle
    else:
        # "\n" alone ends a line, and no line end is translated, so each
        # line's length is its length in bytes
        handle = open(path, newline="\n")
        lines = _lines_between(handle, start, end)
    with handle:
        for number, line in enumerate(lines, 1):
            line = line.strip()
            if line and not line.startswith("#"):
                yield number, line


def _lines_between(handle: TextIO, start: int, end: Optional[int]) -> Iterator[str]:
    """The lines of handle, opened with newline="\n", from byte start up
    to byte end, each split as a read with universal newlines splits it:
    bytes.splitlines splits at "\n", "\r\n" and a lone "\r"."""
    handle.seek(start)
    for line in handle:
        if end is not None and start >= end:
            return
        if line.isascii():
            start += len(line)
        else:
            start += len(line.encode(handle.encoding))
        if "\r" in line:
            pieces = line.encode(handle.encoding).splitlines()
            yield from (piece.decode(handle.encoding) for piece in pieces)
        else:
            yield line


def _lines_before(path: str, offset: int) -> int:
    """The number of lines in the first offset bytes of path, offset the
    start of a line, split as a text read splits them: at "\n", "\r\n"
    and a lone "\r"."""
    lines, last = 0, b""
    with open(path, "rb") as handle:
        while offset > 0 and (block := handle.read(min(offset, 1 << 20))):
            offset -= len(block)
            # a "\r\n" cut between two blocks is one line end
            lines += block.count(b"\n") + block.count(b"\r") - block.count(b"\r\n")
            lines -= last + block[:1] == b"\r\n"
            last = block[-1:]
    return lines


def line_ranges(path: str, count: int) -> list[tuple[int, Optional[int]]]:
    """The byte ranges (start, end) of iter_pairs that cut path into at
    most count runs of whole lines of about equal size, in order; the
    last one's end is None, the end of the file. A path that is not a
    regular file, such as a pipe, is one range: it cannot be read twice."""
    cuts = [0]
    if count > 1 and os.path.isfile(path):
        size = os.path.getsize(path)
        with open(path, "rb") as handle:
            for index in range(1, count):
                # to the start of the first line that begins at or past
                # the index-th count-th of the file, after the last cut
                handle.seek(max(size * index // count, cuts[-1] + 1) - 1)
                handle.readline()
                if handle.tell() >= size:
                    break
                cuts.append(handle.tell())
    return list(zip(cuts, [*cuts[1:], None]))


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


# The readers below read each row in its writer's layout (swap_log_text,
# record_text with one hop, timeline_text) through one fullmatch of its
# row pattern, and build the row's object straight from the groups. Every
# other row (escapes, other spacing or key order, "007", 7 for "7", two
# hops) and every row whose groups the builder rejects go through
# json.loads and the decoder, which raises every documented error: the
# same objects and the same errors as iter_decoded.


def _number(text: str):
    """What json.loads reads from a _NUMBER text: a float if it has a
    fraction or an exponent, else an int. A float past the finite range
    raises ValueError, as _finite does on the decoder's path."""
    if "." in text or "e" in text:
        value = float(text)
        if not math.isfinite(value):
            raise ValueError(f"{text} is not finite")
        return value
    return int(text)


def _read_rows(
    path: str, row: str, build: Callable[[re.Match], object], decode: Callable[[dict], object]
) -> Iterator[tuple[int, object]]:
    """(line number, object) for each row, the objects those of
    iter_decoded(path, decode): build(match) for a row that fullmatches
    the pattern row, unless build rejects its groups; decode for every
    other row."""
    pattern = re.compile(row)
    for number, line in _numbered_lines(path):
        built = None
        match = pattern.fullmatch(line)
        if match is not None:
            try:
                built = build(match)
            except _DECODE_ERRORS:
                pass  # the decoder reads the row again, to its value or its error
        yield number, _decoded(path, number, line, decode) if built is None else built


# Each reader of swap logs or records owns one memo of strings for its
# read, and both of its paths share equal addresses and tokens through
# it: a few hundred distinct strings stand for every row's copies, and
# the memo goes with the read. sys.intern would keep them for the life
# of the process.


def iter_swap_logs(path: str) -> Iterator[SwapLog]:
    """iter_decoded(path, swap_log_from_dict), each row in
    swap_log_text's layout read by pattern, the rows' equal strings
    shared."""
    strings: dict[str, str] = {}
    rows = _read_rows(
        path, _SWAP_LOG_ROW, partial(_swap_log_of, strings),
        partial(swap_log_from_dict, strings=strings),
    )
    return (log for _, log in rows)


def iter_records(path: str) -> Iterator[CrossChainTx]:
    """iter_decoded(path, record_from_dict), each one-hop row in
    record_text's layout read by pattern, the rows' equal strings shared.
    A record_id that an earlier row holds raises MalformedData naming the
    file, the line and the id: detect would write the record's pairs
    twice, and analyze count them twice."""
    strings: dict[str, str] = {}
    rows = _read_rows(
        path, _RECORD_ROW, partial(_record_of, strings), partial(record_from_dict, strings=strings)
    )
    seen: set[str] = set()
    for number, record in rows:
        if record.record_id in seen:
            raise MalformedData(f"{path}:{number}: duplicate record_id {record.record_id!r}")
        seen.add(record.record_id)
        yield record


def iter_timelines(path: str) -> Iterator[PoolTimeline]:
    """iter_decoded(path, timeline_from_dict), each row in timeline_text's
    layout read by pattern, each distinct pool checked once per read (the
    memo of _POOL_SHAPE)."""
    built = partial(_timeline_of, {}, re.compile(_NOISY_FIELDS).findall)
    return (timeline for _, timeline in _read_rows(path, _TIMELINE_ROW, built, timeline_from_dict))


def iter_pairs(
    path: str, start: int = 0, end: Optional[int] = None
) -> Iterator[SandwichPair]:
    """iter_decoded(path, pair_from_dict), the same pairs and the same
    MalformedData errors, with each distinct swap-log text decoded once
    while its pool's front window holds it (_WindowMemo), and the own
    fields of a row decoded only when they differ from the row before.

    A row that write_pairs_jsonl could have written is read from its
    three log texts, looked up by their exact text, and its two runs of
    own fields. A log text is decoded on its first sight, and kept only
    when swap_log_from_dict accepts it and swap_log_text encodes the log
    back to the same text. The runs are decoded by _own_fields when they
    are not those of the last row kept, and kept, with their fields,
    only when _pair_text writes the pair back to the same line.
    detect writes the pairs of one record hop together, so rows with
    equal runs are adjacent (busy-2pool: 74,750 rows, 3,389 runs, each
    run's rows consecutive). Every other row (other spacing or key
    order, 15 for 15.0, duplicate keys, a bad value) goes through
    json.loads and pair_from_dict. Equal texts within a window give one
    shared SwapLog, so memory follows the logs of each pool's current
    window, not the number of pairs or of logs.

    Given a byte range of line_ranges, the pairs of its lines only, each
    read as above, with the same errors: a line's number in an error is
    its number in the whole file."""
    memo = _WindowMemo()
    logs: dict[str, SwapLog] = memo.entries
    # the runs of the last row that rebuilt, and its own fields
    runs: Optional[tuple[str, str]] = None
    own: tuple = ()

    def log(text: str) -> SwapLog:
        found = logs.get(text)
        if found is None:
            found = swap_log_from_dict(json.loads(text))
            if swap_log_text(found) != text:
                raise ValueError("not a canonical swap-log text")
            memo.add(text, found, found)
        return found

    def written_pair(line: str) -> Optional[SandwichPair]:
        """The pair of a line that _pair_text writes back byte for byte
        from what was read; None for any other line, and for a line that
        any decoder rejects. The finds fix every byte of the line outside
        its three log texts and two runs, so a line whose log texts are
        canonical and whose runs are those of the last line kept rebuilds
        too. A JSON string cannot hold ', "' without a backslash before
        the quote, so no find stops inside a string of a row that
        rebuilds."""
        nonlocal runs, own
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
        line_runs = (line[a + 2 : b], line[c + 2 : d])
        try:
            if line_runs == runs:
                return _joined(own, log(front), log(victim), log(back))
            fields = _own_fields(json.loads(f"{{{line_runs[0]}, {line_runs[1]}}}"), _OWN_KEYS)
            pair = _joined(fields, log(front), log(victim), log(back))
        except _DECODE_ERRORS:
            # the caller decodes the line again in full and raises its error
            return None
        texts = {id(pair.back): back, id(pair.front): front, id(pair.victim): victim}
        if _pair_text(pair, lambda written: texts[id(written)]) != line:
            return None
        runs, own = line_runs, fields
        return pair

    for number, line in _numbered_lines(path, start, end):
        pair = written_pair(line)
        if pair is None:
            try:
                pair = _decoded(path, number, line, pair_from_dict)
            except MalformedData:
                if not start:
                    raise
                # the error names the line's number in the whole file:
                # the lines before start are counted only here
                number += _lines_before(path, start)
                pair = _decoded(path, number, line, pair_from_dict)
        memo.follow(pair)
        yield pair
