"""Sandwich-pair detection over exported swap logs.

Implements the heuristic matching over a cross-chain swap record and
the per-pool swap logs of its destination chain: same-direction front
candidates between the source commit and the victim, opposite-direction
back candidates in a bounded block window after the victim, amount-band
matching with receive-address priority, and single- vs cross-chain
classification. A direct, unoptimized reference implementation is kept
alongside the production matcher so the two can be cross-checked.
"""

from __future__ import annotations

import csv
import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from operator import attrgetter
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .amm import Direction

DEFAULT_STABLECOINS = frozenset(
    {"USDT", "USDC", "BUSD", "DAI", "TUSD", "USDD", "FRAX", "USDP", "GUSD", "LUSD"}
)


class MissingPrice(KeyError):
    pass


class MalformedData(ValueError):
    """An input row or field of the wrong shape."""


class Classification(enum.Enum):
    CROSS_CHAIN = "cross_chain"
    SINGLE_CHAIN = "single_chain"


@dataclass(slots=True, unsafe_hash=True)
class SwapLog:
    """One decoded swap event; (block_number, log_index) totally orders
    logs within a chain. Logs compare and hash by value.

    Nothing assigns to a log after construction. It is not a frozen
    dataclass only because a corpus has one per swap, and a frozen
    __init__ costs about eight times a plain one."""

    tx_hash: str
    block_number: int
    log_index: int
    pool_address: str
    chain_id: int
    direction: Direction
    token_in_amount: int
    token_out_amount: int
    sender: str
    recipient: str
    gas_price: int
    timestamp: float

    def position(self) -> tuple[int, int]:
        return (self.block_number, self.log_index)


@dataclass(slots=True)
class VictimHop:
    """One pool hop of a record. Nothing assigns to a hop after
    construction; it is not frozen only for the cost of a frozen
    __init__, one per record decoded."""

    pool_address: str
    token_in: str
    token_out: str
    direction: Direction
    amount_in: int
    amount_out: int
    min_return: int


@dataclass(slots=True)
class CrossChainTx:
    """One bridged swap: the source commit and the destination execution.
    Nothing assigns to a record after construction; it is not frozen
    only for the cost of a frozen __init__, one per record decoded."""

    record_id: str
    src_tx_hash: str
    src_chain_id: int
    src_block_number: int
    src_timestamp: float
    dst_tx_hash: str
    dst_chain_id: int
    dst_block_number: int
    dst_timestamp: float
    dst_gas_price: int
    hops: tuple[VictimHop, ...]

    def __post_init__(self) -> None:
        if not self.hops:
            raise ValueError("CrossChainTx needs at least one pool hop")
        if self.dst_timestamp < self.src_timestamp:
            raise ValueError("destination precedes source")


@dataclass(frozen=True, slots=True)
class DetectionConfig:
    num_blocks: int = 100
    band_low: Fraction = Fraction(9, 10)
    band_high: Fraction = Fraction(11, 10)
    max_interval: float = 100.0
    stablecoin_set: frozenset[str] = DEFAULT_STABLECOINS

    def __post_init__(self) -> None:
        if self.num_blocks < 1:
            raise ValueError("num_blocks must be >= 1")
        if not self.band_low < 1 < self.band_high:
            raise ValueError("amount band must straddle 1")

    def back_band(self, front_out: int) -> tuple[int, int]:
        """Exact integer bounds (lo, hi) on a back's input amount:
        ceil(front_out * band_low) and floor(front_out * band_high).
        The band is empty (lo > hi) when front_out <= 0."""
        if front_out <= 0:
            return (1, 0)
        lo, hi = self.band_low, self.band_high
        return (
            -(-front_out * lo.numerator // lo.denominator),
            front_out * hi.numerator // hi.denominator,
        )


@dataclass(slots=True)
class SandwichPair:
    """One detected (front, victim, back) triple. Nothing assigns to a
    pair after construction (classify_and_price builds new ones); it is
    not frozen only for the cost of a frozen __init__, one per pair that
    detect finds and analyze reads."""

    record_id: str
    pool_address: str
    front: SwapLog
    victim: SwapLog
    back: SwapLog
    classification: Classification
    token_in: str
    front_window_start_block: int
    profit_token: Optional[int] = None
    profit_rate: Optional[Fraction] = None
    profit_usd: Optional[Decimal] = None


def _finite_decimal(text: str) -> Decimal:
    try:
        value = Decimal(text)
        if value.is_finite():
            return value
    except InvalidOperation:
        pass
    raise ValueError(f"usd_price must be a finite decimal number, not {text!r}")


def _token_decimals(text: str) -> int:
    # an ERC-20 decimals() is a uint8; 10**decimals must stay inside the
    # exponent range of the Decimal context
    value = int(text)
    if not 0 <= value <= 255:
        raise ValueError(f"decimals must be in [0, 255], not {value}")
    return value


@dataclass(frozen=True, slots=True)
class PriceTable:
    prices: Mapping[str, Decimal]
    decimals: Mapping[str, int]
    snapshot_date: str = ""
    # 10**decimals of each priced token, computed once: analyze prices
    # every pair
    scales: Mapping[str, Decimal] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        scales = {token: Decimal(10) ** self.decimals.get(token, 18) for token in self.prices}
        object.__setattr__(self, "scales", scales)

    def usd(self, token: str, amount: int) -> Decimal:
        if token not in self.prices:
            raise MissingPrice(token)
        return Decimal(amount) / self.scales[token] * self.prices[token]

    @classmethod
    def from_csv(cls, path: str) -> "PriceTable":
        """Read a token_id,usd_price[,decimals][,snapshot_date] CSV. A row
        without token_id or usd_price, an empty token_id, a usd_price that
        is not a finite decimal, a decimals that is not an integer in
        [0, 255] or a token_id that an earlier row priced raises
        MalformedData naming the file and line."""
        prices: dict[str, Decimal] = {}
        decimals: dict[str, int] = {}
        snapshot = ""
        with open(path, newline="") as handle:
            reader = csv.DictReader(handle)
            for row in reader:
                try:
                    token = row["token_id"]
                    if not token:
                        raise ValueError("empty token_id")
                    if token in prices:
                        raise ValueError(f"token_id {token!r} is priced twice")
                    prices[token] = _finite_decimal(row["usd_price"])
                    decimals[token] = _token_decimals(row.get("decimals") or "18")
                except (KeyError, TypeError, ValueError) as exc:
                    raise MalformedData(
                        f"{path}:{reader.line_num}: {type(exc).__name__}: {exc}"
                    ) from exc
                snapshot = row.get("snapshot_date", "") or snapshot
        return cls(prices=prices, decimals=decimals, snapshot_date=snapshot)


def _is_stable_hop(hop: VictimHop, stable: frozenset[str]) -> bool:
    return hop.token_in.upper() in stable and hop.token_out.upper() in stable


def prefilter(
    records: Iterable[CrossChainTx], cfg: DetectionConfig
) -> list[CrossChainTx]:
    """Drop stable-to-stable-only records and stale relays.

    The interval bound is inclusive: exactly max_interval seconds
    between source commit and destination execution still passes.
    """
    kept = []
    for record in records:
        if record.dst_timestamp - record.src_timestamp > cfg.max_interval:
            continue
        if all(_is_stable_hop(hop, cfg.stablecoin_set) for hop in record.hops):
            continue
        kept.append(record)
    return kept


_block_number = attrgetter("block_number")
_timestamp = attrgetter("timestamp")


def _victim_index(logs: Sequence[SwapLog], tx_hash: str, block_hint: int) -> int:
    """The index in logs of the log of tx_hash, looked for in block
    block_hint first; -1 when there is none."""
    lo = bisect_left(logs, block_hint, key=_block_number)
    hi = bisect_right(logs, block_hint, lo, key=_block_number)
    for index in range(lo, hi):
        if logs[index].tx_hash == tx_hash:
            return index
    # Hinted block missed (foreign export): fall back to a full scan.
    for index, log in enumerate(logs):
        if log.tx_hash == tx_hash:
            return index
    return -1


def group_logs(logs: Iterable[SwapLog], where: str = "") -> dict[str, list[SwapLog]]:
    """The logs_by_pool that detect_pairs takes: each pool's logs sorted
    by position. logs is read once, so it may be a stream. Two logs at
    one position, or a timestamp that decreases along that order, raise
    MalformedData, its message led by where: detect_pairs places fronts
    and backs by position and bisects on timestamps."""
    logs_by_pool: dict[str, list[SwapLog]] = {}
    for log in logs:
        logs_by_pool.setdefault(log.pool_address, []).append(log)
    for pool, pool_logs in logs_by_pool.items():
        pool_logs.sort(key=SwapLog.position)
        for earlier, later in zip(pool_logs, pool_logs[1:]):
            if later.log_index == earlier.log_index and later.block_number == earlier.block_number:
                raise MalformedData(f"{where}pool {pool}: two logs at {later.position()}")
            if later.timestamp < earlier.timestamp:
                raise MalformedData(
                    f"{where}pool {pool}: timestamp decreases from "
                    f"{earlier.position()} to {later.position()}"
                )
    return logs_by_pool


def detect_pairs(
    record: CrossChainTx,
    logs_by_pool: Mapping[str, Sequence[SwapLog]],
    cfg: DetectionConfig,
) -> list[SandwichPair]:
    """Match (front, victim, back) triples for one cross-chain record.

    Per pool hop: fronts are same-direction swaps timestamped at or
    after the source commit and positioned before the victim's log;
    backs are opposite-direction swaps positioned after the victim,
    within num_blocks blocks. Fronts are taken in chain order. Each
    takes the earliest free back, by chain position, whose input amount
    lies in cfg.back_band of the front's output, a back that pays the
    front's recipient first; a back is taken at most once per record.

    Requires logs sorted by (block_number, log_index) with timestamps
    nondecreasing along that order. The victim and the window ends are
    found by bisection; a hop with no front stops there. Each front then
    makes one pass over the hop's untaken backs in chain order, and the
    back it takes leaves that list: O(fronts x backs) per hop. An
    amount-sorted index of the backs (bisect the band, read only the
    backs inside it) gives the same pairs but did not pay: on busy-2pool
    seeds 11 and 12, about 190 backs per front, the detect_pairs loop
    over the kept records took 0.46-0.64 s of CPU with the scan and
    0.53-0.73 s with the index (min-median, 21 alternating runs).
    Nothing is indexed beyond the call, so a caller may pass plain
    lists.
    """
    pairs: list[SandwichPair] = []
    for hop in record.hops:
        logs = logs_by_pool.get(hop.pool_address, ())
        victim_index = _victim_index(logs, record.dst_tx_hash, record.dst_block_number)
        if victim_index < 0:
            continue
        victim = logs[victim_index]
        direction = victim.direction
        start = bisect_left(logs, record.src_timestamp, key=_timestamp)
        fronts = [log for log in logs[start:victim_index] if log.direction is direction]
        if not fronts:
            continue
        # Earliest block eligible to hold a front-run: that of the first
        # log timestamped at or after the source commit.
        window_start = logs[start].block_number
        back_end = bisect_right(
            logs, victim.block_number + cfg.num_blocks, victim_index + 1, key=_block_number
        )
        opposite = direction.opposite()
        # the hop's backs not yet taken, in chain order
        free = [log for log in logs[victim_index + 1 : back_end] if log.direction is opposite]
        for front in fronts:
            lo, hi = cfg.back_band(front.token_out_amount)
            recipient, first = front.recipient, -1
            for index, back in enumerate(free):
                if lo <= back.token_in_amount <= hi:
                    if back.recipient == recipient:
                        break
                    if first < 0:
                        first = index
            else:
                if first < 0:
                    continue
                index = first
            classification = (
                Classification.SINGLE_CHAIN
                if front.block_number == victim.block_number
                else Classification.CROSS_CHAIN
            )
            pairs.append(
                SandwichPair(
                    record_id=record.record_id,
                    pool_address=hop.pool_address,
                    front=front,
                    victim=victim,
                    back=free.pop(index),
                    classification=classification,
                    token_in=hop.token_in,
                    front_window_start_block=window_start,
                )
            )
    if len(record.hops) > 1:
        # each hop's pairs are in front order already
        pairs.sort(key=lambda p: (p.victim.position(), p.front.position()))
    return pairs


def reference_detect_pairs(
    record: CrossChainTx,
    logs_by_pool: Mapping[str, Sequence[SwapLog]],
    cfg: DetectionConfig,
) -> list[SandwichPair]:
    """Unoptimized reference matcher: literal list surgery, rebuilt
    candidate lists per front. Must produce exactly the same pairs as
    detect_pairs; kept for cross-checking, not for large corpora."""
    pairs: list[SandwichPair] = []
    for hop in record.hops:
        logs = list(logs_by_pool.get(hop.pool_address, ()))
        logs.sort(key=SwapLog.position)
        victim = None
        for log in logs:
            if log.tx_hash == record.dst_tx_hash:
                victim = log
                break
        if victim is None:
            continue
        window_start = next(
            (log.block_number for log in logs if log.timestamp >= record.src_timestamp),
            0,
        )
        front_logs = []
        back_logs = []
        for log in logs:
            if (
                log.direction is victim.direction
                and log.timestamp >= record.src_timestamp
                and log.position() < victim.position()
            ):
                front_logs.append(log)
            if (
                log.direction is victim.direction.opposite()
                and log.position() > victim.position()
                and log.block_number <= victim.block_number + cfg.num_blocks
            ):
                back_logs.append(log)
        for front in front_logs:
            similar = []
            for back in back_logs:
                ratio = Fraction(back.token_in_amount, max(front.token_out_amount, 1))
                if cfg.band_low <= ratio <= cfg.band_high and front.token_out_amount > 0:
                    similar.append(back)
            target = None
            for back in similar:
                if back.recipient == front.recipient:
                    target = back
                    break
            if target is None and similar:
                target = similar[0]
            if target is None:
                continue
            back_logs.remove(target)
            pairs.append(
                SandwichPair(
                    record_id=record.record_id,
                    pool_address=hop.pool_address,
                    front=front,
                    victim=victim,
                    back=target,
                    classification=(
                        Classification.SINGLE_CHAIN
                        if front.block_number == victim.block_number
                        else Classification.CROSS_CHAIN
                    ),
                    token_in=hop.token_in,
                    front_window_start_block=window_start,
                )
            )
    pairs.sort(key=lambda p: (p.victim.position(), p.front.position()))
    return pairs


def pair_profit(
    pair: SandwichPair, prices: PriceTable, missing: set[str]
) -> tuple[int, Optional[Decimal]]:
    """The pair's profit in units of its input token, and in USD.

    Gas costs are deliberately excluded. When the input token is not in
    the price table the USD profit is None, and the token is added to
    missing.
    """
    profit = pair.back.token_out_amount - pair.front.token_in_amount
    try:
        return profit, prices.usd(pair.token_in, profit)
    except MissingPrice:
        missing.add(pair.token_in)
        return profit, None


def classify_and_price(
    pairs: Iterable[SandwichPair], prices: PriceTable
) -> tuple[list[SandwichPair], set[str]]:
    """Every pair with token profit, profit rate and USD profit filled
    in from pair_profit, and the set of tokens with no price."""
    missing: set[str] = set()
    priced = []
    for pair in pairs:
        profit, usd = pair_profit(pair, prices, missing)
        priced.append(
            SandwichPair(
                record_id=pair.record_id,
                pool_address=pair.pool_address,
                front=pair.front,
                victim=pair.victim,
                back=pair.back,
                classification=pair.classification,
                token_in=pair.token_in,
                front_window_start_block=pair.front_window_start_block,
                profit_token=profit,
                profit_rate=Fraction(profit, pair.front.token_in_amount),
                profit_usd=usd,
            )
        )
    return priced, missing


def _bin(value: float, bins: int) -> int:
    """The histogram bin of a relative position; values below 0 fall in
    the first bin and values of 1 or more in the last."""
    return min(int(max(value, 0.0) * bins), bins - 1)


@dataclass(slots=True)
class Report:
    total_pairs: int = 0
    single_chain_pairs: int = 0
    cross_chain_pairs: int = 0
    total_profit_usd: Decimal = Decimal(0)
    single_chain_profit_usd: Decimal = Decimal(0)
    cross_chain_profit_usd: Decimal = Decimal(0)
    max_single_profit_usd: Decimal = Decimal(0)
    chain_pairs: dict = field(default_factory=dict)
    pool_counts: dict = field(default_factory=dict)
    front_position_hist: list = field(default_factory=list)
    back_position_hist: list = field(default_factory=list)
    front_position_hist_profitable: list = field(default_factory=list)
    back_position_hist_profitable: list = field(default_factory=list)
    front_gas_ratio_lt_1: float = 0.0
    zero_gas_front_runs: int = 0
    back_gas_delta_buckets: dict = field(default_factory=dict)


def aggregate(
    pairs: Iterable[SandwichPair],
    records: Iterable[CrossChainTx],
    num_blocks: int = 100,
    usd: Callable[[SandwichPair], Optional[Decimal]] = attrgetter("profit_usd"),
) -> Report:
    """Corpus-level rollup: per chain-pair profit, per-pool attack
    counts, relative-position histograms, gas-price statistics, and the
    single- vs cross-chain split. Cross-chain profit totals exclude
    same-block (single-chain-classified) pairs. records is read once,
    in full, before the first pair, and pairs is read once, in order, so
    either may be an iterator: only each record's id and its chain pair
    are kept. usd gives a pair's USD profit (None when unknown); by
    default its profit_usd, as classify_and_price sets it."""
    report = Report()
    chain_keys = {
        record.record_id: f"{record.src_chain_id}->{record.dst_chain_id}"
        for record in records
    }

    bins = 10
    front_hist = [0] * bins
    back_hist = [0] * bins
    front_hist_profit = [0] * bins
    back_hist_profit = [0] * bins
    gas_lt_1 = 0
    delta_buckets = {"<0": 0, "[0,1)": 0, "[1,10)": 0, ">=10": 0}
    gwei = 10**9

    for pair in pairs:
        report.total_pairs += 1
        single = pair.classification is Classification.SINGLE_CHAIN
        if single:
            report.single_chain_pairs += 1
        else:
            report.cross_chain_pairs += 1
        profit = usd(pair)
        profitable = False
        if profit is not None:
            profitable = profit > 0
            report.total_profit_usd += profit
            if single:
                report.single_chain_profit_usd += profit
            else:
                report.cross_chain_profit_usd += profit
            if profit > report.max_single_profit_usd:
                report.max_single_profit_usd = profit
            key = chain_keys.get(pair.record_id)
            if key is not None:
                bucket = report.chain_pairs.setdefault(
                    key, {"pairs": 0, "profit_usd": Decimal(0)}
                )
                bucket["pairs"] += 1
                bucket["profit_usd"] += profit

        report.pool_counts[pair.pool_address] = (
            report.pool_counts.get(pair.pool_address, 0) + 1
        )

        span = pair.victim.block_number - pair.front_window_start_block
        if span > 0:
            index = _bin((pair.front.block_number - pair.front_window_start_block) / span, bins)
            front_hist[index] += 1
            if profitable:
                front_hist_profit[index] += 1
        index = _bin((pair.back.block_number - pair.victim.block_number) / num_blocks, bins)
        back_hist[index] += 1
        if profitable:
            back_hist_profit[index] += 1

        if pair.front.gas_price < pair.victim.gas_price:
            gas_lt_1 += 1
        if pair.front.gas_price == 0:
            report.zero_gas_front_runs += 1
        delta = pair.victim.gas_price - pair.back.gas_price
        if delta < 0:
            delta_buckets["<0"] += 1
        elif delta < gwei:
            delta_buckets["[0,1)"] += 1
        elif delta < 10 * gwei:
            delta_buckets["[1,10)"] += 1
        else:
            delta_buckets[">=10"] += 1

    report.front_position_hist = front_hist
    report.back_position_hist = back_hist
    report.front_position_hist_profitable = front_hist_profit
    report.back_position_hist_profitable = back_hist_profit
    report.front_gas_ratio_lt_1 = gas_lt_1 / report.total_pairs if report.total_pairs else 0.0
    report.back_gas_delta_buckets = delta_buckets
    report.pool_counts = dict(
        sorted(report.pool_counts.items(), key=lambda kv: -kv[1])
    )
    return report
