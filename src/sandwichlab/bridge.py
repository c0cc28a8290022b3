"""Deterministic discrete-event simulation of a liquidity-pool bridge.

Two block-producing chains, a relay that commits a swap on the source
chain, delivers it after a sampled delay and executes it on the
destination chain, and three agent kinds on the destination chain: a
cross-chain attacker that reacts to source-chain commit events, a
classical same-block sandwich bot that only sees the destination
mempool, and memoryless noise traders. All randomness flows from one
seeded generator, so identical configs produce bit-identical traces.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from fractions import Fraction
from operator import attrgetter
from typing import Callable, Iterable, Optional

from .amm import MAX_AMOUNT, AmmError, Direction, Pool, SwapRequest, fee_terms, swap_output
from .amm import min_out_from_tolerance
from .attack import (
    OrderingScenario,
    PoolTimeline,
    TxLabel,
    classify_ordering,
    frontrun_size,
    optimal_frontrun_for_timeline,
    replay_timeline,
)
from .detector import GWEI, CrossChainTx, SwapLog, VictimHop


class InvalidConfig(ValueError):
    pass


def _check_uint(name: str, value: object) -> None:
    """A token amount or gas price from the config: an int (not a bool)
    in [0, 2**256 - 1]. The run does integer work on it unchecked, and
    writes gas prices into the swap logs."""
    if type(value) is not int or not 0 <= value <= MAX_AMOUNT:
        raise InvalidConfig(f"{name} must be an int in [0, 2**256 - 1], not {value!r}")


def _check_bool(name: str, value: object) -> None:
    """A switch from the config: a bool, so that the string "false" does
    not switch an agent on."""
    if type(value) is not bool:
        raise InvalidConfig(f"{name} must be a bool, not {value!r}")


# Each family: its parameters, in the order its draw takes them; its
# draw, of a random.Random and those parameters as floats; and the least
# value that draw can give, of the same. A lognormal may take p95, its
# 95th percentile, in place of mu.
_FAMILIES: dict[str, tuple[tuple[str, ...], Callable[..., float], Callable[..., float]]] = {
    "fixed": (("value",), lambda rng, value: value, lambda value: value),
    "uniform": (("low", "high"), random.Random.uniform, min),
    "exponential": (("rate",), random.Random.expovariate, lambda rate: 0.0),
    "lognormal": (("mu", "sigma"), random.Random.lognormvariate, lambda mu, sigma: 0.0),
}


@dataclass(frozen=True, slots=True)
class DistSpec:
    """A sampleable distribution: a family of _FAMILIES and exactly its
    parameters, each a finite int or float, with optional min/max that
    clamp the sample. An error names the distribution by its family."""

    family: str
    params: dict
    # the draw, its float arguments and the clamps, bound once
    _bound: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        family, params = self.family, self.params
        if type(family) is not str or family not in _FAMILIES:
            raise InvalidConfig(f"unknown distribution family {family!r}")
        names, draw, _ = _FAMILIES[family]
        if family == "lognormal" and "p95" in params:
            if "mu" in params:
                raise InvalidConfig(f"{family} takes mu or p95, not both")
            names = ("p95", "sigma")
        for key, value in params.items():
            if key not in names and key not in ("min", "max"):
                raise InvalidConfig(f"{family} has no parameter {key!r}")
            # an int compares exactly with infinity, however large
            if type(value) not in (int, float) or not -math.inf < value < math.inf:
                raise InvalidConfig(f"{family}.{key} must be a finite number, not {value!r}")
            if key in ("rate", "p95") and value <= 0 or key == "sigma" and value < 0:
                bound = ">= 0" if key == "sigma" else "> 0"
                raise InvalidConfig(f"{family}.{key} must be {bound}, not {value!r}")
        if missing := [name for name in names if name not in params]:
            raise InvalidConfig(f"{family} is missing parameter {missing[0]!r}")
        low, high = params.get("min", -math.inf), params.get("max", math.inf)
        if low > high:
            raise InvalidConfig(f"{family}.min must be <= max, not {low!r} > {high!r}")
        args = [float(params[name]) for name in names]
        if names[0] == "p95":
            args[0] = math.log(args[0]) - 1.6448536269514722 * args[1]
        object.__setattr__(self, "_bound", (draw, tuple(args), float(low), float(high)))

    def sample(self, rng: random.Random) -> float:
        draw, args, low, high = self._bound
        # min(max(draw, low), high) in compares: the two calls would cost
        # more than a fixed draw
        return low if (value := draw(rng, *args)) < low else high if value > high else value

    def least(self) -> float:
        """The least value that sample can return."""
        _, args, low, high = self._bound
        return min(max(_FAMILIES[self.family][2](*args), low), high)


@dataclass(frozen=True, slots=True)
class AttackerConfig:
    enabled: bool = True
    theta: Fraction = Fraction(1)
    capital_limit: Optional[int] = None
    backrun_on_mempool: bool = False
    gas_price: int = GWEI

    def __post_init__(self) -> None:
        _check_bool("attacker.enabled", self.enabled)
        _check_bool("backrun_on_mempool", self.backrun_on_mempool)
        if not 0 < self.theta <= 1:
            raise InvalidConfig("theta must be in (0, 1]")
        if self.capital_limit is not None:
            _check_uint("capital_limit", self.capital_limit)
        _check_uint("gas_price", self.gas_price)


@dataclass(frozen=True, slots=True)
class BotConfig:
    enabled: bool = False
    gas_premium: int = GWEI
    min_profit: int = 0

    def __post_init__(self) -> None:
        _check_bool("bot.enabled", self.enabled)
        _check_uint("gas_premium", self.gas_premium)
        _check_uint("min_profit", self.min_profit)


@dataclass(frozen=True, slots=True)
class SimConfig:
    seed: int = 0
    horizon: float = 600.0
    src_block_interval: float = 12.0
    dst_block_interval: float = 3.0
    src_chain_id: int = 1
    dst_chain_id: int = 56
    # a DistSpec is not changed once built, so configs share these
    relay_delay: DistSpec = DistSpec("lognormal", {"sigma": 0.6, "p95": 100.0, "min": 5.0})
    noise_arrival_rate: float = 0.01  # per pool, per second
    noise_size: DistSpec = DistSpec("lognormal", {"mu": 32.0, "sigma": 1.0})
    noise_gas: DistSpec = DistSpec("uniform", {"low": 1.0, "high": 8.0})
    victim_arrival_rate: float = 0.5  # per second, across all pools
    victim_size: DistSpec = DistSpec("lognormal", {"mu": 33.0, "sigma": 1.0})
    victim_tolerance: DistSpec = DistSpec("uniform", {"low": 0.005, "high": 0.03})
    victim_gas: DistSpec = DistSpec("uniform", {"low": 2.0, "high": 10.0})
    attacker: AttackerConfig = field(default_factory=AttackerConfig)
    bot: BotConfig = field(default_factory=BotConfig)
    pools: tuple[Pool, ...] = ()

    def __post_init__(self) -> None:
        # random.Random also takes a str or a float seed, and the chain
        # ids are written into every log and record as they are
        for name in ("seed", "src_chain_id", "dst_chain_id"):
            value = getattr(self, name)
            if type(value) is not int:
                raise InvalidConfig(f"{name} must be an int, not {value!r}")
        # a bool is an int to Python but not a duration or a rate; NaN
        # fails every comparison, and an infinite horizon never ends
        for name in ("horizon", "src_block_interval", "dst_block_interval"):
            span = getattr(self, name)
            if type(span) not in (int, float) or not 0 < span < math.inf:
                raise InvalidConfig(f"{name} must be a finite number > 0, not {span!r}")
        if not self.pools:
            raise InvalidConfig("at least one pool is required")
        if len({pool.address for pool in self.pools}) != len(self.pools):
            raise InvalidConfig("duplicate pool addresses")
        # a delivery before its commit would run the event clock backwards
        if (least := self.relay_delay.least()) < 0:
            raise InvalidConfig(f"relay_delay can draw {least!r}; it must not draw below 0")
        for name in ("victim_arrival_rate", "noise_arrival_rate"):
            rate = getattr(self, name)
            if type(rate) not in (int, float) or not 0 <= rate < math.inf:
                raise InvalidConfig(f"{name} must be a finite number >= 0, not {rate!r}")


@dataclass(slots=True)
class Sandwich:
    """One agent's sandwich around one victim: the front-run of
    ``amount_in`` and the back-run that sells what it bought. A hash is
    set when its leg is queued, a block and an output when the leg
    executes without reverting."""

    amount_in: int
    front_hash: str = ""
    back_hash: str = ""
    front_block: Optional[int] = None
    front_out: int = 0
    back_block: Optional[int] = None
    back_out: int = 0


@dataclass(slots=True)
class PendingTx:
    """A destination-chain transaction waiting in the mempool; ``account``
    both sends it and receives its output. An agent's transaction points
    at its sandwich."""

    tx_hash: str
    label: TxLabel
    gas_price: int
    pool_address: str
    direction: Direction
    amount_in: Optional[int]  # None for a back-run: its front-run's output
    min_out: int
    account: str
    victim_id: Optional[int] = None
    sandwich: Optional[Sandwich] = None


@dataclass(slots=True)
class TraceEvent:
    """One trace entry. A "swap" is a destination-chain execution; a
    "commit" is the public source-chain commit log, whose amount_out is
    the min_return frozen at commit, so it leaks the destination swap.

    Nothing changes an event once it is in the trace. It is not a frozen
    dataclass only because the run makes one per swap, and a frozen
    __init__ costs about eight times a plain one."""

    time: float
    kind: str
    chain_id: int
    tx_hash: str
    label: str
    pool_address: str
    direction: Optional[Direction]
    amount_in: int
    amount_out: int
    gas_price: int
    block_number: int
    log_index: Optional[int]
    sender: str
    recipient: str
    victim_id: Optional[int]
    reverted: bool = False


@dataclass(slots=True)
class VictimRecord:
    """One bridged swap. Never executed (``exec_block`` None) means
    dropped: its relay delivery fell past the horizon, or it was still
    in a mempool when the run ended. ``attacker`` and ``bot`` stay None
    until that agent acts on this victim.

    The window and ``order`` are recorded as the run executes.
    ``window_start`` and ``window_stop`` place the noise window of an
    executed victim as the range [start, stop) of positions in its
    pool's list of executed swaps (``SimTrace.pool_swaps``): the swaps
    timestamped after ``emit_time`` and executed before its own. Both
    stay 0 when there are none, and for a victim that reverted or never
    executed, so an empty window holds no object of its own.
    ``SimTrace.noise_window`` reads it. ``order`` holds the labels of
    its legs (its own swap, TA1/TA2, TB1/TB2) that did not revert, in
    execution order."""

    victim_id: int
    pool_address: str
    direction: Direction
    amount_in: int
    tolerance: Fraction
    gas_price: int
    sender: str
    recipient: str
    src_tx_hash: str = ""
    src_block: int = 0
    emit_time: float = 0.0
    min_return: int = 0
    pool_snapshot: Optional[Pool] = None
    dst_tx_hash: str = ""
    exec_block: Optional[int] = None
    exec_time: Optional[float] = None
    reverted: bool = False
    amount_out: int = 0
    attacker: Optional[Sandwich] = None
    bot: Optional[Sandwich] = None
    window_start: int = 0
    window_stop: int = 0
    order: tuple[TxLabel, ...] = ()


@dataclass(slots=True)
class SimTrace:
    """A run's events, victims and final pools. ``pool_swaps`` holds
    each pool's executed swaps (trace events, not copies) in execution
    order, which the victims' windows index."""

    config: SimConfig
    events: list[TraceEvent] = field(default_factory=list)
    victims: dict[int, VictimRecord] = field(default_factory=dict)
    final_pools: dict[str, Pool] = field(default_factory=dict)
    pool_swaps: dict[str, list[TraceEvent]] = field(default_factory=dict)

    def noise_window(self, victim: VictimRecord) -> list[TraceEvent]:
        """The noise window of ``victim``, oldest first: the swaps of its
        pool in its window range, except its own attacker front-run (the
        hypothesis, not noise); other victims' attack traffic counts as
        noise. Its timeline's noisy_swaps are their (direction,
        amount_in)."""
        own_front = victim.attacker.front_hash if victim.attacker else None
        swaps = self.pool_swaps[victim.pool_address][victim.window_start : victim.window_stop]
        return [event for event in swaps if event.tx_hash != own_front]


@dataclass(slots=True)
class SimMetrics:
    victims_total: int = 0
    victims_executed: int = 0
    victims_reverted: int = 0
    victims_dropped: int = 0
    measured_q: Optional[Fraction] = None
    scenario_counts: dict = field(default_factory=dict)
    contested_cases: int = 0
    contested_front_precedes_bot: int = 0
    attacker_same_block_victims: int = 0
    attacker_attacked: int = 0
    attacker_profit_by_token: dict = field(default_factory=dict)
    bot_attacked: int = 0
    bot_profit_by_token: dict = field(default_factory=dict)


@dataclass(slots=True)
class Corpus:
    """The analysis inputs of a run: lists from extract_corpus, one-pass
    iterators from corpus_streams."""

    timelines: Iterable[PoolTimeline]
    swap_logs: Iterable[SwapLog]
    records: Iterable[CrossChainTx]
    labels: Iterable[dict]


ATTACKER_ADDR = "0x" + "aa" * 20
BOT_ADDR = "0x" + "bb" * 20
NOISE_ADDR = "0x" + "cc" * 20


_AGENT_ACCOUNT = {
    TxLabel.TA1: ATTACKER_ADDR,
    TxLabel.TA2: ATTACKER_ADDR,
    TxLabel.TB1: BOT_ADDR,
    TxLabel.TB2: BOT_ADDR,
}


@dataclass(slots=True)
class _LivePool:
    """One pool's state during a run: plain integer reserves and the fee
    terms (g, fd) of amm.swap_output. Every swap input is checked where
    it enters the run (the config, the samplers, the solver), so a swap
    is one swap_output call, whose 256-bit guard stays. A Pool is built
    only where one is read, and kept until the next swap. ``swaps`` are
    the trace events of the swaps executed here, in execution order."""

    reserve_x: int
    reserve_y: int
    g: int
    fd: int
    config: Pool
    snapshot: Optional[Pool]
    swaps: list[TraceEvent]

    @classmethod
    def of(cls, pool: Pool) -> "_LivePool":
        return cls(pool.reserve_x, pool.reserve_y, *fee_terms(pool), pool, pool, [])

    def pool(self) -> Pool:
        """The live state as a Pool: the commit snapshot, the pool the
        agents size on and final_pools."""
        if self.snapshot is None:
            config = self.config
            # the reserves come from swap_output, so they stay valid
            self.snapshot = config._derived(
                config.token_x, config.token_y, self.reserve_x, self.reserve_y
            )
        return self.snapshot

    def quote(self, direction: Direction, amount_in: int) -> int:
        """The output of a swap of amount_in >= 1, not applied."""
        if direction is Direction.X_FOR_Y:
            return swap_output(self.reserve_x, self.reserve_y, self.g, self.fd, amount_in)
        return swap_output(self.reserve_y, self.reserve_x, self.g, self.fd, amount_in)

    def swap(self, direction: Direction, amount_in: int, min_out: int) -> Optional[int]:
        """Apply a swap of amount_in >= 1 and return its output; None, with
        the state unchanged, when it reverts (output below min_out)."""
        out = self.quote(direction, amount_in)
        if out < min_out:
            return None
        if direction is Direction.X_FOR_Y:
            self.reserve_x += amount_in
            self.reserve_y -= out
        else:
            self.reserve_y += amount_in
            self.reserve_x -= out
        self.snapshot = None
        return out


_event_time = attrgetter("time")


def _by_gas_price(txs: list) -> list:
    """Block order: highest gas price first, ties in submission order
    (mempools are appended in submission order and the sort is stable)."""
    return sorted(txs, key=lambda tx: -tx.gas_price)


class Simulation:
    """One seeded run over an event queue; single logical thread."""

    def __init__(self, config: SimConfig):
        self.config = config
        self.rng = random.Random(config.seed)
        self.trace = SimTrace(config=config)
        self.pools: dict[str, _LivePool] = {p.address: _LivePool.of(p) for p in config.pools}
        # (time, seq, handler, args): handler(time, *args) runs at time;
        # seq breaks ties in push order
        self.queue: list[tuple[float, int, Callable[..., None], tuple]] = []
        self.seq = 0
        self.src_mempool: list[VictimRecord] = []
        self.dst_mempool: list[PendingTx] = []
        self.src_height = 0
        self.dst_height = 0
        self.victim_counter = 0

    # -- plumbing ----------------------------------------------------------

    def _push(self, time: float, handler: Callable[..., None], *args: object) -> None:
        self.seq += 1
        heapq.heappush(self.queue, (time, self.seq, handler, args))

    def _schedule(self, time: float, handler: Callable[..., None], *args: object) -> None:
        """_push, for an event at or before the horizon; a later one is
        dropped."""
        if time <= self.config.horizon:
            self._push(time, handler, *args)

    def _hash(self, *parts: object) -> str:
        digest = hashlib.sha256(
            ":".join(map(str, (self.config.seed, *parts))).encode()
        ).hexdigest()
        return "0x" + digest

    def _gwei(self, name: str) -> int:
        """A gas price in wei from a draw, in gwei, of the config's
        distribution name. A price past 2**256 - 1, which no swap log or
        record can hold, raises OverflowError naming the distribution."""
        draw = getattr(self.config, name).sample(self.rng)
        wei = max(0, int(round(draw * GWEI)))
        if wei > MAX_AMOUNT:
            raise OverflowError(f"{name} draws {draw!r} gwei, past 2**256 - 1 wei")
        return wei

    def _draw_swap(self, size: DistSpec) -> tuple[Direction, int]:
        """A swap's direction, each with probability 1/2, then its input
        amount, a sample of size rounded down and at least 1."""
        direction = Direction.X_FOR_Y if self.rng.random() < 0.5 else Direction.Y_FOR_X
        return direction, max(1, int(size.sample(self.rng)))

    def _tolerance(self) -> Fraction:
        value = self.config.victim_tolerance.sample(self.rng)
        value = min(max(value, 1e-6), 0.999)
        return Fraction(round(value * 10**6), 10**6)

    # -- protocol steps ----------------------------------------------------

    def ccmp_commit(
        self, victim: VictimRecord, src_block: int, log_index: int, now: float
    ) -> TraceEvent:
        """Source-side commit: freeze minReturnAmount at the current
        destination pool state, append the public commit event to the
        trace and return it. The event leaks the destination swap: its
        amount_out is the frozen min_return."""
        live = self.pools[victim.pool_address]
        min_return = min_out_from_tolerance(
            live.quote(victim.direction, victim.amount_in), victim.tolerance
        )
        victim.min_return = min_return
        victim.pool_snapshot = live.pool()
        victim.src_block = src_block
        victim.emit_time = now
        commit = TraceEvent(
            now, "commit", self.config.src_chain_id, victim.src_tx_hash, TxLabel.TS.value,
            victim.pool_address, victim.direction, victim.amount_in, min_return,
            victim.gas_price, src_block, log_index, victim.sender, victim.recipient,
            victim.victim_id,
        )
        self.trace.events.append(commit)
        return commit

    # -- agents ------------------------------------------------------------

    def _queue_agent_tx(
        self, label: TxLabel, victim: VictimRecord, sandwich: Sandwich, gas_price: int,
        backrun: bool,
    ) -> str:
        """Queue the front-run of ``sandwich`` or, with ``backrun``, its
        back-run of whatever the front-run bought; returns the
        transaction hash."""
        tx_hash = self._hash(label.value, victim.victim_id)
        self.dst_mempool.append(
            PendingTx(
                tx_hash=tx_hash,
                label=label,
                gas_price=gas_price,
                pool_address=victim.pool_address,
                direction=victim.direction.opposite() if backrun else victim.direction,
                amount_in=None if backrun else sandwich.amount_in,
                min_out=0,
                account=_AGENT_ACCOUNT[label],
                victim_id=victim.victim_id,
                sandwich=sandwich,
            )
        )
        return tx_hash

    def _attacker_react(self, commit: TraceEvent) -> None:
        """Size a front-run from the public commit event alone (pool,
        direction, amount_in and the frozen min_return in amount_out)
        against the live pool; the victim is looked up only to record
        the result."""
        cfg = self.config.attacker
        try:
            amount = frontrun_size(
                self.pools[commit.pool_address].pool(),
                commit.direction,
                commit.amount_in,
                commit.amount_out,
                cfg.theta,
            )
        except AmmError:
            return
        if cfg.capital_limit is not None:
            amount = min(amount, cfg.capital_limit)
        if amount <= 0:
            return
        victim = self.trace.victims[commit.victim_id]
        victim.attacker = sandwich = Sandwich(amount)
        sandwich.front_hash = self._queue_agent_tx(
            TxLabel.TA1, victim, sandwich, cfg.gas_price, backrun=False
        )

    def _attacker_backrun(self, victim: VictimRecord, gas_price: int) -> None:
        sandwich = victim.attacker
        if sandwich is None or sandwich.front_out <= 0 or sandwich.back_hash:
            return
        sandwich.back_hash = self._queue_agent_tx(
            TxLabel.TA2, victim, sandwich, gas_price, backrun=True
        )

    def _bot_react(self, victim: VictimRecord) -> None:
        """Bracket the victim in its own block if a front-run sized on the
        live pool, replayed with an empty noise window, clears min_profit."""
        cfg = self.config.bot
        bracket = PoolTimeline(
            pool=self.pools[victim.pool_address].pool(),
            noisy_swaps=(),
            victim=SwapRequest(victim.direction, victim.amount_in, victim.min_return),
        )
        amount = optimal_frontrun_for_timeline(bracket)
        if amount <= 0:
            return
        if replay_timeline(bracket, amount)[1] - amount < cfg.min_profit:
            return
        victim.bot = sandwich = Sandwich(amount)
        sandwich.front_hash = self._queue_agent_tx(
            TxLabel.TB1, victim, sandwich, victim.gas_price + cfg.gas_premium, backrun=False
        )
        sandwich.back_hash = self._queue_agent_tx(
            TxLabel.TB2, victim, sandwich, max(victim.gas_price - 1, 0), backrun=True
        )

    # -- event handlers ----------------------------------------------------

    def _on_victim_arrival(self, now: float) -> None:
        self.victim_counter += 1
        vid = self.victim_counter
        pool = self.config.pools[self.rng.randrange(len(self.config.pools))]
        direction, size = self._draw_swap(self.config.victim_size)
        account = f"0xuser{vid:036x}"
        victim = VictimRecord(
            victim_id=vid,
            pool_address=pool.address,
            direction=direction,
            amount_in=size,
            tolerance=self._tolerance(),
            gas_price=self._gwei("victim_gas"),
            sender=account,
            recipient=account,
        )
        victim.src_tx_hash = self._hash("Ts", vid)
        victim.dst_tx_hash = self._hash("Tv", vid)
        self.trace.victims[vid] = victim
        self.src_mempool.append(victim)
        interval = self.rng.expovariate(self.config.victim_arrival_rate)
        self._schedule(now + interval, self._on_victim_arrival)

    def _on_noise_arrival(self, now: float, pool_address: str) -> None:
        direction, size = self._draw_swap(self.config.noise_size)
        self.dst_mempool.append(
            PendingTx(
                tx_hash=self._hash("noise", pool_address, now, self.seq),
                label=TxLabel.NOISE,
                gas_price=self._gwei("noise_gas"),
                pool_address=pool_address,
                direction=direction,
                amount_in=size,
                min_out=0,
                account=NOISE_ADDR,
            )
        )
        interval = self.rng.expovariate(self.config.noise_arrival_rate)
        self._schedule(now + interval, self._on_noise_arrival, pool_address)

    def _on_src_block(self, now: float) -> None:
        self.src_height += 1
        victims = _by_gas_price(self.src_mempool)
        self.src_mempool = []
        for index, victim in enumerate(victims):
            commit = self.ccmp_commit(victim, self.src_height, index, now)
            if self.config.attacker.enabled:
                self._attacker_react(commit)
            # the relay delivers the committed swap to the destination
            # mempool after a sampled delay
            delivery = now + self.config.relay_delay.sample(self.rng)
            self._schedule(delivery, self._on_deliver_victim, victim)
        self._schedule(now + self.config.src_block_interval, self._on_src_block)

    def _on_deliver_victim(self, now: float, victim: VictimRecord) -> None:
        self.dst_mempool.append(
            PendingTx(
                tx_hash=victim.dst_tx_hash,
                label=TxLabel.TV,
                gas_price=victim.gas_price,
                pool_address=victim.pool_address,
                direction=victim.direction,
                amount_in=victim.amount_in,
                min_out=victim.min_return,
                account=victim.sender,
                victim_id=victim.victim_id,
            )
        )
        if self.config.bot.enabled:
            self._bot_react(victim)
        if self.config.attacker.enabled and self.config.attacker.backrun_on_mempool:
            # mempool-triggered back-run: undercut the victim's gas so the
            # back-run lands after it inside the same block
            self._attacker_backrun(victim, max(victim.gas_price - 2, 0))

    def _on_dst_block(self, now: float) -> None:
        self.dst_height += 1
        block = self.dst_height
        txs = _by_gas_price(self.dst_mempool)
        self.dst_mempool = []
        chain_id = self.config.dst_chain_id
        events = self.trace.events
        log_index = 0
        for tx in txs:
            amount = tx.amount_in
            if amount is None:
                amount = tx.sandwich.front_out
            if amount <= 0:
                continue
            live = self.pools[tx.pool_address]
            out = live.swap(tx.direction, amount, tx.min_out)
            reverted = out is None
            event = TraceEvent(
                now, "swap", chain_id, tx.tx_hash, tx.label.value, tx.pool_address,
                tx.direction, amount, 0 if reverted else out, tx.gas_price, block,
                None if reverted else log_index, tx.account, tx.account, tx.victim_id, reverted,
            )
            events.append(event)
            if tx.victim_id is not None:
                self._post_execute(tx, event, live)
            if not reverted:
                log_index += 1
                live.swaps.append(event)
        self._schedule(now + self.config.dst_block_interval, self._on_dst_block)

    def _post_execute(self, tx: PendingTx, swap: TraceEvent, live: _LivePool) -> None:
        """Record the trace event ``swap`` of ``tx``, one of a victim's
        legs, on the victim and, if it did not revert, on its sandwich.
        ``live`` is the pool it ran on; its swaps do not hold it yet."""
        victim = self.trace.victims[tx.victim_id]
        if not swap.reverted:
            victim.order += (tx.label,)
        if tx.label is TxLabel.TV:
            victim.exec_block = swap.block_number
            victim.exec_time = swap.time
            victim.reverted = swap.reverted
            victim.amount_out = swap.amount_out
            if not swap.reverted:
                # the window: the swaps here so far timestamped after the commit
                swaps = live.swaps
                start = bisect_right(swaps, victim.emit_time, key=_event_time)
                if start < len(swaps):
                    victim.window_start, victim.window_stop = start, len(swaps)
            if self.config.attacker.enabled and not self.config.attacker.backrun_on_mempool:
                self._attacker_backrun(victim, self.config.attacker.gas_price)
            return
        if swap.reverted:
            return
        sandwich = tx.sandwich
        if tx.amount_in is None:
            sandwich.back_block = swap.block_number
            sandwich.back_out = swap.amount_out
        else:
            sandwich.front_block = swap.block_number
            sandwich.front_out = swap.amount_out

    # -- driver ------------------------------------------------------------

    def run(self) -> SimTrace:
        config = self.config
        self._push(config.src_block_interval, self._on_src_block)
        self._push(config.dst_block_interval, self._on_dst_block)
        if config.victim_arrival_rate > 0:
            first = self.rng.expovariate(config.victim_arrival_rate)
            self._schedule(first, self._on_victim_arrival)
        if config.noise_arrival_rate > 0:
            for pool in config.pools:
                first = self.rng.expovariate(config.noise_arrival_rate)
                self._schedule(first, self._on_noise_arrival, pool.address)
        while self.queue:
            time, _, handler, args = heapq.heappop(self.queue)
            handler(time, *args)
        self.trace.final_pools = {address: live.pool() for address, live in self.pools.items()}
        self.trace.pool_swaps = {address: live.swaps for address, live in self.pools.items()}
        return self.trace


def run(config: SimConfig) -> tuple[SimTrace, SimMetrics]:
    """Run one simulation and derive its metrics."""
    trace = Simulation(config).run()
    return trace, compute_metrics(trace)


def compute_metrics(trace: SimTrace) -> SimMetrics:
    metrics = SimMetrics()
    metrics.victims_total = len(trace.victims)
    pools = {p.address: p for p in trace.config.pools}
    empty_windows = 0
    for victim in trace.victims.values():
        if victim.exec_block is None:
            metrics.victims_dropped += 1
            continue
        if victim.reverted:
            metrics.victims_reverted += 1
        else:
            metrics.victims_executed += 1
        # a reverted victim has no window: it counts as an empty one
        if not trace.noise_window(victim):
            empty_windows += 1
        if victim.attacker is None and victim.bot is None:
            scenario = OrderingScenario.NO_ATTACK.value
        else:
            scenario = classify_ordering(victim.order).value
        metrics.scenario_counts[scenario] = metrics.scenario_counts.get(scenario, 0) + 1

        attacker_front = victim.attacker.front_block if victim.attacker else None
        bot_front = victim.bot.front_block if victim.bot else None
        if attacker_front is not None:
            metrics.attacker_attacked += 1
            if attacker_front == victim.exec_block:
                metrics.attacker_same_block_victims += 1
            if bot_front is not None:
                metrics.contested_cases += 1
                if attacker_front < bot_front:
                    metrics.contested_front_precedes_bot += 1
        if bot_front is not None:
            metrics.bot_attacked += 1

        token_in = pools[victim.pool_address].tokens(victim.direction)[0]
        for sandwich, profits in (
            (victim.attacker, metrics.attacker_profit_by_token),
            (victim.bot, metrics.bot_profit_by_token),
        ):
            # a back-run executes only after its front-run has
            if sandwich is not None and sandwich.back_block is not None:
                profit = sandwich.back_out - sandwich.amount_in
                profits[token_in] = profits.get(token_in, 0) + profit

    completed = metrics.victims_executed + metrics.victims_reverted
    if completed:
        metrics.measured_q = Fraction(empty_windows, completed)
    return metrics


def corpus_streams(trace: SimTrace) -> Corpus:
    """Bridge the trace into the analysis input formats: decoded swap
    logs, per-victim pool timelines, cross-chain records, and
    ground-truth labels kept separately for detector evaluation. Each
    is a generator that builds one row at a time, so a writer holds only
    the row it is writing; extract_corpus gives them as lists."""
    config = trace.config
    pool_meta = {p.address: p for p in config.pools}
    # one row of each kind per executed victim whose swap did not revert
    completed = [v for v in trace.victims.values() if v.exec_block is not None and not v.reverted]

    def timeline(victim: VictimRecord) -> PoolTimeline:
        return PoolTimeline(
            pool=victim.pool_snapshot,
            noisy_swaps=tuple(
                (event.direction, event.amount_in) for event in trace.noise_window(victim)
            ),
            victim=SwapRequest(
                direction=victim.direction,
                amount_in=victim.amount_in,
                min_out=victim.min_return,
                sender=victim.sender,
                recipient=victim.recipient,
            ),
        )

    def record(victim: VictimRecord) -> CrossChainTx:
        token_in, token_out = pool_meta[victim.pool_address].tokens(victim.direction)
        return CrossChainTx(
            record_id=f"rec-{victim.victim_id}",
            src_tx_hash=victim.src_tx_hash,
            src_chain_id=config.src_chain_id,
            src_block_number=victim.src_block,
            src_timestamp=victim.emit_time,
            dst_tx_hash=victim.dst_tx_hash,
            dst_chain_id=config.dst_chain_id,
            dst_block_number=victim.exec_block or 0,
            dst_timestamp=victim.exec_time or 0.0,
            dst_gas_price=victim.gas_price,
            hops=(
                VictimHop(
                    victim.pool_address, token_in, token_out, victim.direction,
                    victim.amount_in, victim.amount_out, victim.min_return,
                ),
            ),
        )

    def label(victim: VictimRecord) -> dict:
        attacker, bot = victim.attacker, victim.bot
        return {
            "victim_id": victim.victim_id,
            "record_id": f"rec-{victim.victim_id}",
            "victim_tx": victim.dst_tx_hash,
            "attacker_front_tx": attacker.front_hash if attacker else None,
            "attacker_back_tx": (attacker.back_hash or None) if attacker else None,
            "attacker_front_block": attacker.front_block if attacker else None,
            "attacker_back_block": attacker.back_block if attacker else None,
            "bot_front_tx": bot.front_hash if bot else None,
            "bot_back_tx": bot.back_hash if bot else None,
        }

    return Corpus(
        # a swap happens at its destination block's time
        swap_logs=(
            SwapLog(
                event.tx_hash, event.block_number, event.log_index, event.pool_address,
                event.chain_id, event.direction, event.amount_in, event.amount_out,
                event.sender, event.recipient, event.gas_price, event.time,
            )
            for event in trace.events
            if event.kind == "swap" and not event.reverted
        ),
        timelines=map(timeline, completed),
        records=map(record, completed),
        labels=map(label, completed),
    )


def extract_corpus(trace: SimTrace) -> Corpus:
    """corpus_streams(trace) with every row built, as lists."""
    streams = corpus_streams(trace)
    return Corpus(*(list(getattr(streams, kind.name)) for kind in fields(Corpus)))
