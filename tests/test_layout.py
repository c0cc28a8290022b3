"""The memory layout of sandwichlab's records: every dataclass has fixed
slots, so no per-row or per-event instance carries a __dict__. And the
layout of the package as the benchmark sees it: every sandwichlab name
that perfbench/ uses exists."""

import ast
import dataclasses
import importlib
import json
import pkgutil
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import sandwichlab
from sandwichlab.amm import Direction, Pool, execute_swap
from sandwichlab.attack import TxLabel
from sandwichlab.bridge import (
    AttackerConfig,
    BotConfig,
    DistSpec,
    PendingTx,
    SimConfig,
    extract_corpus,
    run,
)
from sandwichlab.cli import main
from sandwichlab.detector import Classification, SandwichPair
from test_ingest import small_sim_config


def package_dataclasses() -> list[type]:
    """Every dataclass defined in a module of sandwichlab."""
    found = []
    for info in pkgutil.iter_modules(sandwichlab.__path__):
        module = importlib.import_module(f"{sandwichlab.__name__}.{info.name}")
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and dataclasses.is_dataclass(value)
                and value.__module__ == module.__name__
            ):
                found.append(value)
    return found


def row_instances() -> list:
    """One instance of each class the simulator, the codecs or the
    detector makes once per row or per event."""
    trace, _ = run(small_sim_config())
    corpus = extract_corpus(trace)
    timeline = corpus.timelines[0]
    record = corpus.records[0]
    front, victim, back = corpus.swap_logs[:3]
    return [
        timeline,
        timeline.pool,
        timeline.victim,
        execute_swap(timeline.pool, timeline.victim),
        PendingTx(
            tx_hash="0x01",
            label=TxLabel.NOISE,
            gas_price=1,
            pool_address=timeline.pool.address,
            direction=Direction.X_FOR_Y,
            amount_in=10,
            min_out=0,
            account="0x02",
        ),
        trace.events[0],
        next(iter(trace.victims.values())),
        next(v.attacker for v in trace.victims.values() if v.attacker is not None),
        front,
        record,
        record.hops[0],
        SandwichPair(
            record_id=record.record_id,
            pool_address=front.pool_address,
            front=front,
            victim=victim,
            back=back,
            classification=Classification.CROSS_CHAIN,
            token_in="WETH",
            front_window_start_block=0,
        ),
    ]


class TestSlots:
    def test_every_dataclass_declares_slots(self):
        classes = package_dataclasses()
        assert len(classes) >= 20
        assert [cls.__qualname__ for cls in classes if "__slots__" not in vars(cls)] == []

    def test_row_instances_have_no_dict(self):
        instances = row_instances()
        assert {type(instance).__name__ for instance in instances} == {
            "Pool",
            "SwapRequest",
            "SwapOutcome",
            "PoolTimeline",
            "PendingTx",
            "TraceEvent",
            "VictimRecord",
            "Sandwich",
            "SwapLog",
            "VictimHop",
            "CrossChainTx",
            "SandwichPair",
        }
        assert [type(i).__name__ for i in instances if hasattr(i, "__dict__")] == []


def estimate_grid_config() -> SimConfig:
    """The estimate-50pool benchmark shape cut to 7,000 s: 50 zero-fee
    pools, fixed victim and noise sizes, no agents (1,019 victims)."""
    return SimConfig(
        seed=3,
        horizon=7000.0,
        src_block_interval=12.0,
        dst_block_interval=3.0,
        relay_delay=DistSpec("lognormal", {"sigma": 0.6, "p95": 100.0, "min": 5.0}),
        victim_arrival_rate=0.15,
        victim_size=DistSpec("fixed", {"value": 1e15}),
        victim_tolerance=DistSpec("fixed", {"value": 0.01}),
        noise_arrival_rate=0.006,
        noise_size=DistSpec("fixed", {"value": 1e13}),
        attacker=AttackerConfig(enabled=False),
        bot=BotConfig(enabled=False),
        pools=tuple(
            Pool(
                token_x=f"P{i}X",
                token_y=f"P{i}Y",
                reserve_x=10**21,
                reserve_y=3 * 10**21,
                fee=Fraction(0),
                address="0x" + f"{i:040x}",
            )
            for i in range(50)
        ),
    )


def busy_like_config() -> dict:
    """The busy-2pool benchmark shape cut to 1,200 s: two fee-bearing
    pools, one victim per second, the attacker on (1,249 victims, whose
    windows hold 53 swaps on average)."""

    def pool(token_x: str, token_y: str, fee: str, byte: str) -> dict:
        return {
            "token_x": token_x,
            "token_y": token_y,
            "reserve_x": str(10**21),
            "reserve_y": str(3 * 10**21),
            "fee": fee,
            "address": "0x" + byte * 20,
        }

    return {
        "seed": 11,
        "horizon": 1200,
        "victim_arrival_rate": 1.0,
        "victim_size": {"family": "lognormal", "mu": 34.5, "sigma": 1.0},
        "noise_arrival_rate": 0.01,
        "attacker": {"enabled": True, "theta": "3/4"},
        "pools": [
            pool("WETH", "USDT", "30/10000", "11"),
            pool("WBNB", "USDC", "25/10000", "22"),
        ],
    }


class TestMemory:
    # Traced peak of run + extract_corpus per simulated victim. Slotted
    # records measured 4,144-4,432 B on CPython 3.10-3.13; records with an
    # instance __dict__ measured 6,053-6,406 B. With one Sandwich per agent
    # and no block-time table, 3,674-3,804 B on CPython 3.11.
    BYTES_PER_VICTIM = 5_300

    def test_simulation_peak_per_victim(self):
        config = estimate_grid_config()
        tracemalloc.start()
        try:
            trace, _ = run(config)
            extract_corpus(trace)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(trace.victims) == 1019
        assert peak / len(trace.victims) <= self.BYTES_PER_VICTIM

    # Traced peak of the CLI's simulate per victim on dense windows, where
    # windows overlap: run, then every row built and written. Windows of
    # copied (direction, amount) pairs, with the whole corpus listed
    # before the writes, measured 5,178-5,458 B over four seeds on CPython
    # 3.11 (5,395 in this test); windows of references to the trace's
    # events, with rows streamed into the files, 3,082-3,144 B (3,585 as
    # the first run in an interpreter).
    DENSE_BYTES_PER_VICTIM = 4_400

    def test_dense_window_simulate_peak_per_victim(self, tmp_path):
        config, out = tmp_path / "config.yaml", tmp_path / "sim"
        config.write_text(json.dumps(busy_like_config()))  # JSON is YAML
        tracemalloc.start()
        try:
            assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        victims = json.loads((out / "metrics.json").read_text())["victims_total"]
        assert victims == 1249
        assert peak / victims <= self.DENSE_BYTES_PER_VICTIM

    # Traced peak of the CLI's detect per swap log on the same corpus:
    # 3,106 logs, 639 records and 15,029 pairs; the peak includes the
    # 1 MB chunk the manifest's file_digest reads. Logs and records
    # decoded with every row's own copy of each address measured
    # 1,549-1,569 B over seeds 11-13 on CPython 3.11; with equal strings
    # shared within each read, 1,236-1,256 B.
    DETECT_BYTES_PER_LOG = 1_400

    def test_dense_window_detect_peak_per_log(self, tmp_path):
        config, sim = tmp_path / "config.yaml", tmp_path / "sim"
        config.write_text(json.dumps(busy_like_config()))
        assert main(["simulate", "--config", str(config), "--out", str(sim)]) == 0
        argv = ["detect", "--records", str(sim / "records.jsonl"), "--logs", str(sim / "swap_logs.jsonl")]
        tracemalloc.start()
        try:
            assert main([*argv, "--out", str(tmp_path / "det")]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        logs = (sim / "swap_logs.jsonl").read_text().count("\n") - 1  # less the header
        assert logs == 3106
        assert peak / logs <= self.DETECT_BYTES_PER_LOG


class TestDetectorRows:
    """SwapLog, VictimHop, CrossChainTx and SandwichPair are not frozen,
    but compare by value, and a SwapLog hashes by value: callers put logs
    in sets. TestSlots covers that none of them has a __dict__."""

    ROWS = ("SwapLog", "VictimHop", "CrossChainTx", "SandwichPair")

    def rows(self) -> list:
        rows = [row for row in row_instances() if type(row).__name__ in self.ROWS]
        assert sorted(type(row).__name__ for row in rows) == sorted(self.ROWS)
        return rows

    def test_rows_compare_by_value(self):
        for row in self.rows():
            first = dataclasses.fields(row)[0].name
            assert dataclasses.replace(row) == row
            assert dataclasses.replace(row) is not row
            assert dataclasses.replace(row, **{first: getattr(row, first) + "x"}) != row

    def test_swap_log_hashes_by_value(self):
        log = next(row for row in self.rows() if type(row).__name__ == "SwapLog")
        twin = dataclasses.replace(log)
        other = dataclasses.replace(log, gas_price=log.gas_price + 1)
        assert hash(twin) == hash(log)
        assert {log, twin, other} == {log, other}


def benchmark_lookups(source: str) -> set[str]:
    """The dotted sandwichlab names a perfbench module reads: each name
    it imports from the package, and each attribute chain on one of the
    names it binds, such as sandwichlab.detector.PriceTable.from_csv.
    The source is parsed, not run."""
    tree = ast.parse(source)
    bound: dict[str, str] = {}
    lookups = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "sandwichlab":
                    lookups.add(alias.name)
                    if alias.asname:
                        bound[alias.asname] = alias.name
                    else:
                        bound["sandwichlab"] = "sandwichlab"
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".")[0] == "sandwichlab":
                for alias in node.names:
                    name = f"{node.module}.{alias.name}"
                    lookups.add(name)
                    bound[alias.asname or alias.name] = name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id in bound:
                lookups.add(".".join([bound[node.id], *reversed(chain)]))
    return lookups


def resolve(dotted: str):
    """The object a dotted name reads: the longest importable module
    prefix, then getattr for each remaining part."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            value = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            value = getattr(value, part)
        return value
    raise ImportError(dotted)


class TestBenchmarkImports:
    """perfbench/ imports the package and calls into it by name; a name
    deleted or renamed in src/ would break the benchmark, not a test."""

    BENCH = Path(__file__).resolve().parents[1] / "perfbench"

    def test_every_name_the_benchmark_reads_exists(self):
        lookups = {
            (path.name, name)
            for path in sorted(self.BENCH.glob("*.py"))
            for name in benchmark_lookups(path.read_text())
        }
        assert len({name for _, name in lookups}) >= 40
        missing = []
        for file, name in sorted(lookups):
            try:
                resolve(name)
            except (ImportError, AttributeError) as exc:
                missing.append(f"{file}: {name}: {exc}")
        assert missing == []

    def test_a_missing_name_is_reported(self):
        source = "from sandwichlab import detector as d\nd.PriceTable.no_such_name(1)\n"
        assert benchmark_lookups(source) == {
            "sandwichlab.detector",
            "sandwichlab.detector.PriceTable",
            "sandwichlab.detector.PriceTable.no_such_name",
        }
        with pytest.raises(AttributeError):
            resolve("sandwichlab.detector.PriceTable.no_such_name")
        with pytest.raises(AttributeError):
            resolve("sandwichlab.nowhere")
