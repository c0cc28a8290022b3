"""Output checks made apart from the program.

Each check reads the artifacts of one pipeline and returns a list of
problems; an empty list means the check passed. The checks recompute
what they compare from the workload's own inputs (config reserves, price
table, the raw JSONL rows) with plain ints, ``Fraction``, ``Decimal`` and
``hashlib``. The only program code used is ``detector.reference_detect_pairs``,
the exhaustive matcher the repository keeps as its oracle, on a seeded
sample of records.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from bisect import bisect_left
from collections import defaultdict
from decimal import Decimal
from pathlib import Path

NUM_BLOCKS = 100  # detection defaults the benchmark runs with
MAX_INTERVAL = 100.0
BAND = (9, 10, 11, 10)  # back_in / front_out within [9/10, 11/10]
REFERENCE_SAMPLE = 12
MAX_REPORTED = 5  # problems listed per check; the count is always given


def read_rows(path: Path):
    with open(path) as handle:
        for line in handle:
            if line.startswith("#") or not line.strip():
                continue
            yield json.loads(line)


def _position(log: dict) -> tuple[int, int]:
    return (int(log["block_number"]), int(log["log_index"]))


def _summary(problems: list[str]) -> list[str]:
    if len(problems) <= MAX_REPORTED:
        return problems
    return problems[:MAX_REPORTED] + [f"... {len(problems) - MAX_REPORTED} more"]


def _quote(reserve_in: int, reserve_out: int, fee_num: int, fee_den: int, amount: int) -> int:
    kept = fee_den - fee_num
    return reserve_out * kept * amount // (reserve_in * fee_den + kept * amount)


def check_swap_replay(sim: Path, reserves: dict) -> list[str]:
    """Replay every swap log per pool, in (block, log_index) order, from
    the config reserves; each logged output must equal the exact
    constant-product quote."""
    problems = []
    by_pool = defaultdict(list)
    for row in read_rows(sim / "swap_logs.jsonl"):
        by_pool[row["pool_address"]].append(row)
    for pool, rows in by_pool.items():
        if pool not in reserves:
            problems.append(f"swap log on unknown pool {pool}")
            continue
        rx, ry, fee_num, fee_den = reserves[pool]
        rows.sort(key=_position)
        for row in rows:
            amount_in = int(row["token_in_amount"])
            if row["direction"] == "x_for_y":
                out = _quote(rx, ry, fee_num, fee_den, amount_in)
                rx, ry = rx + amount_in, ry - out
            else:
                out = _quote(ry, rx, fee_num, fee_den, amount_in)
                rx, ry = rx - out, ry + amount_in
            if out != int(row["token_out_amount"]):
                problems.append(
                    f"{row['tx_hash']}: logged out {row['token_out_amount']}, replay gives {out}"
                )
    return _summary(problems)


def check_victim_counts(sim: Path) -> list[str]:
    """Executed + reverted + dropped victims equal the total, and one
    record, timeline and label row exists per executed victim."""
    problems = []
    metrics = json.loads((sim / "metrics.json").read_text())
    parts = sum(metrics[f"victims_{k}"] for k in ("executed", "reverted", "dropped"))
    if parts != metrics["victims_total"]:
        problems.append(f"executed+reverted+dropped = {parts} != total {metrics['victims_total']}")
    for name in ("records", "timelines", "labels"):
        rows = sum(1 for _ in read_rows(sim / f"{name}.jsonl"))
        if rows != metrics["victims_executed"]:
            problems.append(f"{name}.jsonl has {rows} rows for {metrics['victims_executed']} executed")
    return _summary(problems)


def _stale(record: dict) -> bool:
    """The prefilter drops relays slower than MAX_INTERVAL seconds. No
    workload pool is stable-to-stable, so that drop never applies."""
    return record["dst_timestamp"] - record["src_timestamp"] > MAX_INTERVAL


class Corpus:
    """The simulate artifacts the pair checks compare against."""

    def __init__(self, sim: Path):
        self.records = {row["record_id"]: row for row in read_rows(sim / "records.jsonl")}
        self.logs = {}
        self.by_pool = defaultdict(list)
        for row in read_rows(sim / "swap_logs.jsonl"):
            self.logs[(row["pool_address"], row["tx_hash"])] = row
            self.by_pool[row["pool_address"]].append(row)
        self.times = {}
        for pool, rows in self.by_pool.items():
            rows.sort(key=_position)
            self.times[pool] = [row["timestamp"] for row in rows]

    def window_start(self, pool: str, src_timestamp: float) -> int:
        """Block of the first log (in position order) at or after the
        source commit; timestamps never decrease along that order."""
        rows = self.by_pool.get(pool, ())
        index = bisect_left(self.times.get(pool, ()), src_timestamp)
        return rows[index]["block_number"] if index < len(rows) else 0


class PairCheck:
    """Every pair meets the heuristic's defining properties."""

    name = "pairs"

    def __init__(self, corpus: Corpus):
        self.corpus = corpus
        self.problems = []
        self.backs_used = defaultdict(set)

    def row(self, pair: dict) -> None:
        add = self.problems.append
        record = self.corpus.records.get(pair["record_id"])
        if record is None:
            add(f"pair for unknown record {pair['record_id']}")
            return
        hop = record["hops"][0]
        pool = pair["pool_address"]
        front, victim, back = pair["front"], pair["victim"], pair["back"]
        tag = f"{pair['record_id']}/{front['tx_hash'][:10]}"
        if pool != hop["pool_address"] or pair["token_in"] != hop["token_in"]:
            add(f"{tag}: pool or input token differs from the record's hop")
        if _stale(record):
            add(f"{tag}: record should not pass the {MAX_INTERVAL} s prefilter")
        if victim["tx_hash"] != record["dst_tx_hash"]:
            add(f"{tag}: victim is not the record's destination tx")
        for role, log in (("front", front), ("victim", victim), ("back", back)):
            if self.corpus.logs.get((pool, log["tx_hash"])) != log:
                add(f"{tag}: {role} differs from its swap_logs.jsonl row")
        if front["direction"] != victim["direction"] or back["direction"] == victim["direction"]:
            add(f"{tag}: directions are not front=victim!=back")
        if not _position(front) < _position(victim) < _position(back):
            add(f"{tag}: not ordered front < victim < back")
        if front["timestamp"] < record["src_timestamp"]:
            add(f"{tag}: front precedes the source commit")
        if back["block_number"] > victim["block_number"] + NUM_BLOCKS:
            add(f"{tag}: back beyond the {NUM_BLOCKS}-block horizon")
        lo_num, lo_den, hi_num, hi_den = BAND
        front_out, back_in = int(front["token_out_amount"]), int(back["token_in_amount"])
        if not (
            front_out > 0
            and back_in * lo_den >= front_out * lo_num
            and back_in * hi_den <= front_out * hi_num
        ):
            add(f"{tag}: back input {back_in} outside the band of front output {front_out}")
        used = self.backs_used[pair["record_id"]]
        if _position(back) in used:
            add(f"{tag}: back used twice in one record")
        used.add(_position(back))
        single = front["block_number"] == victim["block_number"]
        if pair["classification"] != ("single_chain" if single else "cross_chain"):
            add(f"{tag}: classification {pair['classification']} is wrong")
        if pair["front_window_start_block"] != self.corpus.window_start(pool, record["src_timestamp"]):
            add(f"{tag}: front_window_start_block {pair['front_window_start_block']} is wrong")
        if any(pair[k] is not None for k in ("profit_token", "profit_rate", "profit_usd")):
            add(f"{tag}: detect output carries profit fields")

    def result(self) -> list[str]:
        return _summary(self.problems)


class ReferenceSampleCheck:
    """A seeded sample of records matches the exhaustive reference
    matcher exactly: same fronts, backs, classifications and windows."""

    name = "reference-sample"

    def __init__(self, corpus: Corpus, seed: int):
        self.corpus = corpus
        ids = sorted(corpus.records, key=lambda rid: int(rid.rpartition("-")[2]))
        self.sample = set(random.Random(seed).sample(ids, min(REFERENCE_SAMPLE, len(ids))))
        self.found = defaultdict(list)

    def row(self, pair: dict) -> None:
        if pair["record_id"] in self.sample:
            self.found[pair["record_id"]].append(_pair_key(pair))

    def result(self) -> list[str]:
        from sandwichlab import detector
        from sandwichlab.amm import Direction

        def swap_log(row):
            return detector.SwapLog(
                tx_hash=row["tx_hash"],
                block_number=int(row["block_number"]),
                log_index=int(row["log_index"]),
                pool_address=row["pool_address"],
                chain_id=int(row["chain_id"]),
                direction=Direction(row["direction"]),
                token_in_amount=int(row["token_in_amount"]),
                token_out_amount=int(row["token_out_amount"]),
                sender=row["sender"],
                recipient=row["recipient"],
                gas_price=int(row["gas_price"]),
                timestamp=float(row["timestamp"]),
            )

        problems = []
        pools = {}
        config = detector.DetectionConfig()
        for record_id in sorted(self.sample):
            row = self.corpus.records[record_id]
            hop = row["hops"][0]
            pool = hop["pool_address"]
            if pool not in pools:
                pools[pool] = [swap_log(log) for log in self.corpus.by_pool.get(pool, ())]
            record = detector.CrossChainTx(
                record_id=record_id,
                src_tx_hash=row["src_tx_hash"],
                src_chain_id=int(row["src_chain_id"]),
                src_block_number=int(row["src_block_number"]),
                src_timestamp=float(row["src_timestamp"]),
                dst_tx_hash=row["dst_tx_hash"],
                dst_chain_id=int(row["dst_chain_id"]),
                dst_block_number=int(row["dst_block_number"]),
                dst_timestamp=float(row["dst_timestamp"]),
                dst_gas_price=int(row["dst_gas_price"]),
                hops=(
                    detector.VictimHop(
                        pool_address=pool,
                        token_in=hop["token_in"],
                        token_out=hop["token_out"],
                        direction=Direction(hop["direction"]),
                        amount_in=int(hop["amount_in"]),
                        amount_out=int(hop["amount_out"]),
                        min_return=int(hop["min_return"]),
                    ),
                ),
            )
            expected = [] if _stale(row) else [
                (
                    p.front.tx_hash,
                    p.victim.tx_hash,
                    p.back.tx_hash,
                    p.classification.value,
                    p.front_window_start_block,
                )
                for p in detector.reference_detect_pairs(record, pools, config)
            ]
            if self.found.get(record_id, []) != expected:
                problems.append(
                    f"{record_id}: {len(self.found.get(record_id, []))} pairs, "
                    f"reference matcher gives {len(expected)} (or they differ)"
                )
        return _summary(problems)


def _pair_key(pair: dict) -> tuple:
    return (
        pair["front"]["tx_hash"],
        pair["victim"]["tx_hash"],
        pair["back"]["tx_hash"],
        pair["classification"],
        pair["front_window_start_block"],
    )


class ReportCheck:
    """report.json totals equal a Decimal recomputation from the pairs
    and the price table: profit = back output - front input, priced as
    profit / 10^decimals * usd_price."""

    name = "report"

    def __init__(self, corpus: Corpus, prices: dict, report_path: Path):
        self.corpus = corpus
        self.prices = {token: Decimal(usd) for token, usd in prices.items()}
        self.scale = Decimal(10) ** 18
        self.report_path = report_path
        self.counts = {"total_pairs": 0, "single_chain_pairs": 0, "cross_chain_pairs": 0}
        zero = Decimal(0)
        self.sums = {
            "total_profit_usd": zero,
            "single_chain_profit_usd": zero,
            "cross_chain_profit_usd": zero,
            "max_single_profit_usd": zero,
        }
        self.pool_counts = defaultdict(int)
        self.chain_pairs = {}

    def row(self, pair: dict) -> None:
        single = pair["classification"] == "single_chain"
        self.counts["total_pairs"] += 1
        self.counts["single_chain_pairs" if single else "cross_chain_pairs"] += 1
        self.pool_counts[pair["pool_address"]] += 1
        price = self.prices.get(pair["token_in"])
        if price is None:
            return
        profit = int(pair["back"]["token_out_amount"]) - int(pair["front"]["token_in_amount"])
        usd = Decimal(profit) / self.scale * price
        sums = self.sums
        sums["total_profit_usd"] += usd
        sums["single_chain_profit_usd" if single else "cross_chain_profit_usd"] += usd
        sums["max_single_profit_usd"] = max(sums["max_single_profit_usd"], usd)
        record = self.corpus.records.get(pair["record_id"])
        if record is not None:
            key = f"{record['src_chain_id']}->{record['dst_chain_id']}"
            bucket = self.chain_pairs.setdefault(key, [0, Decimal(0)])
            bucket[0] += 1
            bucket[1] += usd

    def result(self) -> list[str]:
        problems = []
        report = json.loads(self.report_path.read_text())
        for key, value in self.counts.items():
            if report[key] != value:
                problems.append(f"{key}: report {report[key]}, recomputed {value}")
        for key, value in self.sums.items():
            if Decimal(report[key]) != value:
                problems.append(f"{key}: report {report[key]}, recomputed {value}")
        if report["pool_counts"] != dict(self.pool_counts):
            problems.append("pool_counts differ from the pairs")
        chain_pairs = {
            key: [bucket["pairs"], Decimal(bucket["profit_usd"])]
            for key, bucket in report["chain_pairs"].items()
        }
        if chain_pairs != self.chain_pairs:
            problems.append("chain_pairs differ from the pairs and records")
        return _summary(problems)


def scan_pairs(path: Path, consumers) -> dict[str, Exception]:
    """Feed every pairs.jsonl row to each consumer in one pass: the file
    is the largest artifact, so it is parsed once for all pair checks.
    Returns consumer name -> the exception that stopped it; a consumer
    that raised gets no further rows, and an unreadable file stops all."""
    errors = {}
    try:
        for pair in read_rows(path):
            for consumer in consumers:
                if consumer.name in errors:
                    continue
                try:
                    consumer.row(pair)
                except Exception as exc:
                    errors[consumer.name] = exc
    except Exception as exc:
        for consumer in consumers:
            errors.setdefault(consumer.name, exc)
    return errors


_PARAM_LINE = re.compile(r"^(q|r\+|r-)\s*=\s*(-?[0-9.]+)%?$")


def check_params(sim: Path, stdout: str) -> list[str]:
    """The printed q is the share of empty noise windows in
    timelines.jsonl, and the printed rates satisfy r+ >= 0 >= r-."""
    problems = []
    printed = {}
    for line in stdout.splitlines():
        match = _PARAM_LINE.match(line.strip())
        if match:
            printed[match.group(1)] = match.group(2)
    if set(printed) != {"q", "r+", "r-"}:
        return [f"params output lacks q, r+ or r-: {stdout!r}"]
    total = empty = 0
    for row in read_rows(sim / "timelines.jsonl"):
        total += 1
        empty += not row["noisy_swaps"]
    expected_q = f"{empty / total:.4f}" if total else None
    if printed["q"] != expected_q:
        problems.append(f"q printed {printed['q']}, {empty}/{total} empty windows gives {expected_q}")
    if not float(printed["r+"]) >= 0 >= float(printed["r-"]):
        problems.append(f"rates r+ {printed['r+']}% and r- {printed['r-']}% break r+ >= 0 >= r-")
    return _summary(problems)


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def check_manifests(manifests: dict[Path, dict[str, Path]]) -> list[str]:
    """Each manifest's input_digests name exactly the stage's inputs and
    hold their SHA-256."""
    problems = []
    for manifest_path, inputs in manifests.items():
        recorded = json.loads(manifest_path.read_text())["input_digests"]
        if set(recorded) != set(inputs):
            problems.append(f"{manifest_path}: digests for {sorted(recorded)}, inputs {sorted(inputs)}")
        for name, path in inputs.items():
            if recorded.get(name) != sha256(path):
                problems.append(f"{manifest_path}: digest of {name} does not match {path.name}")
    return _summary(problems)


def _body_sha256(path: Path) -> str:
    """SHA-256 of a JSONL file without its manifest-digest header line."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for line in handle:
            if not line.startswith(b"#"):
                digest.update(line)
    return digest.hexdigest()


def check_traced_rows(cli_run: Path, traced: Path) -> list[str]:
    """The traced in-process pass writes the same JSONL rows (headers
    aside: they digest different manifests) and report.json as the CLI."""
    problems = [
        f"{name} differs"
        for name in ("sim/swap_logs.jsonl", "sim/records.jsonl", "sim/timelines.jsonl",
                     "sim/labels.jsonl", "det/pairs.jsonl")
        if _body_sha256(cli_run / name) != _body_sha256(traced / name)
    ]
    if sha256(cli_run / "rep/report.json") != sha256(traced / "rep/report.json"):
        problems.append("rep/report.json differs")
    return problems
