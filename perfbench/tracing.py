"""The traced run: the pipeline's four stages replayed in one process
through each layer's public functions, with a span around every call.

Spans carry a name, a parent, a start and an end; they are kept in
memory and written out once the run ends. A span's self time is its
duration minus that of its children. Stage spans (``stage.*``) hold the
same work as the CLI subcommand of that name; the ``probe`` span holds
direct calls to the AMM layer that no stage makes on its own.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

from sandwichlab import amm, attack, bridge, cli, detector, ingest

LAYERS = ("bridge", "amm", "attack", "detector", "ingest", "cli")


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end]
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, parent, time.perf_counter(), None])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self.stack.pop()

    def call(self, name: str, fn, *args):
        index = self.open(name)
        try:
            return fn(*args)
        finally:
            self.close(index)

    def count(self, name: str, amount: int) -> None:
        self.counts[name] += amount

    def totals(self) -> tuple[dict, dict]:
        """(total seconds per span name, self seconds per span name)."""
        total = defaultdict(float)
        children = defaultdict(float)
        for name, parent, start, end in self.spans:
            total[name] += end - start
            if parent is not None:
                children[parent] += end - start
        own = defaultdict(float)
        for index, (name, _, start, end) in enumerate(self.spans):
            own[name] += end - start - children[index]
        return dict(total), dict(own)


SPAN_METRICS = (
    "bridge.run", "bridge.extract_corpus",
    "amm.largest_frontrun", "amm.execute_swap",
    "attack.replay_timeline", "attack.estimate_return_rates",
    "attack.estimate_noise_params", "attack.optimal_frontrun",
    "detector.detect_pairs", "detector.prefilter",
    "detector.classify_and_price", "detector.aggregate",
    "ingest.encode_pairs", "ingest.decode_pairs",
    "ingest.encode_swap_logs", "ingest.encode_records", "ingest.encode_timelines",
    "ingest.decode_swap_logs", "ingest.decode_records", "ingest.decode_timelines",
    "ingest.digest",
)
COUNT_METRICS = (
    "bridge.victims", "bridge.swap_logs",
    "amm.largest_frontrun_calls", "amm.execute_swap_calls",
    "attack.window_swaps", "attack.rate_samples", "attack.timelines",
    "detector.records_kept", "detector.pairs",
)


def layer_metrics(tracer: Tracer, import_s: float, pipeline_s: float, stages: int) -> dict:
    """name -> (value, unit) for one traced pass. ``import_s`` and
    ``pipeline_s`` come from the same run's untraced pipeline; the traced
    total adds one interpreter import per stage, as the CLI pays them."""
    total, own = tracer.totals()
    metrics = {f"{name}_s": (total.get(name, 0.0), "s") for name in SPAN_METRICS}
    metrics.update({name: (tracer.counts[name], "count") for name in COUNT_METRICS})
    metrics["ingest.pairs_mb"] = (tracer.counts["ingest.pairs_bytes"] / 1e6, "MB")
    metrics["cli.import_s"] = (import_s, "s")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (sum(v for k, v in own.items() if k.startswith(layer + ".")), "s")
    metrics["pipeline.self_s"] = (sum(v for k, v in own.items() if k.startswith("stage.")), "s")
    traced = sum(v for k, v in total.items() if k.startswith("stage.")) + stages * import_s
    metrics["trace.total_s"] = (traced, "s")
    metrics["trace.overhead_pct"] = ((traced / pipeline_s - 1) * 100, "%")
    return metrics


def _manifest(command: str, config: dict, inputs: dict, tr: Tracer) -> ingest.RunManifest:
    digests = {name: tr.call("ingest.digest", ingest.file_digest, str(path)) for name, path in inputs.items()}
    return ingest.RunManifest(command=command, config=config, input_digests=digests)


def _read(path: Path, decode) -> list:
    return [decode(row) for row in ingest.read_jsonl(str(path))]


def stage_simulate(tr: Tracer, workload, config_path: Path, out: Path) -> None:
    config = tr.call("cli.sim_config_from_dict", cli.sim_config_from_dict, workload.config)
    sim_trace, metrics = tr.call("bridge.run", bridge.run, config)
    corpus = tr.call("bridge.extract_corpus", bridge.extract_corpus, sim_trace)
    tr.count("bridge.victims", metrics.victims_total)
    tr.count("bridge.swap_logs", len(corpus.swap_logs))
    manifest = _manifest("simulate", workload.config, {"config": config_path}, tr)
    for name, rows in (
        ("swap_logs", map(ingest.swap_log_to_dict, corpus.swap_logs)),
        ("records", map(ingest.record_to_dict, corpus.records)),
        ("timelines", map(ingest.timeline_to_dict, corpus.timelines)),
        ("labels", corpus.labels),
    ):
        tr.call(f"ingest.encode_{name}", ingest.write_jsonl, str(out / f"{name}.jsonl"), rows, manifest)


def stage_detect(tr: Tracer, sim: Path, out: Path) -> None:
    cfg = detector.DetectionConfig()
    records = tr.call("ingest.decode_records", _read, sim / "records.jsonl", ingest.record_from_dict)
    logs = tr.call("ingest.decode_swap_logs", _read, sim / "swap_logs.jsonl", ingest.swap_log_from_dict)
    logs_by_pool: dict[str, list] = {}
    for log in logs:
        logs_by_pool.setdefault(log.pool_address, []).append(log)
    for pool_logs in logs_by_pool.values():
        pool_logs.sort(key=detector.SwapLog.position)
    kept = tr.call("detector.prefilter", detector.prefilter, records, cfg)
    pairs = []
    for record in kept:
        pairs.extend(tr.call("detector.detect_pairs", detector.detect_pairs, record, logs_by_pool, cfg))
    tr.count("detector.records_kept", len(kept))
    tr.count("detector.pairs", len(pairs))
    inputs = {"records": sim / "records.jsonl", "logs": sim / "swap_logs.jsonl"}
    manifest = _manifest("detect", {}, inputs, tr)
    tr.call(
        "ingest.encode_pairs",
        ingest.write_jsonl,
        str(out / "pairs.jsonl"),
        map(ingest.pair_to_dict, pairs),
        manifest,
    )


def stage_analyze(tr: Tracer, sim: Path, det: Path, prices_path: Path, out: Path) -> None:
    pairs = tr.call("ingest.decode_pairs", _read, det / "pairs.jsonl", ingest.pair_from_dict)
    records = tr.call("ingest.decode_records", _read, sim / "records.jsonl", ingest.record_from_dict)
    prices = tr.call("detector.price_table", detector.PriceTable.from_csv, str(prices_path))
    enriched, missing = tr.call("detector.classify_and_price", detector.classify_and_price, pairs, prices)
    report = tr.call("detector.aggregate", detector.aggregate, enriched, records)
    _manifest("analyze", {}, {"pairs": det / "pairs.jsonl", "prices": prices_path}, tr)
    report_dict = asdict(report)
    report_dict["missing_price_tokens"] = sorted(missing)
    (out / "report.json").write_text(json.dumps(report_dict, indent=2, sort_keys=True, default=str))
    tr.count("ingest.pairs_bytes", (det / "pairs.jsonl").stat().st_size)


def stage_params(tr: Tracer, workload, sim: Path) -> list[int]:
    timelines = tr.call(
        "ingest.decode_timelines", _read, sim / "timelines.jsonl", ingest.timeline_from_dict
    )
    theta = Fraction(workload.theta)
    tr.call("attack.estimate_noise_params", attack.estimate_noise_params, timelines, theta)
    fronts, samples = [], []
    for timeline in timelines:
        front = tr.call("attack.optimal_frontrun", attack.optimal_frontrun_for_timeline, timeline, theta)
        fronts.append(front)
        if front == 0:
            continue
        _, recovered = tr.call("attack.replay_timeline", attack.replay_timeline, timeline, front)
        tr.count("attack.window_swaps", len(timeline.noisy_swaps))
        samples.append(Fraction(recovered - front, front))
    tr.count("attack.timelines", len(timelines))
    tr.count("attack.rate_samples", len(samples))
    tr.call(
        "attack.estimate_return_rates",
        attack.estimate_return_rates,
        samples,
        Fraction(workload.percentile),
    )
    return fronts


def probe_amm(tr: Tracer, workload, sim: Path) -> list[int]:
    """The AMM layer alone: the front-run solver on each timeline's
    oriented snapshot at the workload's theta, then each timeline's
    noise window and victim replayed swap by swap."""
    timelines = _read(sim / "timelines.jsonl", ingest.timeline_from_dict)
    theta = Fraction(workload.theta)
    fronts = []
    for timeline in timelines:
        victim = timeline.victim
        pool = timeline.pool
        if victim.direction is amm.Direction.Y_FOR_X:
            pool = pool.mirrored()
        quote = amm.quote_output(pool, amm.Direction.X_FOR_Y, victim.amount_in)
        floor = quote - (quote - victim.min_out) * theta.numerator // theta.denominator
        fronts.append(
            tr.call(
                "amm.largest_frontrun",
                amm.largest_frontrun_for_min_out,
                pool,
                amm.Direction.X_FOR_Y,
                victim.amount_in,
                floor,
            )
        )
    tr.count("amm.largest_frontrun_calls", len(timelines))
    for timeline in timelines:
        pool = timeline.pool
        for direction, amount in timeline.noisy_swaps:
            pool = tr.call("amm.execute_swap", amm.execute_swap, pool, amm.SwapRequest(direction, amount)).pool_after
        tr.call("amm.execute_swap", amm.execute_swap, pool, timeline.victim)
        tr.count("amm.execute_swap_calls", len(timeline.noisy_swaps) + 1)
    return fronts


def traced_pass(tr: Tracer, workload, inputs: dict[str, Path], out: Path) -> dict:
    """One traced pass of all four stages plus the AMM probe. Returns
    the front-run sizes of the params stage and of the probe, which must
    agree."""
    sim, det, rep = out / "sim", out / "det", out / "rep"
    for directory in (sim, det, rep):
        directory.mkdir(parents=True, exist_ok=True)
    index = tr.open("stage.simulate")
    stage_simulate(tr, workload, inputs["config"], sim)
    tr.close(index)
    index = tr.open("stage.detect")
    stage_detect(tr, sim, det)
    tr.close(index)
    index = tr.open("stage.analyze")
    stage_analyze(tr, sim, det, inputs["prices"], rep)
    tr.close(index)
    index = tr.open("stage.params")
    params_fronts = stage_params(tr, workload, sim)
    tr.close(index)
    index = tr.open("probe")
    probe_fronts = probe_amm(tr, workload, sim)
    tr.close(index)
    return {"params": params_fronts, "probe": probe_fronts}


def write_spans(path: Path, tracers: list[Tracer]) -> None:
    """One JSON line per span, numbered by traced pass."""
    with open(path, "w") as handle:
        for number, tracer in enumerate(tracers):
            for index, (name, parent, start, end) in enumerate(tracer.spans):
                row = {"pass": number, "id": index, "parent": parent,
                       "name": name, "start": start, "end": end}
                handle.write(json.dumps(row) + "\n")


def pair_quality(det: Path, sim: Path) -> tuple[int, int, int]:
    """(detected pairs, ground-truth sandwiches, detected pairs that are
    ground-truth sandwiches). A ground-truth sandwich is an attacker's or
    bot's front/back around a victim, both present in the swap logs."""
    logged = {row["tx_hash"] for row in ingest.read_jsonl(str(sim / "swap_logs.jsonl"))}
    truth = set()
    for label in ingest.read_jsonl(str(sim / "labels.jsonl")):
        for actor in ("attacker", "bot"):
            front, back = label[f"{actor}_front_tx"], label[f"{actor}_back_tx"]
            if front in logged and back in logged:
                truth.add((front, label["victim_tx"], back))
    detected = hits = 0
    for pair in ingest.read_jsonl(str(det / "pairs.jsonl")):
        detected += 1
        hits += (pair["front"]["tx_hash"], pair["victim"]["tx_hash"], pair["back"]["tx_hash"]) in truth
    return detected, len(truth), hits
