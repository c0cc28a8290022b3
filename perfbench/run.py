#!/usr/bin/env python3
"""Benchmark of the sandwichlab pipeline: simulate -> detect -> analyze -> params.

Run from the root of a checkout:

    python3 perfbench/run.py --workload busy-2pool --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it runs the four CLI subcommands, each in a fresh
interpreter, in rounds. The first round is the whole pipeline, and its
outputs are checked against computations made apart from the program.
Later rounds repeat the stages of each group (simulate; detect with
analyze; params) that has run for less than its share of ``--seconds``,
so that short stages are timed more than once; the artifacts must stay
byte-identical. It prints the end-to-end metrics, medians over the
rounds. With ``--trace 1`` it runs one untraced pipeline (checked the
same way), then traced in-process passes through each layer's public
functions until the run has taken ``--seconds`` seconds, and prints the
per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. An operation is
one stage invocation or one output check. Exit code 0 when the run
completed, 2 when the checkout holds no program to run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
IMPORT_SAMPLES = 6  # interpreter imports timed before the first stage
STAGES = ("simulate", "detect", "analyze", "params")
# stages timed together, one end-to-end metric each; every group is
# repeated until it has run for at least --seconds / len(GROUPS)
GROUPS = {"simulate_s": ("simulate",), "detect_s": ("detect", "analyze"), "params_s": ("params",)}


def reference_s() -> float:
    """Time a fixed pure-Python computation. Printed beside the metrics,
    never one of them: it tells a slow machine from a slow program."""
    start = time.perf_counter()
    table = {}
    acc = 0
    for i in range(200_000):
        acc = (acc * 31 + i) % 1_000_000_007
        table[acc & 1023] = i
    return time.perf_counter() - start


class Operations:
    """Counts attempted and failed operations and prints one line each."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, name: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAIL  {name}")
            for problem in problems:
                print(f"      {problem}")
        else:
            print(f"ok    {name}")
        return not problems

    def check(self, name: str, check, *args) -> bool:
        """Run one output check and record it. An exception (a renamed
        field, an unreadable file) is that check's failure, so the result
        line is still printed."""
        try:
            problems = check(*args)
        except Exception as exc:
            traceback.print_exc()
            problems = [f"raised {exc!r}"]
        return self.record(name, problems)


class Launcher:
    """Client of launch.py, which starts every stage and import timing."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve().parent / "launch.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, argv: list[str], env: dict, stderr: Path) -> dict:
        request = {"argv": [sys.executable, *argv], "env": env, "stderr": str(stderr)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        reply["stderr"] = stderr.read_text()
        return reply

    def close(self) -> None:
        """Let a running stage finish, then stop the launcher."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=120)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def time_import(launcher: Launcher, env: dict, work: Path) -> float:
    """A fresh interpreter importing sandwichlab.cli: what every stage
    invocation pays before it starts its work."""
    reply = launcher.run(["-c", "import sandwichlab.cli"], env, work / "import.stderr")
    if reply["code"]:
        raise RuntimeError(f"importing sandwichlab.cli failed:\n{reply['stderr']}")
    return reply["seconds"]


def stage_argv(workload, inputs: dict, work: Path) -> dict[str, list[str]]:
    sim, det, rep = work / "sim", work / "det", work / "rep"
    return {
        "simulate": ["simulate", "--config", str(inputs["config"]), "--out", str(sim)],
        "detect": [
            "detect",
            "--records", str(sim / "records.jsonl"),
            "--logs", str(sim / "swap_logs.jsonl"),
            "--out", str(det),
        ],
        "analyze": [
            "analyze",
            "--pairs", str(det / "pairs.jsonl"),
            "--prices", str(inputs["prices"]),
            "--records", str(sim / "records.jsonl"),
            "--out", str(rep),
        ],
        "params": [
            "params",
            "--timelines", str(sim / "timelines.jsonl"),
            "--theta", workload.theta,
            "--percentile", workload.percentile,
        ],
    }


def run_round(names, workload, inputs: dict, work: Path, launcher: Launcher, env: dict,
              imports: list, ops: Operations):
    """The named stages in pipeline order, each in a fresh interpreter.
    Returns the launcher's reply per stage, or None when a stage failed."""
    stages = {}
    for name, argv in stage_argv(workload, inputs, work).items():
        if name not in names:
            continue
        if "--out" in argv:  # every invocation writes into a fresh directory
            shutil.rmtree(argv[argv.index("--out") + 1], ignore_errors=True)
        imports.append(time_import(launcher, env, work))
        stage = launcher.run(["-m", "sandwichlab.cli", *argv], env, work / f"{name}.stderr")
        tail = stage["stderr"].strip().splitlines()[-3:]
        problems = [f"exit {stage['code']}", *tail] if stage["code"] else []
        if not ops.record(f"stage {name} ({stage['seconds']:.3f} s)", problems):
            return None
        stages[name] = stage
    return stages


def group_times(rounds: list[dict], group: tuple) -> list[float]:
    return [sum(r[name]["seconds"] for name in group) for r in rounds if group[0] in r]


def short_stages(rounds: list[dict], seconds: float) -> list[str]:
    """Stages of the groups that have run for less than their share."""
    share = seconds / len(GROUPS)
    return [
        name
        for group in GROUPS.values()
        if sum(group_times(rounds, group)) < share
        for name in group
    ]


def artifacts(work: Path) -> dict[str, Path]:
    return {
        f"{d}/{p.name}": p
        for d in ("sim", "det", "rep")
        for p in sorted((work / d).iterdir())
    }


def _result(consumer) -> list[str]:
    """A pair check's problems, or the exception that stopped it."""
    if isinstance(consumer, Exception):
        raise consumer
    return consumer.result()


def check_outputs(checks, workload, seed: int, inputs: dict, work: Path, stages: dict, ops: Operations) -> None:
    sim, det, rep = work / "sim", work / "det", work / "rep"
    ops.check("swap logs replay exactly from the config reserves", checks.check_swap_replay,
              sim, workload.reserves())
    ops.check("executed + reverted + dropped = total victims", checks.check_victim_counts, sim)
    titles = {
        "pairs": "every pair meets the heuristic's properties",
        "reference-sample": "sampled records match the reference matcher",
        "report": "report totals match a Decimal recomputation",
    }
    try:
        corpus = checks.Corpus(sim)
        consumers = [
            checks.PairCheck(corpus),
            checks.ReferenceSampleCheck(corpus, seed),
            checks.ReportCheck(corpus, workload.prices, rep / "report.json"),
        ]
        errors = checks.scan_pairs(det / "pairs.jsonl", consumers)
        outcome = {c.name: errors.get(c.name, c) for c in consumers}
    except Exception as exc:  # the simulate artifacts could not be read
        outcome = dict.fromkeys(titles, exc)
    for name, title in titles.items():
        ops.check(title, _result, outcome[name])
    ops.check("params q and rate signs match timelines.jsonl", checks.check_params,
              sim, stages["params"]["stdout"])
    ops.check(
        "manifest input digests match the inputs",
        checks.check_manifests,
        {
            sim / "manifest.json": {"config": inputs["config"]},
            det / "manifest.json": {"records": sim / "records.jsonl", "logs": sim / "swap_logs.jsonl"},
            rep / "manifest.json": {"pairs": det / "pairs.jsonl", "prices": inputs["prices"]},
        },
    )


def check_reruns(checks, work: Path, digests: dict, rounds: list[dict]) -> list[str]:
    """Every repeated round rewrote the first round's artifacts byte for
    byte, and every params round printed what the first one printed."""
    current = {name: checks.sha256(path) for name, path in artifacts(work).items()}
    problems = [f"{name} changed" for name in digests if current.get(name) != digests[name]]
    printed = rounds[0]["params"]["stdout"]
    problems += [
        f"round {number} params printed {r['params']['stdout']!r}, round 0 {printed!r}"
        for number, r in enumerate(rounds)
        if "params" in r and r["params"]["stdout"] != printed
    ]
    return problems


def end_to_end(rounds: list[dict], imports: list[float], artifact_bytes: int) -> dict:
    groups = {metric: median(group_times(rounds, group)) for metric, group in GROUPS.items()}
    rss = [median(r[name]["rss_mb"] for r in rounds if name in r) for name in STAGES]
    return {
        "setup_s": (median(imports), "s"),
        "pipeline_s": (sum(groups.values()), "s"),
        **{metric: (value, "s") for metric, value in groups.items()},
        "peak_rss_mb": (max(rss), "MB"),
        "artifact_mb": (artifact_bytes / 1e6, "MB"),
    }


def traced_run(workload, inputs: dict, work: Path, budget: float, pipeline_s: float,
               import_s: float, ops: Operations) -> dict:
    """Traced in-process passes until they have taken the rest of the
    run's seconds (at least one); the per-layer metrics are their medians."""
    from checks import check_traced_rows

    passes, spans = [], []
    measured = 0.0
    out = work / "traced"

    def one_pass() -> list[str]:
        nonlocal measured
        import tracing  # imports the layers: inside the guarded first pass

        shutil.rmtree(out, ignore_errors=True)
        tracer = tracing.Tracer()
        start = time.perf_counter()
        fronts = tracing.traced_pass(tracer, workload, inputs, out)
        measured += time.perf_counter() - start
        passes.append(tracing.layer_metrics(tracer, import_s, pipeline_s, len(STAGES)))
        spans.append(tracer)
        return [] if fronts["params"] == fronts["probe"] else ["front-run sizes differ"]

    if not ops.check("traced pass: direct solver calls match the params stage's front-runs", one_pass):
        return {}
    ops.check("traced pass writes the CLI's rows", check_traced_rows, work, out)
    while measured < budget:
        one_pass()
    import tracing

    tracing.write_spans(OUT / f"spans-{workload.name}.jsonl", spans)
    detected, truth, hits = tracing.pair_quality(work / "det", work / "sim")
    precision = f"{hits / detected:.4f} ({hits}/{detected})" if detected else "undefined (no pairs)"
    recall = f"{hits / truth:.4f} ({hits}/{truth})" if truth else "undefined (no labelled sandwiches)"
    print(f"reference detector.pair_precision {precision}")
    print(f"reference detector.pair_recall    {recall}")
    return {name: (median([p[name][0] for p in passes]), unit) for name, (_, unit) in passes[0].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sandwichlab" / "cli.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'sandwichlab' / 'cli.py'} is missing; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, price_csv

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks

    workload = WORKLOADS[args.workload](args.seed)
    work = OUT / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.pop("SANDWICHLAB_CONFIG", None)  # it would override the workload's --config
    # the stages read cached bytecode, as an installed package does, whatever the caller's shell sets
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    # SIGTERM unwinds through the finally below, which ends the launcher
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    launcher = Launcher()  # before anything large is loaded: see launch.py
    try:
        inputs = {"config": work / "config.yaml", "prices": work / "prices.csv"}
        inputs["config"].write_text(json.dumps(workload.config, indent=2) + "\n")
        inputs["prices"].write_text(price_csv(workload.prices))
        ops = Operations()
        time_import(launcher, env, work)  # fills the bytecode cache, as an installed package has it
        imports = [time_import(launcher, env, work) for _ in range(IMPORT_SAMPLES)]
        reference = [reference_s()]
        rounds = []
        stages = run_round(STAGES, workload, inputs, work, launcher, env, imports, ops)
        if stages is not None:
            rounds.append(stages)
            reference.append(reference_s())
            digests = {name: checks.sha256(path) for name, path in artifacts(work).items()}
            size = sum(path.stat().st_size for path in artifacts(work).values())
            check_outputs(checks, workload, args.seed, inputs, work, stages, ops)
            while args.trace == 0 and stages is not None and short_stages(rounds, args.seconds):
                stages = run_round(short_stages(rounds, args.seconds), workload, inputs, work,
                                   launcher, env, imports, ops)
                if stages is not None:
                    rounds.append(stages)
                    reference.append(reference_s())
            if len(rounds) > 1:
                ops.check(f"{len(rounds) - 1} repeated rounds rewrite the same artifacts and params output",
                          check_reruns, checks, work, digests, rounds)
        metrics = {}
        if rounds and ops.failed == 0:
            metrics = end_to_end(rounds, imports, size)
            if args.trace:
                measured = sum(s["seconds"] for s in rounds[0].values())
                metrics = traced_run(workload, inputs, work, args.seconds - measured,
                                     metrics["pipeline_s"][0], metrics["setup_s"][0], ops)
        print(f"rounds {len(rounds)}  reference_s {median(reference):.6f} "
              f"(fixed loop, median of {len(reference)}; not a metric)")
        result = {
            "correct": ops.failed == 0,
            "attempted": ops.attempted,
            "failed": ops.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
        print(json.dumps(result))
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
