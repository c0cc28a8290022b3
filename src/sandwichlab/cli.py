"""Command-line front end.

Subcommands: simulate (run the bridge simulator, export trace and
corpus), detect (run the pair-matching pipeline over exported records
and logs), params (estimate or evaluate the attack-model parameters),
analyze (aggregate detected pairs into a report), selftest (cross-check
the fast implementations against their reference oracles).

Only simulate loads the simulator (sandwichlab.bridge), and only
simulate and detect --config load PyYAML: detect, params and analyze
start without either.

Exit codes: 0 success, 1 validation error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path
from typing import Optional

# bridge, random and yaml are imported in the functions that use them
from . import __version__, amm, attack, detector, ingest


class ValidationFailure(ValueError):
    pass


# int() and Fraction() alone would also take " 3", "+3", "3_0" and
# non-ASCII digits
_RATIO = re.compile(r"-?[0-9]+/[0-9]+")
_DECIMAL = re.compile(r"-?[0-9]+(\.[0-9]+)?")


def _fraction(value) -> Fraction:
    """A Fraction from a config value or flag: a string "n/d" or a
    decimal string "d" or "d.d", in ASCII digits with a minus sign
    allowed in front, or an int or a float (a YAML number, read through
    str(), so 1e-05 is 1/100000). A zero denominator or a bad literal is
    a ValidationFailure."""
    if isinstance(value, Fraction):
        return value
    try:
        if isinstance(value, str):
            if "/" in value:
                if not _RATIO.fullmatch(value):
                    raise ValueError('not "n/d" in ASCII digits, a minus sign allowed before n')
                num, _, den = value.partition("/")
                return Fraction(int(num), int(den))
            if not _DECIMAL.fullmatch(value):
                raise ValueError("not a decimal in ASCII digits, a minus sign allowed in front")
            return Fraction(value)
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        reason = "zero denominator" if isinstance(exc, ZeroDivisionError) else exc
        raise ValidationFailure(f"bad fraction {value!r}: {reason}") from None


_DIST_PARAMS = frozenset({"value", "low", "high", "rate", "mu", "sigma", "p95", "min", "max"})
# A number with an exponent. PyYAML reads YAML 1.1, whose floats need a
# dot and a signed exponent, so it leaves 1.0e15 and 1e5 as strings,
# which YAML 1.2 reads as numbers.
_EXPONENT_NUMBER = re.compile(r"[-+]?([0-9]+(\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+")


def _dist(name: str, data) -> bridge.DistSpec:
    """The distribution at key name of a simulate config: a mapping with
    a family and its parameters, or a number for a fixed value. Each
    parameter must be a finite number: DistSpec.sample passes it through
    float(), which takes "5" and true, and a NaN delay drops every
    victim."""
    import random

    from . import bridge

    if not isinstance(data, dict):
        data = {"family": "fixed", "value": data}
    spec = bridge.DistSpec.from_dict(data)
    for key, value in spec.params.items():
        if key not in _DIST_PARAMS:
            raise ValueError(f"{name} has no parameter {key!r}")
        if type(value) is str and _EXPONENT_NUMBER.fullmatch(value):
            value = float(value)
        # an int compares exactly with infinity, however large
        if type(value) not in (int, float) or not -math.inf < value < math.inf:
            raise ValueError(f"{name}.{key} must be a finite number, not {value!r}")
    # a bad family or parameter fails here, not in the middle of the run
    spec.sample(random.Random(0))
    return spec


_DIST_KEYS = (
    "relay_delay",
    "noise_size",
    "noise_gas",
    "victim_size",
    "victim_tolerance",
    "victim_gas",
)


def sim_config_from_dict(data: dict) -> bridge.SimConfig:
    """Build a SimConfig from a parsed YAML document. A key that is not
    a SimConfig field (or an AttackerConfig/BotConfig/Pool field inside
    ``attacker``/``bot``/a ``pools`` entry) is a validation error."""
    from . import bridge

    kwargs: dict = {}
    try:
        for key, value in data.items():
            if key in _DIST_KEYS:
                kwargs[key] = _dist(key, value)
            elif key == "attacker":
                attacker = dict(value)
                if "theta" in attacker:
                    attacker["theta"] = _fraction(attacker["theta"])
                kwargs[key] = bridge.AttackerConfig(**attacker)
            elif key == "bot":
                kwargs[key] = bridge.BotConfig(**value)
            elif key == "pools":
                kwargs[key] = tuple(map(ingest.pool_from_dict, value))
            else:
                kwargs[key] = value
        return bridge.SimConfig(**kwargs)
    except (TypeError, KeyError, ValueError, ArithmeticError, amm.AmmError) as exc:
        raise ValidationFailure(f"bad simulation config: {exc}") from exc


def _token_set(tokens) -> frozenset:
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise ValueError(f"stablecoins must be a list of token symbols, got {tokens!r}")
    return frozenset(token.upper() for token in tokens)


def _block_count(value) -> int:
    # int() would truncate 1.5 and turn true into 1
    if type(value) is not int:
        raise ValueError(f"num_blocks must be an integer, not {value!r}")
    return value


def _interval(value) -> float:
    # NaN would switch the prefilter off and a negative bound would drop
    # every record; NaN and infinity are not valid JSON in manifest.json
    if type(value) not in (int, float) or not 0 <= value < math.inf:
        raise ValueError(f"max_interval must be a finite number >= 0, not {value!r}")
    return float(value)


_DETECTION_KEYS = {
    "num_blocks": ("num_blocks", _block_count),
    "band_low": ("band_low", _fraction),
    "band_high": ("band_high", _fraction),
    "max_interval": ("max_interval", _interval),
    "stablecoins": ("stablecoin_set", _token_set),
}


def detection_config_from_dict(data: dict) -> detector.DetectionConfig:
    """Build a DetectionConfig from a parsed YAML document. A key that
    is not one of _DETECTION_KEYS is a validation error."""
    kwargs: dict = {}
    try:
        for key, value in data.items():
            if key not in _DETECTION_KEYS:
                raise ValueError(f"unknown key {key!r}")
            field_name, convert = _DETECTION_KEYS[key]
            kwargs[field_name] = convert(value)
        return detector.DetectionConfig(**kwargs)
    except (TypeError, ValueError, AttributeError) as exc:
        raise ValidationFailure(f"bad detection config: {exc}") from exc


def _load_yaml(path: str) -> dict:
    import yaml

    with open(path) as handle:
        try:
            data = yaml.safe_load(handle)
        except yaml.YAMLError as exc:
            raise ValidationFailure(f"config file {path} is not valid YAML: {exc}") from None
    if not isinstance(data, dict):
        raise ValidationFailure(f"config file {path} must hold a mapping")
    return data


def _manifest(command: str, config: dict, inputs: dict, seed=None) -> ingest.RunManifest:
    digests = {}
    for name, path in inputs.items():
        if path and os.path.exists(path):
            digests[name] = ingest.file_digest(path)
    return ingest.RunManifest(
        command=command,
        config=config,
        input_digests=digests,
        seed=seed,
    )


def _write_json(path: Path, data: dict) -> None:
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True, default=str)


def cmd_simulate(args) -> int:
    if not args.config:
        raise ValidationFailure("simulate requires --config")
    from . import bridge

    raw = _load_yaml(args.config)
    config = sim_config_from_dict(raw)
    try:
        trace, metrics = bridge.run(config)
    except bridge.InvalidConfig as exc:
        # a config that builds but cannot run: two pools at one address
        raise ValidationFailure(str(exc)) from None
    except amm.Overflow as exc:
        # a sampled swap amount past 256 bits: the config's distributions
        # are checked only by sampling them once
        raise ValidationFailure(f"{args.config}: a simulated swap overflows: {exc}") from None

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = _manifest("simulate", raw, {"config": args.config}, seed=config.seed)
    # Set before the JSONL files are written: their header carries the
    # digest of this manifest, which must equal that of manifest.json.
    manifest.output_paths = [
        "labels.jsonl",
        "metrics.json",
        "records.jsonl",
        "swap_logs.jsonl",
        "timelines.jsonl",
    ]
    # each row through the one text encoder of its kind, which ingest
    # makes from the kind's field table (tests/_oracles.py holds the
    # reference dict forms); rows are built as they are written
    corpus = bridge.corpus_streams(trace)
    for name, encode, rows in (
        ("swap_logs", ingest.swap_log_text, corpus.swap_logs),
        ("records", ingest.record_text, corpus.records),
        ("timelines", ingest.timeline_text, corpus.timelines),
        ("labels", ingest.label_text, corpus.labels),
    ):
        ingest.write_lines(str(out / f"{name}.jsonl"), map(encode, rows), manifest)

    metrics_dict = asdict(metrics)
    if metrics.measured_q is not None:
        metrics_dict["measured_q"] = float(metrics.measured_q)
    _write_json(out / "metrics.json", metrics_dict)
    _write_json(out / "manifest.json", asdict(manifest))

    print(
        f"simulated {metrics.victims_total} victims "
        f"({metrics.victims_executed} executed, {metrics.victims_reverted} reverted, "
        f"{metrics.victims_dropped} dropped) -> {out}"
    )
    return 0


def cmd_detect(args) -> int:
    cfg = (
        detection_config_from_dict(_load_yaml(args.config))
        if args.config
        else detector.DetectionConfig()
    )
    # every record is read, and checked, before --out is made
    records = list(ingest.iter_records(args.records))
    logs_by_pool = detector.group_logs(ingest.iter_swap_logs(args.logs), f"{args.logs}: ")

    kept = detector.prefilter(records, cfg)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = _manifest(
        "detect",
        {"num_blocks": cfg.num_blocks, "max_interval": cfg.max_interval},
        {"records": args.records, "logs": args.logs, "config": args.config},
    )
    # Each record's pairs are written as they are found, so no stage
    # holds the pair list; pairs.jsonl appears only once it is complete.
    pairs = (
        pair for record in kept for pair in detector.detect_pairs(record, logs_by_pool, cfg)
    )
    count = ingest.write_pairs_jsonl(str(out / "pairs.jsonl"), pairs, manifest)
    _write_json(out / "manifest.json", asdict(manifest))
    print(
        f"{len(records)} records in, {len(kept)} past prefilter, "
        f"{count} sandwich pairs -> {out / 'pairs.jsonl'}"
    )
    return 0


def cmd_params(args) -> int:
    if args.timelines:
        direct = [
            "--" + name.replace("_", "-")
            for name in ("q", "p", "r_plus", "r_minus")
            if getattr(args, name) is not None
        ]
        if direct:
            raise ValidationFailure(
                f"{', '.join(direct)} cannot be combined with --timelines, which estimates them"
            )
        theta_text = "1" if args.theta is None else args.theta
        theta = _fraction(theta_text)
        if not 0 < theta <= 1:
            raise ValidationFailure(f"--theta must be in (0, 1], got {theta_text}")
        percentile_text = "95" if args.percentile is None else args.percentile
        percentile = _fraction(percentile_text)
        if not 0 < percentile <= 100:
            raise ValidationFailure(f"--percentile must be in (0, 100], got {percentile_text}")
        # one timeline at a time: each is decoded, replayed and dropped
        # before the next is read
        timelines = ingest.iter_timelines(args.timelines)
        try:
            params, rate_samples = attack.noise_params_and_rates(timelines, theta)
        except attack.EmptyInput:
            raise ValidationFailure(f"no timelines in {args.timelines}") from None
        except amm.Overflow as exc:
            raise ValidationFailure(
                f"{args.timelines}: replaying a timeline overflows: {exc}"
            ) from None
        if not rate_samples:
            raise ValidationFailure("no attackable timelines; cannot estimate rates")
        # the printed digits of the exact trimmed means, certified by
        # integer bounds, with no exact sum unless the bounds print apart
        r_plus_text, r_minus_text, expected_text = attack.return_rate_texts(
            rate_samples, percentile, params
        )
    else:
        given = [f"--{name}" for name in ("theta", "percentile") if getattr(args, name) is not None]
        if given:
            raise ValidationFailure(f"{', '.join(given)} can only be used with --timelines")
        if args.q is None or args.r_plus is None or args.r_minus is None:
            raise ValidationFailure(
                "params needs either --timelines or all of --q/--r-plus/--r-minus"
            )
        q, r_plus, r_minus = _fraction(args.q), _fraction(args.r_plus), _fraction(args.r_minus)
        p = None if args.p is None else _fraction(args.p)
        try:
            params = attack.NoiseParams(q=q, p=p)
            rates = attack.ReturnRates(r_plus=r_plus, r_minus=r_minus)
        except ValueError as exc:
            raise ValidationFailure(f"bad model parameters: {exc}") from None
        figures = rates.r_plus, rates.r_minus, attack.expected_profit(1, params, rates)
        r_plus_text, r_minus_text, expected_text = map(attack.percent_text, figures)

    win = attack.success_probability(params)
    print(f"q         = {float(params.q):.4f}")
    print(f"p         = {'n/a' if params.p is None else f'{float(params.p):.4f}'}")
    print(f"r+        = {r_plus_text}%")
    print(f"r-        = {r_minus_text}%")
    print(f"E(r)      = {expected_text}%")
    print(f"success   = {float(win) * 100:.2f}%")
    return 0


def _detect_horizon(pairs_path: str) -> int:
    """The num_blocks that detect ran with, read from the manifest.json
    it wrote beside pairs_path; the default when there is none. A
    manifest whose digest is not that in the pairs header is an error."""
    manifest_path = Path(pairs_path).with_name("manifest.json")
    if not manifest_path.exists():
        return detector.DetectionConfig().num_blocks
    try:
        with open(manifest_path) as handle:
            manifest = ingest.RunManifest(**json.load(handle))
        with open(pairs_path) as handle:
            header = handle.readline().strip()
        if header == f"# manifest-digest {manifest.digest()}":
            return int(manifest.config["num_blocks"])
    except (TypeError, KeyError, ValueError):
        pass
    raise ValidationFailure(
        f"{manifest_path} is not the detect manifest of {pairs_path}; "
        "cannot tell the num_blocks it was detected with"
    )


def cmd_analyze(args) -> int:
    num_blocks = _detect_horizon(args.pairs)
    prices = detector.PriceTable.from_csv(args.prices)
    # One row at a time: aggregate reads the records first and keeps
    # each one's id and chain pair; then each pair is decoded, priced and
    # folded into the report before the next is read. Memory follows the
    # swap logs of each pool's current front window (iter_pairs decodes
    # each text once while the window holds it) and the record ids, not
    # the number of pairs or of logs.
    missing: set[str] = set()
    report = detector.aggregate(
        ingest.iter_pairs(args.pairs),
        ingest.iter_records(args.records) if args.records else (),
        num_blocks,
        usd=lambda pair: detector.pair_profit(pair, prices, missing)[1],
    )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report_dict = asdict(report)
    report_dict["missing_price_tokens"] = sorted(missing)
    _write_json(out / "report.json", report_dict)
    with open(out / "pool_counts.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["pool_address", "pairs"])
        writer.writerows(report.pool_counts.items())
    with open(out / "chain_pairs.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["chain_pair", "pairs", "profit_usd"])
        for key, bucket in report.chain_pairs.items():
            writer.writerow([key, bucket["pairs"], bucket["profit_usd"]])
    manifest = _manifest(
        "analyze", {}, {"pairs": args.pairs, "prices": args.prices}
    )
    manifest.output_paths = ["report.json", "pool_counts.csv", "chain_pairs.csv"]
    _write_json(out / "manifest.json", asdict(manifest))
    print(
        f"{report.total_pairs} pairs "
        f"({report.single_chain_pairs} same-block, {report.cross_chain_pairs} cross-chain), "
        f"total profit {report.total_profit_usd} USD -> {out / 'report.json'}"
    )
    if missing:
        print(f"warning: no USD price for {len(missing)} token(s): {sorted(missing)}")
    return 0


def cmd_selftest(args) -> int:
    # imported here, so that importing the CLI loads none of it
    from . import selftest

    return selftest.main()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sandwichlab",
        description="Cross-chain sandwich-attack laboratory: simulate, detect, analyze.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the bridge simulator")
    p.add_argument("--config", help="YAML simulation config")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("detect", help="match sandwich pairs in exported logs")
    p.add_argument("--records", required=True, help="cross-chain records JSONL")
    p.add_argument("--logs", required=True, help="swap logs JSONL")
    p.add_argument("--config", help="YAML detection config")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("params", help="estimate or evaluate model parameters")
    p.add_argument("--timelines", help="pool timelines JSONL")
    p.add_argument("--theta", help="extraction fraction, --timelines only (default 1)")
    p.add_argument("--percentile", help="outlier-trim percentile, --timelines only (default 95)")
    p.add_argument("--q", help="empty-window probability (direct mode)")
    p.add_argument("--p", help="non-loss probability given noise (direct mode)")
    p.add_argument("--r-plus", dest="r_plus", help="non-loss return rate")
    p.add_argument("--r-minus", dest="r_minus", help="loss return rate")
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("analyze", help="aggregate detected pairs into a report")
    p.add_argument("--pairs", required=True, help="detected pairs JSONL")
    p.add_argument("--prices", required=True, help="token price CSV")
    p.add_argument("--records", help="cross-chain records JSONL (chain-pair stats)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("selftest", help="cross-check against reference oracles")
    p.set_defaults(func=cmd_selftest)

    return parser


# bad input, reported as "error: ..." with exit 1; any other exception
# is a bug and keeps its traceback
_INPUT_ERRORS = (ValidationFailure, ingest.MalformedData, attack.EmptyInput)


# argparse reads "-3/100" after a space as an option, not as a value
_NEGATIVE_RATIO = re.compile(r"-[0-9]+/[0-9]+")


def _join_negative_ratios(argv: list[str]) -> list[str]:
    """argv with each "--flag" followed by a "-n/d" value joined into
    "--flag=-n/d", which argparse reads as the flag's value."""
    joined: list[str] = []
    for token in argv:
        flag = joined[-1] if joined else ""
        if _NEGATIVE_RATIO.fullmatch(token) and flag.startswith("--") and "=" not in flag[2:]:
            joined[-1] = f"{flag}={token}"
        else:
            joined.append(token)
    return joined


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_ratios(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
