import hashlib
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict, replace
from fractions import Fraction
from pathlib import Path

import pytest
import yaml

from _oracles import classify_and_price_oracle
from sandwichlab import attack
from sandwichlab.amm import MAX_AMOUNT, Direction, Pool, SwapRequest
from sandwichlab.attack import PoolTimeline
from sandwichlab.bridge import extract_corpus, run
from sandwichlab.cli import (
    ValidationFailure,
    build_parser,
    detection_config_from_dict,
    main,
    sim_config_from_dict,
)
from sandwichlab.detector import (
    DetectionConfig,
    PriceTable,
    SwapLog,
    aggregate,
    detect_pairs,
    group_logs,
    prefilter,
)
from sandwichlab.ingest import (
    MalformedData,
    RunManifest,
    file_digest,
    pair_to_dict,
    record_to_dict,
    swap_log_to_dict,
    timeline_to_dict,
    write_jsonl,
)
from test_digests import FEES_YAML
from test_ingest import small_sim_config

CONFIG_YAML = """\
seed: 11
horizon: 180
relay_delay:
  family: fixed
  value: 25
victim_arrival_rate: 0.1
victim_size:
  family: fixed
  value: 1.0e15
victim_tolerance:
  family: fixed
  value: 0.01
noise_arrival_rate: 0.02
noise_size:
  family: fixed
  value: 1.0e13
attacker:
  enabled: true
  theta: "9/10"
bot:
  enabled: false
pools:
  - token_x: WETH
    token_y: USDT
    reserve_x: "1000000000000000000000"
    reserve_y: "3000000000000000000000"
    fee: "30/10000"
    address: "0x1111111111111111111111111111111111111111"
"""

SIMULATE_OUTPUTS = [
    "labels.jsonl",
    "metrics.json",
    "records.jsonl",
    "swap_logs.jsonl",
    "timelines.jsonl",
]

PRICES_CSV = "token_id,usd_price,decimals,snapshot_date\nWETH,3000,18,2025-10-31\nUSDT,1,18,2025-10-31\n"


@pytest.fixture()
def sim_outputs(tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text(CONFIG_YAML)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    return config, out


class TestSimulate:
    def test_writes_all_artifacts(self, sim_outputs):
        _, out = sim_outputs
        for name in (
            "swap_logs.jsonl",
            "records.jsonl",
            "timelines.jsonl",
            "labels.jsonl",
            "metrics.json",
            "manifest.json",
        ):
            assert (out / name).exists()

    def test_same_seed_same_digests(self, sim_outputs, tmp_path):
        config, out = sim_outputs
        again = tmp_path / "sim2"
        assert main(["simulate", "--config", str(config), "--out", str(again)]) == 0
        for name in ("swap_logs.jsonl", "records.jsonl", "timelines.jsonl"):
            assert file_digest(str(out / name)) == file_digest(str(again / name))

    # simulate streams its rows through the text encoders; each file is
    # the plain dict encoding of extract_corpus's lists, labels as they are
    def test_jsonl_files_are_write_jsonl_of_to_dict(self, sim_outputs, tmp_path):
        config, out = sim_outputs
        trace, _ = run(sim_config_from_dict(yaml.safe_load(config.read_text())))
        corpus = extract_corpus(trace)
        assert corpus.swap_logs and corpus.timelines
        assert any(timeline.noisy_swaps for timeline in corpus.timelines)
        manifest = RunManifest(**json.loads((out / "manifest.json").read_text()))
        for name, rows in (
            ("swap_logs", map(swap_log_to_dict, corpus.swap_logs)),
            ("records", map(record_to_dict, corpus.records)),
            ("timelines", map(timeline_to_dict, corpus.timelines)),
            ("labels", corpus.labels),
        ):
            expected = tmp_path / f"{name}.jsonl"
            write_jsonl(str(expected), rows, manifest)
            assert (out / f"{name}.jsonl").read_bytes() == expected.read_bytes(), name

    def test_missing_config_is_validation_error(self, tmp_path):
        assert main(["simulate", "--out", str(tmp_path / "x")]) == 1

    def test_unreadable_config_is_io_error(self, tmp_path):
        assert (
            main(
                [
                    "simulate",
                    "--config",
                    str(tmp_path / "nope.yaml"),
                    "--out",
                    str(tmp_path / "x"),
                ]
            )
            == 2
        )

    @pytest.mark.parametrize(
        "section, key, value",
        [
            (None, "victim_arival_rate", 5),  # misspelt key, silently ignored before
            (None, "relayer_count", 3),  # removed key
            ("attacker", "thetaa", 1),  # misspelt nested key, a TypeError before
        ],
    )
    def test_unknown_key_is_validation_error(self, tmp_path, capsys, section, key, value):
        data = yaml.safe_load(CONFIG_YAML)
        (data if section is None else data[section])[key] = value
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump(data))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "x")]) == 1
        assert key in capsys.readouterr().err

    def test_zero_denominator_theta_is_validation_error(self, tmp_path, capsys):
        data = yaml.safe_load(CONFIG_YAML)
        data["attacker"]["theta"] = "3/0"
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump(data))
        out = tmp_path / "x"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: bad simulation config: bad fraction '3/0'")
        assert not out.exists()

    # int() took a sign or spaces around either part of "n/d"
    @pytest.mark.parametrize("theta", ["9/-10", " 9/10", "9/ 10", "9 /10", "9/+10", "+9/10"])
    def test_loose_theta_is_validation_error(self, tmp_path, capsys, theta):
        data = yaml.safe_load(CONFIG_YAML)
        data["attacker"]["theta"] = theta
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump(data))
        out = tmp_path / "x"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad simulation config: bad fraction {theta!r}: not \"n/d\"")
        assert not out.exists()

    def test_malformed_yaml_is_validation_error(self, tmp_path, capsys):
        config = tmp_path / "config.yaml"
        config.write_text("seed: [1\n")
        out = tmp_path / "x"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: config file {config} is not valid YAML")
        assert not out.exists()

    @pytest.mark.parametrize(
        "spec",
        [
            {"family": "uniform", "low": "abc", "high": 1},  # not a number
            {"family": "uniform", "low": 1},  # no high
            {"family": "lognormal", "sigma": 1, "p95": -1},  # log of a negative
            {"family": "exponential", "rate": 0},  # division by zero
            {"family": "cauchy", "x0": 1},  # unknown family
        ],
    )
    def test_bad_distribution_is_validation_error(self, tmp_path, capsys, spec):
        data = yaml.safe_load(CONFIG_YAML)
        data["victim_size"] = spec
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump(data))
        out = tmp_path / "x"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: bad simulation config:")
        assert not out.exists()

    @pytest.mark.parametrize("key", ["victim_arrival_rate", "noise_arrival_rate"])
    @pytest.mark.parametrize(
        "value",
        [
            "abc",  # a raw TypeError from Simulation.run before
            True,
            -1,  # ran as a rate of 0 and exited 0 before
            float("inf"),
            float("nan"),
        ],
    )
    def test_bad_arrival_rate_is_validation_error(self, tmp_path, capsys, key, value):
        data = yaml.safe_load(CONFIG_YAML)
        data[key] = value
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump(data))
        out = tmp_path / "x"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad simulation config: {key} must be a finite number >= 0")
        assert not out.exists()

    @pytest.mark.parametrize("key", ["horizon", "src_block_interval", "dst_block_interval"])
    def test_nan_span_is_validation_error(self, tmp_path, capsys, key):
        data = yaml.safe_load(CONFIG_YAML)
        data[key] = float("nan")
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump(data))
        assert f"{key}: .nan" in config.read_text()
        out = tmp_path / "x"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: bad simulation config: {key} must be a finite number > 0, not nan\n"
        assert not out.exists()

    def test_pool_reserve_past_256_bits_is_validation_error(self, tmp_path, capsys):
        data = yaml.safe_load(CONFIG_YAML)
        data["pools"][0]["reserve_x"] = str(2**256)
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump(data))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == "error: bad simulation config: reserve_x exceeds 256 bits\n"

    def test_swap_past_256_bits_is_validation_error(self, tmp_path, capsys):
        # a victim_size sample past 2**256 ended in a raw Overflow traceback
        data = yaml.safe_load(FEES_YAML)
        data["victim_size"] = {"family": "lognormal", "mu": 190, "sigma": 1.0}
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump(data))
        out = tmp_path / "x"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {config}: a simulated swap overflows: updated reserve exceeds 256 bits\n"
        )
        assert not out.exists()

    # an int fee ended in a raw AttributeError; " 3/100" and "+3/100" were read
    @pytest.mark.parametrize("fee", [0, " 3/100", "3/100 ", "+3/100"])
    def test_bad_pool_fee_is_validation_error(self, tmp_path, capsys, fee):
        data = yaml.safe_load(CONFIG_YAML)
        data["pools"][0]["fee"] = fee
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump(data))
        out = tmp_path / "x"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: bad simulation config: ")
        assert not out.exists()

    def test_jsonl_header_is_manifest_digest(self, sim_outputs):
        _, out = sim_outputs
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["output_paths"] == SIMULATE_OUTPUTS
        canonical = json.dumps(manifest, sort_keys=True, default=str).encode()
        expected = f"# manifest-digest {hashlib.sha256(canonical).hexdigest()}"
        for name in ("swap_logs.jsonl", "records.jsonl", "timelines.jsonl", "labels.jsonl"):
            assert (out / name).read_text().splitlines()[0] == expected

    def test_rerun_lists_only_its_own_outputs(self, sim_outputs):
        config, out = sim_outputs
        first = (out / "manifest.json").read_text()
        (out / "notes.txt").touch()
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "manifest.json").read_text() == first

    def test_config_env_var_is_ignored(self, tmp_path, monkeypatch):
        good = tmp_path / "good.yaml"
        good.write_text(CONFIG_YAML)
        monkeypatch.setenv("SANDWICHLAB_" + "CONFIG", str(good))
        out = tmp_path / "env-sim"
        assert (
            main(["simulate", "--config", str(tmp_path / "bogus.yaml"), "--out", str(out)])
            == 2
        )
        assert not out.exists()


class TestDetect:
    def test_pipeline_over_simulated_corpus(self, sim_outputs, tmp_path):
        _, out = sim_outputs
        det = tmp_path / "det"
        rc = main(
            [
                "detect",
                "--records",
                str(out / "records.jsonl"),
                "--logs",
                str(out / "swap_logs.jsonl"),
                "--out",
                str(det),
            ]
        )
        assert rc == 0
        assert (det / "pairs.jsonl").exists()

    def test_empty_logs_exit_zero(self, sim_outputs, tmp_path):
        _, out = sim_outputs
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        det = tmp_path / "det-empty"
        rc = main(
            [
                "detect",
                "--records",
                str(out / "records.jsonl"),
                "--logs",
                str(empty),
                "--out",
                str(det),
            ]
        )
        assert rc == 0
        body = [
            line
            for line in (det / "pairs.jsonl").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert body == []

    def detect_with_config(self, sim_outputs, tmp_path, config_text):
        _, out = sim_outputs
        config = tmp_path / "detect.yaml"
        config.write_text(config_text)
        det = tmp_path / "det-config"
        rc = main(
            [
                "detect",
                "--records",
                str(out / "records.jsonl"),
                "--logs",
                str(out / "swap_logs.jsonl"),
                "--config",
                str(config),
                "--out",
                str(det),
            ]
        )
        return rc, det

    def test_unknown_config_key_is_validation_error(self, sim_outputs, tmp_path, capsys):
        rc, det = self.detect_with_config(
            sim_outputs, tmp_path, "num_block: 200\nband_low: 1/2\n"
        )
        assert rc == 1
        assert "num_block" in capsys.readouterr().err
        assert not det.exists()

    def test_malformed_yaml_is_validation_error(self, sim_outputs, tmp_path, capsys):
        rc, det = self.detect_with_config(sim_outputs, tmp_path, "num_blocks: [1\n")
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config file ") and "is not valid YAML" in err
        assert "Traceback" not in err
        assert not det.exists()

    def test_zero_denominator_band_is_validation_error(self, sim_outputs, tmp_path, capsys):
        rc, det = self.detect_with_config(sim_outputs, tmp_path, "band_low: 1/0\n")
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: bad detection config: bad fraction '1/0'")
        assert not det.exists()

    @pytest.mark.parametrize("band", ["9/-10", "' 9/10'", "9/ 10", "+9/10"])
    def test_loose_band_is_validation_error(self, sim_outputs, tmp_path, capsys, band):
        rc, det = self.detect_with_config(sim_outputs, tmp_path, f"band_low: {band}\n")
        assert rc == 1
        value = band.strip("'")
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad detection config: bad fraction {value!r}: not \"n/d\"")
        assert not det.exists()

    def test_full_config_is_applied(self, sim_outputs, tmp_path):
        text = (
            "num_blocks: 150\n"
            "band_low: 4/5\n"
            "band_high: 6/5\n"
            "max_interval: 50\n"
            "stablecoins: [usdt, usdc]\n"
        )
        assert detection_config_from_dict(yaml.safe_load(text)) == DetectionConfig(
            num_blocks=150,
            band_low=Fraction(4, 5),
            band_high=Fraction(6, 5),
            max_interval=50.0,
            stablecoin_set=frozenset({"USDT", "USDC"}),
        )
        rc, det = self.detect_with_config(sim_outputs, tmp_path, text)
        assert rc == 0
        config = json.loads((det / "manifest.json").read_text())["config"]
        assert config == {"num_blocks": 150, "max_interval": 50.0}

    @pytest.mark.parametrize(
        "key, value",
        [
            ("num_blocks", 1.5),  # ran as 1 before
            ("num_blocks", True),  # ran as 1 before
            ("num_blocks", "100"),
            ("max_interval", float("nan")),  # switched the prefilter off before
            ("max_interval", float("inf")),  # wrote Infinity into manifest.json before
            ("max_interval", -1),  # dropped every record before
            ("max_interval", True),
            ("max_interval", "100"),
        ],
    )
    def test_bad_number_is_validation_error(self, sim_outputs, tmp_path, capsys, key, value):
        with pytest.raises(ValidationFailure, match=key):
            detection_config_from_dict({key: value})
        rc, det = self.detect_with_config(sim_outputs, tmp_path, yaml.safe_dump({key: value}))
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: bad detection config: {key} must be")
        assert not det.exists()

    def test_zero_max_interval_is_accepted(self):
        assert detection_config_from_dict({"max_interval": 0}).max_interval == 0.0

    @pytest.mark.parametrize("value", ["usdt", 5, {"usdt": 1}, ["usdt", 5]])
    def test_stablecoins_must_be_list_of_strings(self, sim_outputs, tmp_path, capsys, value):
        with pytest.raises(ValidationFailure, match="stablecoins"):
            detection_config_from_dict({"stablecoins": value})
        rc, det = self.detect_with_config(
            sim_outputs, tmp_path, yaml.safe_dump({"stablecoins": value})
        )
        assert rc == 1
        assert "stablecoins" in capsys.readouterr().err
        assert not det.exists()

    def test_decreasing_timestamp_is_validation_error(self, sim_outputs, tmp_path, capsys):
        _, out = sim_outputs
        rows = [
            json.loads(line)
            for line in (out / "swap_logs.jsonl").read_text().splitlines()
            if not line.startswith("#")
        ]
        first = rows[0]
        later = next(row for row in rows if row["timestamp"] > first["timestamp"])
        assert later["pool_address"] == first["pool_address"]
        first["timestamp"], later["timestamp"] = later["timestamp"], first["timestamp"]
        logs = tmp_path / "swap_logs.jsonl"
        logs.write_text("".join(json.dumps(row) + "\n" for row in rows))
        det = tmp_path / "det"
        argv = ["detect", "--records", str(out / "records.jsonl"), "--logs", str(logs)]
        assert main([*argv, "--out", str(det)]) == 1
        err = capsys.readouterr().err
        assert "timestamp" in err and first["pool_address"] in err
        assert not det.exists()

    def test_duplicate_position_is_validation_error(self, sim_outputs, tmp_path, capsys):
        _, out = sim_outputs
        lines = (out / "swap_logs.jsonl").read_text().splitlines(keepends=True)
        first = json.loads(lines[1])
        twin = {**first, "tx_hash": "0x" + "ee" * 32, "direction": "y_for_x"}
        logs = tmp_path / "swap_logs.jsonl"
        logs.write_text("".join(lines) + json.dumps(twin) + "\n")
        det = tmp_path / "det"
        argv = ["detect", "--records", str(out / "records.jsonl"), "--logs", str(logs)]
        assert main([*argv, "--out", str(det)]) == 1
        position = (first["block_number"], first["log_index"])
        assert capsys.readouterr().err == (
            f"error: {logs}: pool {first['pool_address']}: two logs at {position}\n"
        )
        assert not det.exists()


class TestParams:
    def test_direct_mode_prints_headline_numbers(self, capsys):
        rc = main(
            [
                "params",
                "--q",
                "0.57",
                "--p",
                "0.68",
                "--r-plus",
                "0.045",
                "--r-minus",
                "-0.047",
            ]
        )
        captured = capsys.readouterr().out
        assert rc == 0
        assert "E(r)      = 3.2341%" in captured
        assert "success   = 86.24%" in captured

    def test_timeline_mode(self, sim_outputs, capsys):
        _, out = sim_outputs
        rc = main(["params", "--timelines", str(out / "timelines.jsonl")])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "q         =" in captured
        assert "E(r)" in captured

    def test_missing_arguments_is_validation_error(self):
        assert main(["params"]) == 1

    # "-5", "0" and "1" were read as tolerances
    @pytest.mark.parametrize("tolerance", ["-5", "0", "1", "3/2", " 1/100"])
    def test_bad_victim_tolerance_names_file_and_line(self, sim_outputs, tmp_path, capsys, tolerance):
        _, sim = sim_outputs
        header, first, *rest = (sim / "timelines.jsonl").read_text().splitlines()
        row = json.loads(first)
        row["victim_tolerance"] = tolerance
        bad = tmp_path / "timelines.jsonl"
        bad.write_text("\n".join([header, json.dumps(row), *rest]) + "\n")
        assert main(["params", "--timelines", str(bad)]) == 1
        assert re.match(rf"error: {re.escape(str(bad))}:2: ValueError: ", capsys.readouterr().err)

    @pytest.mark.parametrize("flag, value", [("--theta", "3/0"), ("--percentile", "1/0"), ("--theta", "x")])
    def test_bad_fraction_flag_is_validation_error(self, sim_outputs, capsys, flag, value):
        _, out = sim_outputs
        assert main(["params", "--timelines", str(out / "timelines.jsonl"), flag, value]) == 1
        assert capsys.readouterr().err.startswith(f"error: bad fraction '{value}'")

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--theta", "0", "--theta must be in (0, 1]"),
            ("--theta", "2", "--theta must be in (0, 1]"),
            ("--percentile", "0", "--percentile must be in (0, 100]"),
            ("--percentile", "101", "--percentile must be in (0, 100]"),
        ],
    )
    def test_flag_out_of_range_is_validation_error(
        self, sim_outputs, capsys, flag, value, message
    ):
        _, out = sim_outputs
        assert main(["params", "--timelines", str(out / "timelines.jsonl"), flag, value]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    # each was ignored, and q, p and the rates came from the timelines
    @pytest.mark.parametrize(
        "argv", [["--q", "1/2"], ["--p", "1/2"], ["--r-plus", "1/100"], ["--r-minus=-1/100"]]
    )
    def test_direct_flag_with_timelines_is_validation_error(self, sim_outputs, capsys, argv):
        _, out = sim_outputs
        assert main(["params", "--timelines", str(out / "timelines.jsonl"), *argv]) == 1
        flag = argv[0].split("=")[0]
        assert capsys.readouterr().err == (
            f"error: {flag} cannot be combined with --timelines, which estimates them\n"
        )

    # the timelines file was decoded first, and its error was the one reported
    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--theta", "2", "--theta must be in (0, 1]"),
            ("--percentile", "1/0", "bad fraction '1/0'"),
        ],
    )
    def test_flags_are_checked_before_timelines_are_read(
        self, tmp_path, capsys, flag, value, message
    ):
        bad = tmp_path / "timelines.jsonl"
        bad.write_text("not json\n")
        assert main(["params", "--timelines", str(bad), flag, value]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--q", "2", "--p", "0.5"], "bad model parameters: q out of [0,1]"),
            (["--q", "0.5", "--p", "-1"], "bad model parameters: p out of [0,1]"),
            (["--q", "0.5", "--p", "0.5", "--r-plus", "-1"], "bad model parameters: r_plus"),
            (["--q", "0.5"], "p is unobservable but q < 1"),
        ],
    )
    def test_direct_mode_bad_values_are_validation_errors(self, capsys, argv, message):
        rates = {"--r-plus": "0.045", "--r-minus": "-0.047"}
        for flag, value in zip(argv[::2], argv[1::2]):
            rates.pop(flag, None)
        extra = [item for pair in rates.items() for item in pair]
        assert main(["params", *argv, *extra]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    # each was ignored, even out of range, and the direct numbers printed
    @pytest.mark.parametrize(
        "argv, flags",
        [
            (["--theta", "5"], "--theta"),
            (["--percentile", "500"], "--percentile"),
            (["--theta", "1", "--percentile", "95"], "--theta, --percentile"),
        ],
        ids=["theta", "percentile", "both"],
    )
    def test_estimation_flag_in_direct_mode_is_validation_error(self, capsys, argv, flags):
        direct = ["--q", "0.5", "--p", "0.5", "--r-plus", "1/100", "--r-minus=-1/100"]
        assert main(["params", *direct, *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flags} can only be used with --timelines\n"

    # r- read as -3.0000% from "3/-100"
    @pytest.mark.parametrize(
        "flag, value",
        [("--r-minus", "3/-100"), ("--r-plus", " 1/100"), ("--q", "1/2 "), ("--p", "1 /2")],
    )
    def test_loose_fraction_flag_is_validation_error(self, capsys, flag, value):
        flags = {"--q": "1/2", "--p": "1/2", "--r-plus": "1/100", "--r-minus": "-3/100"}
        flags[flag] = value
        # --flag=value: argparse takes "-3/100" after a space for an option
        assert main(["params", *[f"{name}={text}" for name, text in flags.items()]]) == 1
        reason = 'not "n/d" in ASCII digits, a minus sign allowed before n'
        assert capsys.readouterr().err == f"error: bad fraction {value!r}: {reason}\n"

    def test_documented_fraction_forms_are_read(self, capsys):
        argv = ["params", "--q", "1/2", "--p", "0.5", "--r-plus", "1", "--r-minus=-3/100"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "r+        = 100.0000%" in out and "r-        = -3.0000%" in out

    # Fraction() read " 1.5 " as 3/2, "1_0.5" as 21/2, "+2" as 2 and the
    # Arabic-Indic digit three as 3
    @pytest.mark.parametrize("value", [" 1.5 ", "1_0.5", "+2", "\u0663", ".5", "1.", "1e-5", ""])
    def test_loose_decimal_flag_is_validation_error(self, capsys, value):
        argv = ["params", "--q", "1/2", "--p", "1/2", "--r-plus", value, "--r-minus=-3/100"]
        assert main(argv) == 1
        reason = "not a decimal in ASCII digits, a minus sign allowed in front"
        assert capsys.readouterr().err == f"error: bad fraction {value!r}: {reason}\n"

    def test_yaml_float_reads_through_its_repr(self):
        # YAML reads 1.0e-5 as a float, whose str() is "1e-05"
        config = sim_config_from_dict({**yaml.safe_load(CONFIG_YAML), "attacker": {"theta": 1.0e-5}})
        assert config.attacker.theta == Fraction(1, 100_000)

    @pytest.mark.parametrize("flag", ["--r-minus", "--q"])
    def test_negative_ratio_after_a_space_is_a_value(self, capsys, flag):
        # argparse took "-3/100" for an option and exited 2, the I/O code
        flags = {"--q": "1/2", "--p": "1/2", "--r-plus": "1/100", "--r-minus": "-3/100"}
        flags[flag] = "-3/100"
        code = main(["params", *[item for pair in flags.items() for item in pair]])
        captured = capsys.readouterr()
        if flag == "--r-minus":
            assert code == 0
            assert "r-        = -3.0000%" in captured.out
        else:
            assert code == 1
            assert captured.err == "error: bad model parameters: q out of [0,1]: -3/100\n"

    def test_zero_noise_amount_is_validation_error(self, sim_outputs, tmp_path, capsys):
        _, out = sim_outputs
        rows = [
            line
            for line in (out / "timelines.jsonl").read_text().splitlines()
            if not line.startswith("#")
        ]
        row = json.loads(rows[0])
        row["noisy_swaps"].append(["x_for_y", "0"])
        timelines = tmp_path / "timelines.jsonl"
        timelines.write_text("\n".join([json.dumps(row), *rows[1:]]) + "\n")
        assert main(["params", "--timelines", str(timelines)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "noisy_swaps" in err


    def test_replay_overflow_names_file(self, tmp_path, capsys):
        # the replay raised a raw Overflow traceback
        huge = MAX_AMOUNT - 9
        pool = Pool(token_x="X", token_y="Y", reserve_x=huge, reserve_y=huge)
        timeline = PoolTimeline(
            pool=pool,
            noisy_swaps=((Direction.Y_FOR_X, 2**255),),
            victim=SwapRequest(Direction.X_FOR_Y, 5, min_out=1),
            victim_tolerance=Fraction(1, 100),
        )
        path = tmp_path / "timelines.jsonl"
        write_jsonl(str(path), [timeline_to_dict(timeline)])
        assert main(["params", "--timelines", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: replaying a timeline overflows: "
            "updated reserve exceeds 256 bits\n"
        )


class TestAnalyze:
    def test_full_chain(self, sim_outputs, tmp_path):
        _, out = sim_outputs
        det = tmp_path / "det"
        main(
            [
                "detect",
                "--records",
                str(out / "records.jsonl"),
                "--logs",
                str(out / "swap_logs.jsonl"),
                "--out",
                str(det),
            ]
        )
        prices = tmp_path / "prices.csv"
        prices.write_text(PRICES_CSV)
        rep = tmp_path / "rep"
        rc = main(
            [
                "analyze",
                "--pairs",
                str(det / "pairs.jsonl"),
                "--prices",
                str(prices),
                "--records",
                str(out / "records.jsonl"),
                "--out",
                str(rep),
            ]
        )
        assert rc == 0
        report = json.loads((rep / "report.json").read_text())
        assert report["total_pairs"] == (
            report["single_chain_pairs"] + report["cross_chain_pairs"]
        )
        assert (rep / "pool_counts.csv").exists()
        assert (rep / "chain_pairs.csv").exists()


    @pytest.mark.parametrize(
        "csv_text, line, message",
        [
            (PRICES_CSV.replace("USDT,1,", "USDT,one,"), 3, "ValueError: usd_price must be"),
            (PRICES_CSV.replace("WETH,3000,", "WETH,sNaN,"), 2, "ValueError: usd_price must be"),
            (PRICES_CSV.replace("token_id", "token"), 2, "KeyError: 'token_id'"),
            (PRICES_CSV.replace("USDT,1,18,", "USDT,1,six,"), 3, "ValueError: invalid literal"),
            (PRICES_CSV.replace("WETH,3000,18,", "WETH,3000,1000000000,"), 2, "ValueError: decimals"),
            (PRICES_CSV + "DAI\n", 4, "TypeError: "),
            # the later row won
            (PRICES_CSV + "WETH,2900,18,\n", 4, "ValueError: token_id 'WETH' is priced twice"),
            # a token named '' was priced
            (PRICES_CSV + ",5,18,2024-01-01\n", 4, "ValueError: empty token_id"),
        ],
    )
    def test_bad_price_row_names_file_and_line(
        self, sim_outputs, tmp_path, capsys, csv_text, line, message
    ):
        _, out = sim_outputs
        det = tmp_path / "det"
        argv = ["detect", "--records", str(out / "records.jsonl"), "--logs"]
        assert main([*argv, str(out / "swap_logs.jsonl"), "--out", str(det)]) == 0
        prices = tmp_path / "prices.csv"
        prices.write_text(csv_text)
        rep = tmp_path / "rep"
        argv = ["analyze", "--pairs", str(det / "pairs.jsonl"), "--prices", str(prices)]
        capsys.readouterr()
        assert main([*argv, "--out", str(rep)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {prices}:{line}: {message}")
        with pytest.raises(MalformedData):
            PriceTable.from_csv(str(prices))
        assert not rep.exists()

    def test_detect_horizon_sets_back_position_bins(self, tmp_path):
        from sandwichlab.amm import Direction
        from sandwichlab.detector import CrossChainTx, SwapLog, VictimHop
        from sandwichlab.ingest import record_to_dict, swap_log_to_dict, write_jsonl

        pool = "0x" + "11" * 20

        def log(block, direction):
            return SwapLog(
                tx_hash=f"0x{block:064x}",
                block_number=block,
                log_index=0,
                pool_address=pool,
                chain_id=56,
                direction=direction,
                token_in_amount=10**18,
                token_out_amount=10**18,
                sender="0xa",
                recipient="0xa",
                gas_price=10**9,
                timestamp=3.0 * block,
            )

        # A sandwich whose back-run is 150 blocks after its victim.
        front, victim = log(99, Direction.X_FOR_Y), log(100, Direction.X_FOR_Y)
        back = log(250, Direction.Y_FOR_X)
        record = CrossChainTx(
            record_id="r1",
            src_tx_hash="0x" + "01" * 32,
            src_chain_id=1,
            src_block_number=1,
            src_timestamp=victim.timestamp - 10,
            dst_tx_hash=victim.tx_hash,
            dst_chain_id=56,
            dst_block_number=victim.block_number,
            dst_timestamp=victim.timestamp,
            dst_gas_price=victim.gas_price,
            hops=(
                VictimHop(
                    pool_address=pool,
                    token_in="WETH",
                    token_out="USDT",
                    direction=victim.direction,
                    amount_in=victim.token_in_amount,
                    amount_out=victim.token_out_amount,
                    min_return=0,
                ),
            ),
        )
        records, logs = tmp_path / "records.jsonl", tmp_path / "swap_logs.jsonl"
        write_jsonl(str(records), [record_to_dict(record)])
        write_jsonl(str(logs), [swap_log_to_dict(x) for x in (front, victim, back)])
        prices = tmp_path / "prices.csv"
        prices.write_text(PRICES_CSV)
        config = tmp_path / "detect.yaml"
        config.write_text("num_blocks: 200\n")
        det = tmp_path / "det"
        detect = ["detect", "--records", str(records), "--logs", str(logs)]
        assert main([*detect, "--config", str(config), "--out", str(det)]) == 0
        pairs = det / "pairs.jsonl"
        analyze = ["analyze", "--pairs", str(pairs), "--prices", str(prices)]

        assert main([*analyze, "--out", str(tmp_path / "rep")]) == 0
        report = json.loads((tmp_path / "rep" / "report.json").read_text())
        assert report["total_pairs"] == 1
        assert report["back_position_hist"] == [0] * 7 + [1, 0, 0]  # 150/200
        manifest = json.loads((tmp_path / "rep" / "manifest.json").read_text())
        assert set(manifest["input_digests"]) == {"pairs", "prices"}

        # A manifest that is not the one detect wrote is refused.
        detect_manifest = json.loads((det / "manifest.json").read_text())
        detect_manifest["config"]["num_blocks"] = 100
        (det / "manifest.json").write_text(json.dumps(detect_manifest))
        assert main([*analyze, "--out", str(tmp_path / "bad")]) == 1

        # Without a manifest beside the pairs, the default 100 blocks.
        (det / "manifest.json").unlink()
        assert main([*analyze, "--out", str(tmp_path / "default")]) == 0
        report = json.loads((tmp_path / "default" / "report.json").read_text())
        assert report["back_position_hist"] == [0] * 9 + [1]  # 150/100, clamped


class TestDetectStreams:
    """detect writes each record's pairs as it finds them and publishes
    pairs.jsonl only once the last record is matched."""

    def test_failure_midway_leaves_no_pairs_file(self, sim_outputs, tmp_path, monkeypatch):
        _, out = sim_outputs
        found = []

        def fails_on_second_record(record, logs_by_pool, cfg):
            if found:
                raise RuntimeError("matcher failed")
            found.append(detect_pairs(record, logs_by_pool, cfg))
            return found[0]

        from sandwichlab import detector

        monkeypatch.setattr(detector, "detect_pairs", fails_on_second_record)
        det = tmp_path / "det"
        argv = ["detect", "--records", str(out / "records.jsonl"), "--logs"]
        with pytest.raises(RuntimeError, match="matcher failed"):
            main([*argv, str(out / "swap_logs.jsonl"), "--out", str(det)])
        assert found[0]  # the first record's pairs went to the writer
        assert list(det.iterdir()) == []

    def test_peak_heap_does_not_grow_with_pairs(self, tmp_path):
        """R and 4R records that share one victim and its window of 20
        fronts and 20 backs, so each record has 20 pairs and the logs
        stay the same. The traced peak of an in-process detect may grow
        from R to 4R records only by what the records themselves cost,
        measured on the same records with no front in their window.
        Calibration, R = 250 (5,000 against 20,000 pairs): the records
        alone grow the peak by 1.08 MB; a detect that held every pair
        grew it by 3.00 MB, a streaming one by 1.08 MB."""
        import tracemalloc

        from sandwichlab.detector import CrossChainTx, VictimHop

        def log(block, index, direction):
            return SwapLog(
                tx_hash=f"0x{block:032x}{index:032x}",
                block_number=block,
                log_index=index,
                pool_address="0x" + "11" * 20,
                chain_id=56,
                direction=direction,
                token_in_amount=10**18,
                token_out_amount=10**18,
                sender="0x" + "aa" * 20,
                recipient="0x" + "aa" * 20,
                gas_price=10**9,
                timestamp=3.0 * block,
            )

        fronts = [log(99, index, Direction.X_FOR_Y) for index in range(20)]
        victim = log(100, 0, Direction.X_FOR_Y)
        backs = [log(101, index, Direction.Y_FOR_X) for index in range(20)]
        logs = tmp_path / "logs.jsonl"
        write_jsonl(str(logs), map(swap_log_to_dict, [*fronts, victim, *backs]))
        hop = VictimHop(victim.pool_address, "WETH", "USDT", Direction.X_FOR_Y, 1000, 1000, 0)

        def peak(count: int, src_timestamp: float, run: str) -> int:
            record = CrossChainTx(
                "r", "0x" + "01" * 32, 1, 1, src_timestamp,
                victim.tx_hash, 56, 100, victim.timestamp, 10**9, (hop,),
            )
            records = tmp_path / f"{run}.jsonl"
            rows = (record_to_dict(replace(record, record_id=f"r{i}")) for i in range(count))
            write_jsonl(str(records), rows)
            argv = ["detect", "--records", str(records), "--logs", str(logs)]
            tracemalloc.start()
            try:
                assert main([*argv, "--out", str(tmp_path / run)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        records = 250
        with_pairs, without = 3.0 * 99 - 1, 3.0 * 100  # before and after the fronts
        peak(records, with_pairs, "warm-up")  # one-time imports and caches
        pairs_growth = peak(4 * records, with_pairs, "large") - peak(records, with_pairs, "small")
        records_growth = peak(4 * records, without, "large-bare") - peak(records, without, "small-bare")
        lines = (tmp_path / "large" / "pairs.jsonl").read_text().splitlines()
        assert len(lines) == 1 + 4 * records * 20
        assert pairs_growth <= 1.25 * records_growth, (records_growth, pairs_growth)


class TestAnalyzeStreams:
    """analyze reads the price table, then the records, then pairs.jsonl
    one row at a time, and writes nothing until the last row is read."""

    @pytest.fixture()
    def detected(self, sim_outputs, tmp_path):
        _, out = sim_outputs
        det = tmp_path / "det"
        argv = ["detect", "--records", str(out / "records.jsonl"), "--logs"]
        assert main([*argv, str(out / "swap_logs.jsonl"), "--out", str(det)]) == 0
        prices = tmp_path / "prices.csv"
        prices.write_text(PRICES_CSV)
        return det / "pairs.jsonl", prices

    @staticmethod
    def break_last_row(pairs: Path) -> int:
        """Give the last row of pairs a string block_number; its line."""
        lines = pairs.read_text().splitlines()
        assert len(lines) > 2  # the header and at least two pairs
        row = json.loads(lines[-1])
        row["back"]["block_number"] = str(row["back"]["block_number"])
        pairs.write_text("\n".join([*lines[:-1], json.dumps(row)]) + "\n")
        return len(lines)

    def test_bad_last_row_leaves_no_report(self, detected, tmp_path, capsys):
        pairs, prices = detected
        line = self.break_last_row(pairs)
        rep = tmp_path / "rep"
        capsys.readouterr()
        argv = ["analyze", "--pairs", str(pairs), "--prices", str(prices), "--out", str(rep)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {pairs}:{line}: TypeError: block_number must be")
        assert not (rep / "report.json").exists()

    # 0 ended analyze in a ZeroDivisionError traceback, -5 reported a profit
    @pytest.mark.parametrize("amount", [0, -5])
    def test_bad_front_amount_names_file_and_line(self, detected, tmp_path, capsys, amount):
        pairs, prices = detected
        header, first, *rest = pairs.read_text().splitlines()
        row = json.loads(first)
        row["front"]["token_in_amount"] = amount
        pairs.write_text("\n".join([header, json.dumps(row), *rest]) + "\n")
        rep = tmp_path / "rep"
        capsys.readouterr()
        argv = ["analyze", "--pairs", str(pairs), "--prices", str(prices), "--out", str(rep)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {pairs}:2: ValueError: token_in_amount must be >= 1, got {amount}"
        )
        assert not (rep / "report.json").exists()

    def test_price_table_error_comes_first(self, detected, tmp_path, capsys):
        pairs, prices = detected
        self.break_last_row(pairs)
        prices.write_text(PRICES_CSV.replace("USDT,1,", "USDT,one,"))
        capsys.readouterr()
        argv = ["analyze", "--pairs", str(pairs), "--prices", str(prices)]
        assert main([*argv, "--out", str(tmp_path / "rep")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {prices}:3: ValueError: usd_price")

    def test_records_are_read_between_price_table_and_pairs(
        self, detected, sim_outputs, tmp_path, capsys
    ):
        pairs, prices = detected
        _, sim = sim_outputs
        self.break_last_row(pairs)
        header, *rows = (sim / "records.jsonl").read_text().splitlines()
        records = tmp_path / "records.jsonl"
        records.write_text("\n".join([header, "not json", *rows]) + "\n")
        argv = ["analyze", "--pairs", str(pairs), "--prices", str(prices), "--records", str(records)]
        capsys.readouterr()
        assert main([*argv, "--out", str(tmp_path / "rep")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {records}:2: invalid JSON")
        prices.write_text(PRICES_CSV.replace("USDT,1,", "USDT,one,"))
        assert main([*argv, "--out", str(tmp_path / "rep")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {prices}:3: ValueError: usd_price")
        assert not (tmp_path / "rep").exists()

    def test_peak_heap_does_not_grow_with_pairs(self, tmp_path):
        """N and 4N rows that embed the same six swap logs: the traced
        peak of an in-process analyze may grow by at most a quarter from
        N to 4N. About 2 MB of the peak is fixed (file_digest reads 1 MB
        chunks); an analyze that held every pair grew it by about 75%
        from 1,000 to 4,000 rows, and a streaming one by under 1%."""
        import tracemalloc

        from sandwichlab.amm import Direction
        from sandwichlab.detector import Classification, SandwichPair

        logs = [
            SwapLog(
                tx_hash=f"0x{i:064x}",
                block_number=100 + i,
                log_index=0,
                pool_address="0x" + "11" * 20,
                chain_id=56,
                direction=Direction.X_FOR_Y if i < 3 else Direction.Y_FOR_X,
                token_in_amount=10**18 + i,
                token_out_amount=10**18 - i,
                sender="0x" + "aa" * 20,
                recipient="0x" + "aa" * 20,
                gas_price=10**9 * i,
                timestamp=300.0 + 3 * i,
            )
            for i in range(6)
        ]
        prices = tmp_path / "prices.csv"
        prices.write_text(PRICES_CSV)

        def peak(rows: int, run: str) -> int:
            pairs = tmp_path / run / "pairs.jsonl"  # no manifest beside it
            pairs.parent.mkdir()
            write_jsonl(
                str(pairs),
                (
                    pair_to_dict(
                        SandwichPair(
                            record_id=f"r{i}",
                            pool_address=logs[0].pool_address,
                            front=logs[i % 2],
                            victim=logs[2],
                            back=logs[3 + i % 3],
                            classification=Classification.CROSS_CHAIN,
                            token_in="WETH",
                            front_window_start_block=100,
                        )
                    )
                    for i in range(rows)
                ),
            )
            argv = ["analyze", "--pairs", str(pairs), "--prices", str(prices)]
            tracemalloc.start()
            try:
                assert main([*argv, "--out", str(pairs.parent / "rep")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        rows = 1_000
        peak(rows, "warm-up")  # one-time imports and caches
        small, large = peak(rows, "small"), peak(4 * rows, "large")
        assert large <= 1.25 * small, (small, large)


class TestParamsStreams:
    """params replays each timeline as it is read and keeps only the
    counts and the rate samples."""

    def test_peak_heap_does_not_grow_with_timelines(self, tmp_path):
        """N and 4N timelines, each with a window of 50 noise swaps. Only
        the first is attackable, so one rate sample is kept whatever N
        is. The traced peak of an in-process params may grow by at most a
        quarter from N to 4N. Calibration, N = 200: a params that decoded
        every timeline first grew it 4.2-fold (1.09 MB to 4.52 MB), a
        streaming one by 6% (67 KB to 71 KB)."""
        import tracemalloc

        from sandwichlab.amm import min_out_from_tolerance, quote_output

        pool = Pool("WETH", "USDT", 10**21, 3 * 10**21, Fraction(30, 10_000), "0x" + "11" * 20)
        amount = 10**18
        quote = quote_output(pool, Direction.X_FOR_Y, amount)
        noise = tuple((Direction(("x_for_y", "y_for_x")[i % 2]), 10**16 + i) for i in range(50))

        def timeline(min_out: int) -> PoolTimeline:
            victim = SwapRequest(Direction.X_FOR_Y, amount, min_out, "0x" + "aa" * 20, "0x" + "aa" * 20)
            return PoolTimeline(pool, noise, victim, Fraction(1, 100))

        attackable = timeline(min_out_from_tolerance(quote, Fraction(1, 100)))
        no_room = timeline(quote)  # no buffer above min_out: no front-run
        assert attack.optimal_frontrun_for_timeline(no_room) == 0

        def peak(count: int, run: str) -> int:
            path = tmp_path / f"{run}.jsonl"
            write_jsonl(str(path), map(timeline_to_dict, [attackable, *[no_room] * (count - 1)]))
            tracemalloc.start()
            try:
                assert main(["params", "--timelines", str(path)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        count = 200
        peak(count, "warm-up")  # one-time imports and caches
        small, large = peak(count, "small"), peak(4 * count, "large")
        assert large <= 1.25 * small, (small, large)


class TestPairsContract:
    """detect and analyze against their specs: pairs.jsonl is
    write_jsonl(map(pair_to_dict)) of the pairs found in process, and
    report.json prices the pairs through dataclasses.replace."""

    def test_detect_and_analyze_equal_their_specs(self, tmp_path):
        trace, _ = run(small_sim_config())
        corpus = extract_corpus(trace)
        sim = tmp_path / "sim"
        sim.mkdir()
        write_jsonl(str(sim / "records.jsonl"), map(record_to_dict, corpus.records))
        write_jsonl(str(sim / "swap_logs.jsonl"), map(swap_log_to_dict, corpus.swap_logs))
        det = tmp_path / "det"
        argv = ["detect", "--records", str(sim / "records.jsonl")]
        assert main([*argv, "--logs", str(sim / "swap_logs.jsonl"), "--out", str(det)]) == 0

        cfg = DetectionConfig()
        logs_by_pool = group_logs(corpus.swap_logs)
        pairs = [
            pair
            for record in prefilter(corpus.records, cfg)
            for pair in detect_pairs(record, logs_by_pool, cfg)
        ]
        # many pairs share a victim, so the writer's log cache is exercised
        assert len({pair.victim for pair in pairs}) < len(pairs)
        manifest = RunManifest(**json.loads((det / "manifest.json").read_text()))
        expected = tmp_path / "expected.jsonl"
        write_jsonl(str(expected), map(pair_to_dict, pairs), manifest)
        assert (det / "pairs.jsonl").read_bytes() == expected.read_bytes()

        prices = tmp_path / "prices.csv"
        prices.write_text(PRICES_CSV.replace("USDT,1,18,2025-10-31\n", ""))
        rep = tmp_path / "rep"
        argv = ["analyze", "--pairs", str(det / "pairs.jsonl"), "--prices", str(prices)]
        assert main([*argv, "--records", str(sim / "records.jsonl"), "--out", str(rep)]) == 0
        enriched, missing = classify_and_price_oracle(pairs, PriceTable.from_csv(str(prices)))
        assert missing == {"USDT"} and any(pair.profit_usd is not None for pair in enriched)
        report = aggregate(enriched, corpus.records, cfg.num_blocks)
        report_dict = {**asdict(report), "missing_price_tokens": sorted(missing)}
        text = json.dumps(report_dict, indent=2, sort_keys=True, default=str)
        assert (rep / "report.json").read_text() == text


class TestErrorBoundary:
    def test_internal_value_error_is_not_reported_as_validation_error(
        self, sim_outputs, monkeypatch, capsys
    ):
        # A ValueError from inside a stage is a bug, not bad input: it
        # must surface as an exception, not as "error: ..." and exit 1.
        def broken(*args, **kwargs):
            raise ValueError("internal failure")

        monkeypatch.setattr(attack, "noise_params_and_rates", broken)
        _, out = sim_outputs
        with pytest.raises(ValueError, match="internal failure"):
            main(["params", "--timelines", str(out / "timelines.jsonl")])
        assert "error:" not in capsys.readouterr().err


class TestSelftest:
    def test_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3
        assert "FAIL" not in out

    def test_runs_from_src_alone_and_is_not_loaded_by_the_cli(self, tmp_path):
        # from an empty directory with only src importable: no tests/
        code = (
            "import sys, sandwichlab.cli as cli\n"
            "assert 'sandwichlab.selftest' not in sys.modules\n"
            "sys.exit(cli.main(['selftest']))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        argv = [sys.executable, "-c", code]
        done = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.count("PASS  ") == 3


class TestMalformedRows:
    @pytest.mark.parametrize("bad_row", ['{"bad": 1}', "not json", "[1]"])
    @pytest.mark.parametrize("name", ["records", "swap_logs", "timelines", "pairs"])
    def test_bad_row_names_file_and_line(self, sim_outputs, tmp_path, capsys, name, bad_row):
        _, sim = sim_outputs
        det = tmp_path / "det"
        inputs = {
            "records": sim / "records.jsonl",
            "swap_logs": sim / "swap_logs.jsonl",
            "timelines": sim / "timelines.jsonl",
            "pairs": det / "pairs.jsonl",
        }
        detect = ["detect", "--records", str(inputs["records"]), "--logs"]
        assert main([*detect, str(inputs["swap_logs"]), "--out", str(det)]) == 0
        header, first, *rest = inputs[name].read_text().splitlines()
        bad = inputs[name] = tmp_path / f"{name}.jsonl"
        bad.write_text("\n".join([header, first, bad_row, *rest]) + "\n")
        prices = tmp_path / "prices.csv"
        prices.write_text(PRICES_CSV)
        out = str(tmp_path / "out")
        detect = ["detect", "--records", str(inputs["records"]), "--logs"]
        argv = {
            "records": [*detect, str(inputs["swap_logs"]), "--out", out],
            "swap_logs": [*detect, str(inputs["swap_logs"]), "--out", out],
            "timelines": ["params", "--timelines", str(inputs["timelines"])],
            "pairs": ["analyze", "--pairs", str(bad), "--prices", str(prices), "--out", out],
        }[name]
        capsys.readouterr()
        assert main(argv) == 1
        assert f"error: {bad}:3: " in capsys.readouterr().err
        args = build_parser().parse_args(argv)
        with pytest.raises(MalformedData, match=re.escape(f"{bad}:3: ")):
            args.func(args)
        assert not (tmp_path / "out").exists()

    # detect wrote a repeated record's pairs twice, and analyze counted
    # them twice, both with exit 0
    @pytest.mark.parametrize("command", ["detect", "analyze"])
    def test_repeated_record_id_names_file_line_and_id(self, sim_outputs, tmp_path, capsys, command):
        _, sim = sim_outputs
        logs = ["--logs", str(sim / "swap_logs.jsonl")]
        det = tmp_path / "det"
        assert main(["detect", "--records", str(sim / "records.jsonl"), *logs, "--out", str(det)]) == 0
        lines = (sim / "records.jsonl").read_text().splitlines()
        bad = tmp_path / "records.jsonl"
        bad.write_text("\n".join([*lines, lines[-1]]) + "\n")
        prices = tmp_path / "prices.csv"
        prices.write_text(PRICES_CSV)
        argv = {
            "detect": ["detect", *logs],
            "analyze": ["analyze", "--pairs", str(det / "pairs.jsonl"), "--prices", str(prices)],
        }[command]
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([*argv, "--records", str(bad), "--out", str(out)]) == 1
        record_id = json.loads(lines[-1])["record_id"]
        assert capsys.readouterr().err == (
            f"error: {bad}:{len(lines) + 1}: duplicate record_id {record_id!r}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "key",
        [
            "block_number",
            "log_index",
            "chain_id",
            "timestamp",
            "token_in_amount",
            "token_out_amount",
            "gas_price",
        ],
    )
    def test_string_swap_log_number_names_file_and_line(self, sim_outputs, tmp_path, capsys, key):
        _, sim = sim_outputs
        header, first, *rest = (sim / "swap_logs.jsonl").read_text().splitlines()
        row = json.loads(first)
        row[key] = str(row[key])
        bad = tmp_path / "swap_logs.jsonl"
        bad.write_text("\n".join([header, json.dumps(row), *rest]) + "\n")
        out = tmp_path / "out"
        argv = ["detect", "--records", str(sim / "records.jsonl"), "--logs", str(bad), "--out", str(out)]
        capsys.readouterr()
        assert main(argv) == 1
        assert f"error: {bad}:2: TypeError: {key} must be" in capsys.readouterr().err
        assert not out.exists()

    # A NaN source timestamp switched the time window off (more pairs,
    # exit 0) and a NaN log timestamp passed the order check; an int
    # record_id or token_in failed later as a raw TypeError/AttributeError.
    @pytest.mark.parametrize(
        "name, key, value",
        [
            ("records", "src_timestamp", math.nan),
            ("records", "dst_timestamp", math.inf),
            ("records", "src_timestamp", True),
            ("records", "src_block_number", 1.5),
            ("records", "dst_chain_id", "56"),
            ("records", "record_id", 5),
            ("records", "dst_tx_hash", None),
            ("records", "hops.token_in", 5),
            ("records", "hops.pool_address", ["0x11"]),
            ("swap_logs", "timestamp", math.nan),
            ("swap_logs", "timestamp", -math.inf),
            ("swap_logs", "sender", 5),
            ("swap_logs", "tx_hash", None),
        ],
    )
    def test_bad_detect_input_names_file_and_line(
        self, sim_outputs, tmp_path, capsys, name, key, value
    ):
        _, sim = sim_outputs
        header, first, *rest = (sim / f"{name}.jsonl").read_text().splitlines()
        row = json.loads(first)
        if key.startswith("hops."):
            row["hops"][0][key[len("hops.") :]] = value
        else:
            row[key] = value
        bad = tmp_path / f"{name}.jsonl"
        bad.write_text("\n".join([header, json.dumps(row), *rest]) + "\n")
        inputs = {"records": sim / "records.jsonl", "swap_logs": sim / "swap_logs.jsonl", name: bad}
        out = tmp_path / "out"
        argv = ["detect", "--records", str(inputs["records"]), "--logs", str(inputs["swap_logs"])]
        capsys.readouterr()
        assert main([*argv, "--out", str(out)]) == 1
        field = key.rpartition(".")[2]
        assert re.search(
            rf"error: {re.escape(str(bad))}:2: (TypeError|ValueError): {field} must be",
            capsys.readouterr().err,
        )
        assert not out.exists()

    # int() read 1.5 as 1, "-7" as -7 and true as 1
    @pytest.mark.parametrize("value", [1.5, "-7", True])
    @pytest.mark.parametrize(
        "key", ["dst_gas_price", "hops.amount_in", "hops.amount_out", "hops.min_return"]
    )
    def test_non_integer_record_amount_names_file_and_line(
        self, sim_outputs, tmp_path, capsys, key, value
    ):
        _, sim = sim_outputs
        header, first, *rest = (sim / "records.jsonl").read_text().splitlines()
        row = json.loads(first)
        if key.startswith("hops."):
            row["hops"][0][key[len("hops.") :]] = value
        else:
            row[key] = value
        bad = tmp_path / "records.jsonl"
        bad.write_text("\n".join([header, json.dumps(row), *rest]) + "\n")
        out = tmp_path / "out"
        argv = ["detect", "--records", str(bad), "--logs", str(sim / "swap_logs.jsonl"), "--out", str(out)]
        capsys.readouterr()
        assert main(argv) == 1
        name = key.rpartition(".")[2]
        assert f"error: {bad}:2: TypeError: {name} must be an int" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("front_window_start_block", 1.5),
            ("front_window_start_block", "-7"),
            ("front_window_start_block", True),
            ("profit_token", 1.5),
            ("profit_token", True),
            ("profit_token", "1.5"),
            ("record_id", 5),
            ("pool_address", None),
            ("token_in", 5),
        ],
    )
    def test_bad_pair_field_names_file_and_line(self, sim_outputs, tmp_path, capsys, key, value):
        _, sim = sim_outputs
        det = tmp_path / "det"
        detect = ["detect", "--records", str(sim / "records.jsonl"), "--logs"]
        assert main([*detect, str(sim / "swap_logs.jsonl"), "--out", str(det)]) == 0
        header, first, *rest = (det / "pairs.jsonl").read_text().splitlines()
        row = json.loads(first)
        row[key] = value
        bad = tmp_path / "pairs.jsonl"
        bad.write_text("\n".join([header, json.dumps(row, sort_keys=True), *rest]) + "\n")
        prices = tmp_path / "prices.csv"
        prices.write_text(PRICES_CSV)
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["analyze", "--pairs", str(bad), "--prices", str(prices), "--out", str(out)]) == 1
        assert re.match(
            rf"error: {re.escape(str(bad))}:2: (TypeError|ValueError): {key} must be",
            capsys.readouterr().err,
        )
        assert not out.exists()
