"""Each output check passes on the program's real outputs and reports a
single corrupted value in the artifact it checks; a check that raises is
counted as a failed operation.

Run from the root of a checkout: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run as bench  # noqa: E402
from workloads import busy_2pool, price_csv  # noqa: E402

from sandwichlab import cli  # noqa: E402

SEED = 5


def _workload():
    """The busy workload cut to 400 simulated seconds: a few hundred
    victims, some thousands of pairs."""
    workload = busy_2pool(SEED)
    return replace(workload, config={**workload.config, "horizon": 400})


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    workload = _workload()
    config, prices = root / "config.yaml", root / "prices.csv"
    config.write_text(json.dumps(workload.config))
    prices.write_text(price_csv(workload.prices))
    sim, det, rep = root / "sim", root / "det", root / "rep"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(["simulate", "--config", str(config), "--out", str(sim)]) == 0
        assert cli.main(["detect", "--records", str(sim / "records.jsonl"),
                         "--logs", str(sim / "swap_logs.jsonl"), "--out", str(det)]) == 0
        assert cli.main(["analyze", "--pairs", str(det / "pairs.jsonl"), "--prices", str(prices),
                         "--records", str(sim / "records.jsonl"), "--out", str(rep)]) == 0
    params = io.StringIO()
    with contextlib.redirect_stdout(params):
        assert cli.main(["params", "--timelines", str(sim / "timelines.jsonl"),
                         "--theta", workload.theta, "--percentile", workload.percentile]) == 0
    (root / "params.txt").write_text(params.getvalue())
    return root


@pytest.fixture
def run(clean, tmp_path):
    """A private copy of the clean outputs, safe to corrupt."""
    shutil.copytree(clean, tmp_path, dirs_exist_ok=True)
    return tmp_path


def all_problems(root: Path) -> dict[str, list[str]]:
    workload = _workload()
    sim, det, rep = root / "sim", root / "det", root / "rep"
    corpus = checks.Corpus(sim)
    consumers = [
        checks.PairCheck(corpus),
        checks.ReferenceSampleCheck(corpus, SEED),
        checks.ReportCheck(corpus, workload.prices, rep / "report.json"),
    ]
    checks.scan_pairs(det / "pairs.jsonl", consumers)
    found = {c.name: c.result() for c in consumers}
    found["replay"] = checks.check_swap_replay(sim, workload.reserves())
    found["counts"] = checks.check_victim_counts(sim)
    found["params"] = checks.check_params(sim, (root / "params.txt").read_text())
    found["manifests"] = checks.check_manifests({
        sim / "manifest.json": {"config": root / "config.yaml"},
        det / "manifest.json": {"records": sim / "records.jsonl", "logs": sim / "swap_logs.jsonl"},
        rep / "manifest.json": {"pairs": det / "pairs.jsonl", "prices": root / "prices.csv"},
    })
    return found


def edit_jsonl(path: Path, edit, pick=lambda row: True) -> None:
    """Apply edit to the first row pick accepts (None deletes the row)."""
    lines = path.read_text().splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.startswith("#"):
            continue
        row = json.loads(line)
        if pick(row):
            new = edit(row)
            lines[i] = "" if new is None else json.dumps(new, sort_keys=True) + "\n"
            break
    else:
        raise AssertionError(f"no row to corrupt in {path}")
    path.write_text("".join(lines))


def edit_json(path: Path, edit) -> None:
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data, indent=2, sort_keys=True))


def test_clean_outputs_pass_every_check(clean):
    pairs = sum(1 for _ in checks.read_rows(clean / "det" / "pairs.jsonl"))
    assert pairs > 0, "the test workload must produce pairs"
    assert all_problems(clean) == {name: [] for name in all_problems(clean)}


def _bump_out(row):
    row["token_out_amount"] = int(row["token_out_amount"]) + 1
    return row


def _flip_classification(row):
    row["classification"] = "single_chain" if row["classification"] == "cross_chain" else "cross_chain"
    return row


def _sampled_with_pairs(root: Path):
    corpus = checks.Corpus(root / "sim")
    sample = checks.ReferenceSampleCheck(corpus, SEED).sample
    with_pairs = {row["record_id"] for row in checks.read_rows(root / "det" / "pairs.jsonl")}
    chosen = sorted(sample & with_pairs)
    assert chosen, "the reference sample must include a record with pairs"
    return lambda row: row["record_id"] == chosen[0]


def _corrupt_report(data):
    data["total_profit_usd"] = str(Decimal(data["total_profit_usd"]) + 1)


def _corrupt_manifest(data):
    data["input_digests"]["records"] = "0" * 64


def _corrupt_metrics(data):
    data["victims_reverted"] += 1


def _empty_window(row):
    row["noisy_swaps"] = []
    return row


CORRUPTIONS = {
    "replay": lambda r: edit_jsonl(r / "sim" / "swap_logs.jsonl", _bump_out),
    "counts": lambda r: edit_json(r / "sim" / "metrics.json", _corrupt_metrics),
    "pairs": lambda r: edit_jsonl(r / "det" / "pairs.jsonl", _flip_classification),
    "reference-sample": lambda r: edit_jsonl(
        r / "det" / "pairs.jsonl", lambda row: None, _sampled_with_pairs(r)
    ),
    "report": lambda r: edit_json(r / "rep" / "report.json", _corrupt_report),
    "params": lambda r: edit_jsonl(
        r / "sim" / "timelines.jsonl", _empty_window, lambda row: bool(row["noisy_swaps"])
    ),
    "manifests": lambda r: edit_json(r / "det" / "manifest.json", _corrupt_manifest),
}


@pytest.mark.parametrize("check", sorted(CORRUPTIONS))
def test_corrupted_value_is_reported(run, check):
    CORRUPTIONS[check](run)
    assert all_problems(run)[check], f"check {check} missed a corrupted value"


def test_printed_q_and_rate_signs_are_checked(run):
    text = (run / "params.txt").read_text()
    wrong_q = "\n".join("q         = 0.0001" if line.startswith("q ") else line
                        for line in text.splitlines())
    assert checks.check_params(run / "sim", wrong_q)
    wrong_sign = "\n".join("r-        = 1.0000%" if line.startswith("r- ") else line
                           for line in text.splitlines())
    assert checks.check_params(run / "sim", wrong_sign)
    assert not checks.check_params(run / "sim", text)


def test_a_check_that_raises_is_a_failed_operation(capsys):
    ops = bench.Operations()
    assert not ops.check("reads a missing field", lambda row: row["gone"], {})
    assert (ops.attempted, ops.failed) == (1, 1)
    assert "raised KeyError('gone')" in capsys.readouterr().out


def _consumers(root: Path):
    corpus = checks.Corpus(root / "sim")
    return [
        checks.PairCheck(corpus),
        checks.ReferenceSampleCheck(corpus, SEED),
        checks.ReportCheck(corpus, _workload().prices, root / "rep" / "report.json"),
    ]


def test_scan_pairs_stops_only_the_consumer_that_raised(run):
    def drop_window(row):
        del row["front_window_start_block"]  # read by the pair check alone
        return row

    edit_jsonl(run / "det" / "pairs.jsonl", drop_window)
    consumers = _consumers(run)
    errors = checks.scan_pairs(run / "det" / "pairs.jsonl", consumers)
    assert set(errors) == {"pairs"} and isinstance(errors["pairs"], KeyError)
    assert consumers[2].result() == [], "the report check was fed every pair"


def test_scan_pairs_reports_an_unreadable_file_to_every_consumer(run):
    path = run / "det" / "pairs.jsonl"
    path.write_text(path.read_text() + '{"record_id": \n')
    errors = checks.scan_pairs(path, _consumers(run))
    assert set(errors) == {"pairs", "reference-sample", "report"}


def test_reruns_must_print_the_same_params(run):
    digests = {name: checks.sha256(path) for name, path in bench.artifacts(run).items()}
    printed = (run / "params.txt").read_text()
    rounds = [{"params": {"stdout": printed}}, {"simulate": {}}, {"params": {"stdout": printed}}]
    assert bench.check_reruns(checks, run, digests, rounds) == []
    rounds.append({"params": {"stdout": printed.replace("q ", "q  ", 1)}})
    assert bench.check_reruns(checks, run, digests, rounds)
    edit_json(run / "rep" / "report.json", _corrupt_report)
    assert "rep/report.json changed" in bench.check_reruns(checks, run, digests, rounds[:1])
