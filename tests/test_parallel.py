"""detect and analyze run a chunk of their work on each available CPU:
detect a run of the prefiltered records, analyze a byte range of
pairs.jsonl. Every output file, the stdout and every error message are
the same bytes at any CPU count, and a failed run leaves no part file
or temporary file behind."""

import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from sandwichlab import cli, detector, ingest
from sandwichlab.cli import main
from sandwichlab.ingest import MalformedData, iter_pairs, line_ranges, pair_from_dict
from test_digests import DIGESTS, PRICES_CSV

CPU_COUNTS = (1, 2, 3)


def at_cpus(monkeypatch, count: int) -> None:
    """Make this process see count CPUs, and detect split its records
    however few pairs they have."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    monkeypatch.setattr(cli, "_pairs_per_record", lambda *args: math.inf)
    assert cli._cpu_count() == count


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    """The simulate outputs of each tests/test_digests.py config, and a
    price table."""
    root = tmp_path_factory.mktemp("sim")
    (root / "prices.csv").write_text(PRICES_CSV)
    for name, (config_yaml, _) in DIGESTS.items():
        config = root / f"{name}.yaml"
        config.write_text(config_yaml)
        assert main(["simulate", "--config", str(config), "--out", str(root / name)]) == 0
    return root


def run_stages(monkeypatch, capsys, simulated, name: str, work) -> dict:
    """detect then analyze on the named simulation, from work with
    relative output paths: every byte they write or print."""
    work.mkdir()
    monkeypatch.chdir(work)
    sim = simulated / name
    records = str(sim / "records.jsonl")
    capsys.readouterr()
    assert main(["detect", "--records", records, "--logs", str(sim / "swap_logs.jsonl"),
                 "--out", "det"]) == 0
    argv = ["analyze", "--pairs", "det/pairs.jsonl", "--prices", str(simulated / "prices.csv")]
    assert main([*argv, "--records", records, "--out", "rep"]) == 0
    written = {
        f"{folder}/{path.name}": path.read_bytes()
        for folder in ("det", "rep")
        for path in sorted((work / folder).iterdir())
    }
    return {**written, "stdout": capsys.readouterr().out}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_outputs_do_not_depend_on_cpu_count(name, simulated, tmp_path, monkeypatch, capsys):
    outputs = {}
    for count in CPU_COUNTS:
        at_cpus(monkeypatch, count)
        outputs[count] = run_stages(monkeypatch, capsys, simulated, name, tmp_path / f"cpus{count}")
    pairs = outputs[1]["det/pairs.jsonl"].decode().splitlines()
    assert len(pairs) > 3  # the header and a pair for each of 3 chunks
    for count in CPU_COUNTS[1:]:
        assert outputs[count] == outputs[1], count
    # no part file or temporary file is left beside the outputs
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"cpus{n}" for n in CPU_COUNTS]
    for count in CPU_COUNTS:
        assert sorted(p.name for p in (tmp_path / f"cpus{count}").iterdir()) == ["det", "rep"]


@pytest.fixture()
def detected(simulated, tmp_path):
    """pairs.jsonl of the fees config, with no manifest beside it."""
    sim = simulated / "fees"
    det = tmp_path / "det"
    argv = ["detect", "--records", str(sim / "records.jsonl"), "--logs"]
    assert main([*argv, str(sim / "swap_logs.jsonl"), "--out", str(det)]) == 0
    (det / "manifest.json").unlink()
    return det / "pairs.jsonl"


def left_in(folder) -> list[str]:
    return sorted(path.name for path in folder.iterdir())


def test_matcher_failing_in_last_chunk_leaves_no_pairs_file(simulated, tmp_path, monkeypatch):
    at_cpus(monkeypatch, 3)
    sim = simulated / "fees"
    records = list(ingest.iter_records(str(sim / "records.jsonl")))
    last = detector.prefilter(records, detector.DetectionConfig())[-1].record_id
    matcher = detector.detect_pairs

    def fails_on_last_record(record, logs_by_pool, cfg):
        if record.record_id == last:
            raise RuntimeError(f"matcher failed on {last}")
        return matcher(record, logs_by_pool, cfg)

    monkeypatch.setattr(detector, "detect_pairs", fails_on_last_record)
    det = tmp_path / "det"
    argv = ["detect", "--records", str(sim / "records.jsonl"), "--logs"]
    with pytest.raises(RuntimeError, match=f"^matcher failed on {last}$") as failure:
        main([*argv, str(sim / "swap_logs.jsonl"), "--out", str(det)])
    # raised in a child; its traceback is the cause of the one raised here
    assert "fails_on_last_record" in str(failure.value.__cause__)
    assert left_in(det) == []


def break_row(pairs, line: int) -> None:
    """Give the row at line (1 for the header) a string block_number."""
    lines = pairs.read_text().splitlines()
    row = json.loads(lines[line - 1])
    row["back"]["block_number"] = str(row["back"]["block_number"])
    lines[line - 1] = json.dumps(row)
    pairs.write_text("\n".join(lines) + "\n")


def analyze_error(pairs, tmp_path, monkeypatch, capsys, count: int) -> str:
    at_cpus(monkeypatch, count)
    prices = tmp_path / "prices.csv"
    prices.write_text(PRICES_CSV)
    capsys.readouterr()
    rep = tmp_path / f"rep{count}"
    assert main(["analyze", "--pairs", str(pairs), "--prices", str(prices), "--out", str(rep)]) == 1
    assert not rep.exists()
    return capsys.readouterr().err


def test_bad_row_in_last_range_names_its_line_in_the_file(detected, tmp_path, monkeypatch, capsys):
    count = len(detected.read_text().splitlines())
    break_row(detected, count)
    assert line_ranges(str(detected), 3)[-1][0] > 0
    errors = {n: analyze_error(detected, tmp_path, monkeypatch, capsys, n) for n in CPU_COUNTS}
    assert errors[3].startswith(f"error: {detected}:{count}: TypeError: block_number must be")
    assert errors[1] == errors[2] == errors[3]
    assert left_in(tmp_path) == ["det", "prices.csv"]


def test_first_bad_row_in_file_order_is_named(detected, tmp_path, monkeypatch, capsys):
    count = len(detected.read_text().splitlines())
    break_row(detected, 3)
    break_row(detected, count)
    (start, end), *_ = line_ranges(str(detected), 2)
    assert 3 < len(detected.read_bytes()[:end].splitlines()) < count
    errors = {n: analyze_error(detected, tmp_path, monkeypatch, capsys, n) for n in CPU_COUNTS}
    assert errors[2].startswith(f"error: {detected}:3: TypeError: block_number must be")
    assert errors[1] == errors[2] == errors[3]


def kill_in_child(function):
    """function, except that in a process other than this one it kills
    its own process first."""
    parent = os.getpid()

    def killed(*args, **kwargs):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return function(*args, **kwargs)

    return killed


def detect_outputs(simulated, work) -> dict:
    sim = simulated / "fees"
    argv = ["detect", "--records", str(sim / "records.jsonl"), "--logs"]
    assert main([*argv, str(sim / "swap_logs.jsonl"), "--out", str(work)]) == 0
    return {path.name: path.read_bytes() for path in work.iterdir()}


# a fork costs about what reading a record costs, so records with few
# pairs are matched in this process at any CPU count
@pytest.mark.parametrize("shortfall, forks", [(0.5, 0), (0, 1)])
def test_detect_forks_only_for_enough_pairs_a_record(
    shortfall, forks, simulated, tmp_path, monkeypatch
):
    at_cpus(monkeypatch, 1)
    alone = detect_outputs(simulated, tmp_path / "alone")
    at_cpus(monkeypatch, 2)
    estimate = cli._MIN_PAIRS_PER_RECORD - shortfall
    monkeypatch.setattr(cli, "_pairs_per_record", lambda *args: estimate)
    fork, pids = os.fork, []

    def counted_fork():
        pids.append(fork())
        return pids[-1]

    monkeypatch.setattr(os, "fork", counted_fork)
    assert detect_outputs(simulated, tmp_path / "split") == alone
    assert len(pids) == forks


def test_pairs_per_record_samples_evenly(monkeypatch):
    calls = []

    def pairs_of(record, logs_by_pool, cfg):
        calls.append(record)
        return [None] * record

    monkeypatch.setattr(detector, "detect_pairs", pairs_of)
    cfg = detector.DetectionConfig()
    mean = cli._pairs_per_record(list(range(1000)), {}, cfg)
    assert len(calls) == cli._SAMPLE_RECORDS
    assert abs(mean - 499.5) < 1000 / cli._SAMPLE_RECORDS
    calls.clear()
    assert cli._pairs_per_record([3, 4], {}, cfg) == 3.5
    assert calls == [3, 4]
    assert cli._pairs_per_record([], {}, cfg) == 0.0


def test_child_killed_by_signal_fails_detect(simulated, tmp_path, monkeypatch, capsys):
    at_cpus(monkeypatch, 2)
    monkeypatch.setattr(detector, "detect_pairs", kill_in_child(detector.detect_pairs))
    sim = simulated / "fees"
    det = tmp_path / "det"
    argv = ["detect", "--records", str(sim / "records.jsonl"), "--logs"]
    assert main([*argv, str(sim / "swap_logs.jsonl"), "--out", str(det)]) == 2
    assert capsys.readouterr().err == (
        f"i/o error: a worker process ended by signal {int(signal.SIGKILL)}\n"
    )
    assert left_in(det) == []


def test_child_killed_by_signal_fails_analyze(detected, tmp_path, monkeypatch, capsys):
    at_cpus(monkeypatch, 2)
    monkeypatch.setattr(detector, "pair_profit", kill_in_child(detector.pair_profit))
    prices = tmp_path / "prices.csv"
    prices.write_text(PRICES_CSV)
    rep = tmp_path / "rep"
    argv = ["analyze", "--pairs", str(detected), "--prices", str(prices)]
    assert main([*argv, "--out", str(rep)]) == 2
    assert capsys.readouterr().err == (
        f"i/o error: a worker process ended by signal {int(signal.SIGKILL)}\n"
    )
    assert left_in(tmp_path) == ["det", "prices.csv"]


# a pipe cannot be cut into ranges: it is read whole, in one process
def test_pairs_from_a_pipe(detected, tmp_path, monkeypatch):
    at_cpus(monkeypatch, 1)
    prices = tmp_path / "prices.csv"
    prices.write_text(PRICES_CSV)
    argv = ["analyze", "--pairs", str(detected), "--prices", str(prices)]
    assert main([*argv, "--out", str(tmp_path / "file")]) == 0
    code = (
        "import os, sys\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from sandwichlab.cli import main\n"
        "sys.exit(main(sys.argv[1:]))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    argv = [sys.executable, "-c", code, "analyze", "--pairs", "/dev/stdin", "--prices", str(prices)]
    done = subprocess.run(
        [*argv, "--out", str(tmp_path / "pipe")], input=detected.read_bytes(), env=env,
        capture_output=True,
    )
    assert done.returncode == 0, done.stderr
    report = (tmp_path / "pipe" / "report.json").read_bytes()
    assert report == (tmp_path / "file" / "report.json").read_bytes()


class TestForkMap:
    def test_results_in_chunk_order(self):
        chunks = [[1, 2], [3], [4, 5, 6]]
        assert cli._fork_map(lambda index, chunk: (index, sum(chunk)), chunks) == [
            (0, 3), (1, 3), (2, 15)
        ]

    def test_each_chunk_but_the_first_runs_in_a_child(self):
        pids = cli._fork_map(lambda index, chunk: os.getpid(), [None] * 3)
        assert pids[0] == os.getpid()
        assert len(set(pids)) == 3

    def test_first_exception_in_chunk_order_is_raised(self):
        def fails(index, chunk):
            if index:
                raise ValueError(f"chunk {index}")
            return index

        with pytest.raises(ValueError, match="^chunk 1$"):
            cli._fork_map(fails, [None] * 3)

    def test_exception_that_does_not_pickle(self):
        class Unpicklable(Exception):
            def __init__(self, a, b):
                super().__init__(f"{a} and {b}")

        def fails(index, chunk):
            if index:
                raise Unpicklable(1, 2)

        with pytest.raises(RuntimeError, match=r"Unpicklable\('1 and 2'\)"):
            cli._fork_map(fails, [None] * 2)

    def test_no_fork_means_one_cpu(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert cli._cpu_count() == 1


def _rows_with_every_line_end(pairs) -> bytes:
    """The rows of pairs.jsonl with line ends "\\n", "\\r\\n" and a lone
    "\\r" in turn, blank lines between some, and a non-ASCII byte in a
    comment."""
    header, *rows = pairs.read_bytes().splitlines()
    ends = [b"\n", b"\r\n", b"\r", b"\n\n", b"\r\r\n"]
    body = b"".join(row + ends[index % len(ends)] for index, row in enumerate(rows))
    return header + "\n# café\n".encode() + body


def test_ranges_read_as_the_whole_file(detected):
    detected.write_bytes(_rows_with_every_line_end(detected))
    whole = list(iter_pairs(str(detected)))
    assert whole == list(ingest.iter_decoded(str(detected), pair_from_dict))
    for count in range(1, 8):
        ranges = line_ranges(str(detected), count)
        assert ranges[0][0] == 0 and ranges[-1][1] is None
        assert all(end == start for (_, end), (start, _) in zip(ranges, ranges[1:]))
        ranged = [pair for byte_range in ranges for pair in iter_pairs(str(detected), *byte_range)]
        assert ranged == whole


def test_ranges_name_a_bad_line_by_its_number_in_the_file(detected):
    lines = _rows_with_every_line_end(detected).split(b"\n")
    bad = [index for index, line in enumerate(lines) if b"record_id" in line][-2]
    lines[bad] = lines[bad].replace(b'"block_number": ', b'"block_number": "', 1)
    detected.write_bytes(b"\n".join(lines))
    with pytest.raises(MalformedData) as whole:
        list(iter_pairs(str(detected)))
    assert whole.match(r":\d+: invalid JSON")
    for count in range(2, 8):
        with pytest.raises(MalformedData) as ranged:
            for byte_range in line_ranges(str(detected), count):
                list(iter_pairs(str(detected), *byte_range))
        assert str(ranged.value) == str(whole.value)


def test_lines_before_counts_as_a_text_read(tmp_path):
    # a "\r\n" across the 1 MiB blocks _lines_before reads is one line end
    path = tmp_path / "lines.txt"
    path.write_bytes(b"a" * ((1 << 20) - 1) + b"\r\nb\rc\r\r\nd\n\ne\n")
    with open(path) as handle:
        assert ingest._lines_before(str(path), path.stat().st_size) == len(list(handle)) == 7
