"""Frozen sha256 digests of every file ``sandwichlab simulate`` writes,
for two small zero-fee configs in which the cross-chain attacker and
the mempool bot both act, and of the ``pairs.jsonl`` and ``report.json``
that ``detect`` and ``analyze`` write from them. A refactor of the
simulator or of a codec must leave every digest unchanged; a change that
alters an output on purpose updates the digests here and says so in
CHANGES.md."""

import hashlib

import pytest

from sandwichlab.cli import main

# attacker at theta=1/2 with a binding capital_limit, plus the bot;
# victims execute, revert and are dropped
CAPPED_YAML = """\
seed: 3
horizon: 240
relay_delay:
  family: uniform
  low: 10
  high: 60
victim_arrival_rate: 0.2
victim_size:
  family: lognormal
  mu: 34.5
  sigma: 1.0
victim_tolerance:
  family: uniform
  low: 0.005
  high: 0.03
noise_arrival_rate: 0.03
noise_size:
  family: fixed
  value: 1.0e16
attacker:
  enabled: true
  theta: "1/2"
  capital_limit: 5000000000000000000
bot:
  enabled: true
pools:
  - token_x: WETH
    token_y: USDT
    reserve_x: "1000000000000000000000"
    reserve_y: "3000000000000000000000"
    fee: "0"
    address: "0x1111111111111111111111111111111111111111"
  - token_x: WBNB
    token_y: BUSD
    reserve_x: "100000000000000000000"
    reserve_y: "600000000000000000000"
    fee: "0"
    address: "0x2222222222222222222222222222222222222222"
"""

# mempool-triggered back-run and private submission, plus the bot
MEMPOOL_YAML = """\
seed: 4
horizon: 240
relay_delay:
  family: uniform
  low: 10
  high: 60
victim_arrival_rate: 0.2
victim_size:
  family: lognormal
  mu: 34.5
  sigma: 1.0
victim_tolerance:
  family: uniform
  low: 0.005
  high: 0.03
noise_arrival_rate: 0.03
noise_size:
  family: fixed
  value: 1.0e16
attacker:
  enabled: true
  uses_private_submission: true
  backrun_on_mempool: true
bot:
  enabled: true
pools:
  - token_x: WETH
    token_y: USDT
    reserve_x: "1000000000000000000000"
    reserve_y: "3000000000000000000000"
    fee: "0"
    address: "0x1111111111111111111111111111111111111111"
  - token_x: WBNB
    token_y: BUSD
    reserve_x: "100000000000000000000"
    reserve_y: "600000000000000000000"
    fee: "0"
    address: "0x2222222222222222222222222222222222222222"
"""

DIGESTS = {
    "capped": (CAPPED_YAML, {
        "labels.jsonl": "8a8c0495c2518b4abc191247a74dcbdcdd59d33bff01a0c9010d83439657eb87",
        "manifest.json": "628769027ce3f90bdae2b4c9e7fc6121c5b0c782b5bfac733bf5bc2a0d0f5427",
        "metrics.json": "bbdbeb86e6d1bae6e2ae73e44d7e5ea85a58abfddfb25a40b630c6c11fe352f3",
        "records.jsonl": "8c5ff511751ef80846d69d5b91a0b9bbfd44e3fe5c0c9be3a82b9b0438a9481e",
        "swap_logs.jsonl": "edc2b9e77667646927bd826c0822109ac4dc16564beb4b0fc0ac755b81ac4442",
        "timelines.jsonl": "1c3d569d897d1647e40e369c4a8fd7eadae7d61d4939237f195efc5013f47464",
    }),
    "mempool": (MEMPOOL_YAML, {
        "labels.jsonl": "6844c375faba7cadbfd76b5b7644d0e2e25ec3bb148f29185bded9c7a5fc0f4e",
        "manifest.json": "197549681252bc719cd6b5b0d4e032796c90f7b904a94b4c14874b97cb37b520",
        "metrics.json": "88cda1cfb26d7874e2065bc3bbcefb4d7a704cdd049490e727da827d0dbc2031",
        "records.jsonl": "8ca3aa36af569c389e37cfb7d5e3e94a8c300cf2a6974a60986d116cc719ca4c",
        "swap_logs.jsonl": "e279539622d597dd6876c92904a19c2a73483b823dff9787c37263c63b6ccdf5",
        "timelines.jsonl": "ba0752c5ec6e0ec5e7fbb54494dae03fd1c85013bd9ba992e4141f143f389f1c",
    }),
}


# pairs.jsonl and report.json of detect and analyze (default detection
# config) on each config's simulate output
DETECT_DIGESTS = {
    "capped": {
        "pairs.jsonl": "d48654d13e49b34d4feebd8d10eb04a09ca6476d4db08cd956c1af0b54066fd6",
        "report.json": "c4ab9f21ac59e9a8d525a760fac34d79290d3e5c0577dc6eacfff6f5ed9c875f",
    },
    "mempool": {
        "pairs.jsonl": "b53ff59818171d0976cde45ab4c5ef4d96acb8dd8d14f92cf857eab1e77577a4",
        "report.json": "a3447e5cbc0546d63ede2cffb326a3bd2ed7484298ffac1cdf4e26c8e35791e0",
    },
}

PRICES_CSV = (
    "token_id,usd_price,decimals,snapshot_date\n"
    "WETH,3000,18,2025-10-31\n"
    "USDT,1,18,2025-10-31\n"
    "WBNB,600,18,2025-10-31\n"
    "BUSD,1,18,2025-10-31\n"
)


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _simulate(name, tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text(DIGESTS[name][0])
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_simulate_artifacts_are_frozen(name, tmp_path):
    out = _simulate(name, tmp_path)
    assert {path.name: _sha256(path) for path in out.iterdir()} == DIGESTS[name][1]


@pytest.mark.parametrize("name", sorted(DETECT_DIGESTS))
def test_detect_and_analyze_artifacts_are_frozen(name, tmp_path):
    sim = _simulate(name, tmp_path)
    det, rep = tmp_path / "det", tmp_path / "rep"
    prices = tmp_path / "prices.csv"
    prices.write_text(PRICES_CSV)
    records, logs = str(sim / "records.jsonl"), str(sim / "swap_logs.jsonl")
    assert main(["detect", "--records", records, "--logs", logs, "--out", str(det)]) == 0
    pairs = det / "pairs.jsonl"
    argv = ["analyze", "--pairs", str(pairs), "--prices", str(prices), "--records", records]
    assert main([*argv, "--out", str(rep)]) == 0
    written = {"pairs.jsonl": _sha256(pairs), "report.json": _sha256(rep / "report.json")}
    assert written == DETECT_DIGESTS[name]
