"""Frozen sha256 digests of every file ``sandwichlab simulate`` writes,
for three small configs in which the cross-chain attacker and the
mempool bot both act (two on zero-fee pools, one on 30 and 25 bp
pools), and of the ``pairs.jsonl`` and ``report.json`` that ``detect``
and ``analyze`` write from them, and the stdout of ``params`` on them.
A refactor of the simulator, of a codec or of the estimators must leave
every digest and text unchanged; a change that alters an output on
purpose updates them here and says so in CHANGES.md."""

import hashlib

import pytest
import yaml

from sandwichlab.amm import SwapRequest, execute_swap
from sandwichlab.bridge import run
from sandwichlab.cli import main, sim_config_from_dict

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

# mempool-triggered back-run and a front-run bid at gas price 0, plus
# the bot
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
  gas_price: 0
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

# the busy-2pool pools' fees, with victims large enough against the
# reserves that the bot's same-block bracket clears both fees; victims
# execute, revert and are dropped
FEES_YAML = """\
seed: 5
horizon: 240
relay_delay:
  family: uniform
  low: 10
  high: 60
victim_arrival_rate: 0.2
victim_size:
  family: lognormal
  mu: 43
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
bot:
  enabled: true
pools:
  - token_x: WETH
    token_y: USDT
    reserve_x: "1000000000000000000000"
    reserve_y: "3000000000000000000000"
    fee: "30/10000"
    address: "0x1111111111111111111111111111111111111111"
  - token_x: WBNB
    token_y: BUSD
    reserve_x: "100000000000000000000"
    reserve_y: "600000000000000000000"
    fee: "25/10000"
    address: "0x2222222222222222222222222222222222222222"
"""

DIGESTS = {
    "capped": (CAPPED_YAML, {
        "labels.jsonl": "8a8c0495c2518b4abc191247a74dcbdcdd59d33bff01a0c9010d83439657eb87",
        "manifest.json": "628769027ce3f90bdae2b4c9e7fc6121c5b0c782b5bfac733bf5bc2a0d0f5427",
        "metrics.json": "bbdbeb86e6d1bae6e2ae73e44d7e5ea85a58abfddfb25a40b630c6c11fe352f3",
        "records.jsonl": "8c5ff511751ef80846d69d5b91a0b9bbfd44e3fe5c0c9be3a82b9b0438a9481e",
        "swap_logs.jsonl": "edc2b9e77667646927bd826c0822109ac4dc16564beb4b0fc0ac755b81ac4442",
        "timelines.jsonl": "ab72209dd86ab5b72141e9b18bd7f6a4d718d783ca4c86545fadf9462fe940db",
    }),
    "mempool": (MEMPOOL_YAML, {
        "labels.jsonl": "fd371f9743108c6c6b81e44ebf2006ff7fe1c74a36b908224acb102310b7a6f0",
        "manifest.json": "bbad2eb0bc5913d7282159d550b2f99afe3c7ddd57ec7881d31230af3f24e970",
        "metrics.json": "88cda1cfb26d7874e2065bc3bbcefb4d7a704cdd049490e727da827d0dbc2031",
        "records.jsonl": "d27a6cff474b3579e09421c6016f9ea4d4d544dd22de799e5dbf93c902c14e35",
        "swap_logs.jsonl": "fb588325a9cb5c8e4e1067e0e3ba34333e3119cb95d629328b47f173563defd1",
        "timelines.jsonl": "047b097cf944a56f4c5f880e2e5c58df9f22324e422821977b2fb8820b312f4f",
    }),
    "fees": (FEES_YAML, {
        "labels.jsonl": "121cc14359969ef4e6e0cd956fa03eb0276903f9488ca21acdf5430438a1ca7a",
        "manifest.json": "823a855d620ae5c6e3e4fef4fcb69b39ce9b1050b0a4842aeac72a9528be998f",
        "metrics.json": "81710982b6ec8d5887f21b7c84b688ffc11ad2d7962afaa5e6b200cca05cab7f",
        "records.jsonl": "d8db981cd196c41ad361ddbf49cffa695803440f7773bfdd49f0d19f4dd66d4b",
        "swap_logs.jsonl": "cd969e8f8fab0ed7221cdce6fee0e57d1547f3fa85a3f5c09cfc4727a719c1cf",
        "timelines.jsonl": "db8ecbe042a0156b294baa4165520bd316fc1a70a0890fb656356d1676f70135",
    }),
}


# pairs.jsonl and report.json of detect and analyze (default detection
# config) on each config's simulate output
DETECT_DIGESTS = {
    "capped": {
        "pairs.jsonl": "c216abe50c04890496a4d8c35f43f30ffaf258edc7e920c6a56ce104db86398d",
        "report.json": "c4ab9f21ac59e9a8d525a760fac34d79290d3e5c0577dc6eacfff6f5ed9c875f",
    },
    "mempool": {
        "pairs.jsonl": "cf6981ef861b811b55cc63d3ad1e1e3afe5423b9b79f09786ce1fc812206a668",
        "report.json": "a3447e5cbc0546d63ede2cffb326a3bd2ed7484298ffac1cdf4e26c8e35791e0",
    },
    "fees": {
        "pairs.jsonl": "a32bafc9cf85a214b6d01b2da37e39b41fc2e0c29ac0e89db92cfc5c88eb385c",
        "report.json": "dc2b69ef634a9ac66df1718f7415a8e06ab1fc4b927e792cdeabbf76f4137806",
    },
}

# params --timelines stdout on each config's timelines.jsonl, at
# (theta, percentile) (1/2, 95) and (1, 100): q, p, r+, r-, E(r) and the
# success probability, each the correctly rounded text of its exact value
PARAMS_STDOUT = {
    "capped": {
        ("1/2", "95"): ("0.0000", "0.3667", "1.1544", "-0.3093", "0.2274", "36.67"),
        ("1", "100"): ("0.0000", "0.0000", "1.1654", "-0.3508", "-0.3508", "0.00"),
    },
    "mempool": {
        ("1/2", "95"): ("0.0000", "0.3529", "1.4131", "-3.9923", "-2.0845", "35.29"),
        ("1", "100"): ("0.0000", "0.2941", "1.3300", "-4.0872", "-2.4939", "29.41"),
    },
    "fees": {
        ("1/2", "95"): ("0.0000", "0.4783", "5.1433", "-2.0247", "1.4035", "47.83"),
        ("1", "100"): ("0.0000", "0.0870", "4.7180", "-1.2841", "-0.7622", "8.70"),
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


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_every_swap_replays_through_execute_swap(name):
    # the benchmark's replay check sees only the logged (executed) swaps;
    # this replays every destination swap, reverts included, in trace
    # order from the config pools, through the checked swap path
    config = sim_config_from_dict(yaml.safe_load(DIGESTS[name][0]))
    trace, _ = run(config)
    pools = {pool.address: pool for pool in config.pools}
    swaps = [event for event in trace.events if event.kind == "swap"]
    assert any(event.reverted for event in swaps)
    for event in swaps:
        # only a victim's swap carries a floor: its frozen min_return
        min_out = trace.victims[event.victim_id].min_return if event.label == "Tv" else 0
        request = SwapRequest(event.direction, event.amount_in, min_out)
        outcome = execute_swap(pools[event.pool_address], request)
        assert (outcome.amount_out, outcome.reverted) == (event.amount_out, event.reverted)
        pools[event.pool_address] = outcome.pool_after
    assert pools == trace.final_pools


@pytest.mark.parametrize("name", sorted(PARAMS_STDOUT))
def test_params_stdout_is_frozen(name, tmp_path, capsys):
    timelines = str(_simulate(name, tmp_path) / "timelines.jsonl")
    for (theta, percentile), figures in PARAMS_STDOUT[name].items():
        capsys.readouterr()
        argv = ["params", "--timelines", timelines, "--theta", theta, "--percentile", percentile]
        assert main(argv) == 0
        q, p, r_plus, r_minus, expected_rate, success = figures
        assert capsys.readouterr().out == (
            f"q         = {q}\n"
            f"p         = {p}\n"
            f"r+        = {r_plus}%\n"
            f"r-        = {r_minus}%\n"
            f"E(r)      = {expected_rate}%\n"
            f"success   = {success}%\n"
        )
