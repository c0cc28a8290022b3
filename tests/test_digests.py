"""Frozen sha256 digests of every file ``sandwichlab simulate`` writes,
for three small configs in which the cross-chain attacker and the
mempool bot both act (two on zero-fee pools, one on 30 and 25 bp
pools), and of the ``pairs.jsonl`` and ``report.json`` that ``detect``
and ``analyze`` write from them. A refactor of the simulator or of a
codec must leave every digest unchanged; a change that alters an output
on purpose updates the digests here and says so in CHANGES.md."""

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
    "fees": (FEES_YAML, {
        "labels.jsonl": "121cc14359969ef4e6e0cd956fa03eb0276903f9488ca21acdf5430438a1ca7a",
        "manifest.json": "823a855d620ae5c6e3e4fef4fcb69b39ce9b1050b0a4842aeac72a9528be998f",
        "metrics.json": "81710982b6ec8d5887f21b7c84b688ffc11ad2d7962afaa5e6b200cca05cab7f",
        "records.jsonl": "d8db981cd196c41ad361ddbf49cffa695803440f7773bfdd49f0d19f4dd66d4b",
        "swap_logs.jsonl": "cd969e8f8fab0ed7221cdce6fee0e57d1547f3fa85a3f5c09cfc4727a719c1cf",
        "timelines.jsonl": "553f43b0f922fe8d40c856fa4532235da46c180c7167440f421ef3a8b67b055e",
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
    "fees": {
        "pairs.jsonl": "2c1a4d00d35f9401e45054c5f39135e46d283e982e02964eda6b8e5028f9ecfe",
        "report.json": "dc2b69ef634a9ac66df1718f7415a8e06ab1fc4b927e792cdeabbf76f4137806",
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
