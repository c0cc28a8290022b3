"""Frozen sha256 digests of every file ``sandwichlab simulate`` writes,
for two small zero-fee configs in which the cross-chain attacker and
the mempool bot both act. A refactor of the simulator must leave every
digest unchanged; a change that alters simulator output on purpose
updates the digests here and says so in CHANGES.md."""

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


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_simulate_artifacts_are_frozen(name, tmp_path):
    config_yaml, expected = DIGESTS[name]
    config = tmp_path / "config.yaml"
    config.write_text(config_yaml)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    written = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()
    }
    assert written == expected
