"""The benchmark's workloads: a simulation config, a price table and the
CLI arguments of each stage, all made from the workload name and a seed.

The benchmark writes these inputs itself; the program only reads them.
"""

from __future__ import annotations

from dataclasses import dataclass

# Token prices in USD (18 decimals for every token). The busy workload's
# tokens follow the README example; the grid workload's pools have no
# pairs, so their tokens only need to be priced, not realistically.
BUSY_PRICES = {"WETH": "3000", "USDT": "1", "WBNB": "300", "USDC": "1"}
GRID_POOLS = 50
GRID_PRICES = {f"P{i}{side}": "1" for i in range(GRID_POOLS) for side in "XY"}
PRICE_DATE = "2024-01-01"


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    prices: dict
    theta: str
    percentile: str

    def reserves(self) -> dict[str, tuple[int, int, int, int]]:
        """address -> (reserve_x, reserve_y, fee numerator, fee denominator)."""
        out = {}
        for pool in self.config["pools"]:
            num, _, den = pool["fee"].partition("/")
            out[pool["address"]] = (
                int(pool["reserve_x"]),
                int(pool["reserve_y"]),
                int(num),
                int(den),
            )
        return out


def _pool(token_x, token_y, fee, address) -> dict:
    return {
        "token_x": token_x,
        "token_y": token_y,
        "reserve_x": str(10**21),
        "reserve_y": str(3 * 10**21),
        "fee": fee,
        "address": address,
    }


def busy_2pool(seed: int) -> Workload:
    """The README example stretched to 6000 s at one victim per second,
    over two fee-bearing pools, with the attacker (theta 3/4) and the bot."""
    return Workload(
        name="busy-2pool",
        config={
            "seed": seed,
            "horizon": 6000,
            "relay_delay": {"family": "lognormal", "sigma": 0.6, "p95": 100, "min": 5},
            "victim_arrival_rate": 1.0,
            "victim_size": {"family": "lognormal", "mu": 34.5, "sigma": 1.0},
            "victim_tolerance": {"family": "uniform", "low": 0.005, "high": 0.03},
            "noise_arrival_rate": 0.01,
            "attacker": {"enabled": True, "theta": "3/4"},
            "bot": {"enabled": True, "min_profit": 300000000000000},
            "pools": [
                _pool("WETH", "USDT", "30/10000", "0x" + "11" * 20),
                _pool("WBNB", "USDC", "25/10000", "0x" + "22" * 20),
            ],
        },
        prices=BUSY_PRICES,
        theta="3/4",
        percentile="95",
    )


def estimate_50pool(seed: int) -> Workload:
    """The parameter-estimation acceptance config: 50 zero-fee pools over
    70,000 s with fixed victim and noise sizes and no agents."""
    return Workload(
        name="estimate-50pool",
        config={
            "seed": seed,
            "horizon": 70000,
            "src_block_interval": 12,
            "dst_block_interval": 3,
            "relay_delay": {"family": "lognormal", "sigma": 0.6, "p95": 100, "min": 5},
            "victim_arrival_rate": 0.15,
            "victim_size": {"family": "fixed", "value": 1.0e15},
            "victim_tolerance": {"family": "fixed", "value": 0.01},
            "noise_arrival_rate": 0.006,
            "noise_size": {"family": "fixed", "value": 1.0e13},
            "attacker": {"enabled": False},
            "bot": {"enabled": False},
            "pools": [
                _pool(f"P{i}X", f"P{i}Y", "0/1", "0x" + f"{i:040x}")
                for i in range(GRID_POOLS)
            ],
        },
        prices=GRID_PRICES,
        theta="1/2",
        percentile="100",
    )


WORKLOADS = {"busy-2pool": busy_2pool, "estimate-50pool": estimate_50pool}


def price_csv(prices: dict) -> str:
    lines = ["token_id,usd_price,decimals,snapshot_date"]
    lines += [f"{token},{usd},18,{PRICE_DATE}" for token, usd in sorted(prices.items())]
    return "\n".join(lines) + "\n"
