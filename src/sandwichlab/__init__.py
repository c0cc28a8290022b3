"""Cross-chain sandwich-attack laboratory.

Exact constant-product swap math and front-run sizing, a
discrete-event simulator of cross-chain bridge swaps with attacker,
bot, and noise agents, a heuristic sandwich-pair detector over exported
swap logs, and codecs/CLI tying the pieces together.
"""

# Defined before the submodule imports so that they can read it.
__version__ = "0.1.0"

from .amm import (
    MAX_AMOUNT,
    AmmError,
    Direction,
    Overflow,
    Pool,
    PoolProtocol,
    SwapOutcome,
    SwapRequest,
    ZeroInput,
    execute_swap,
    largest_frontrun_for_min_out,
    min_out_from_tolerance,
    quote_output,
    victim_output_after_frontrun,
)
from .attack import (
    EmptyInput,
    MalformedSequence,
    NoiseParams,
    OrderingScenario,
    PoolTimeline,
    ReturnRates,
    TxLabel,
    classify_ordering,
    estimate_noise_params,
    estimate_return_rates,
    exact_sum,
    expected_profit,
    frontrun_size,
    optimal_frontrun_for_timeline,
    noise_params_and_rates,
    replay_timeline,
    success_probability,
)
from .bridge import (
    AttackerConfig,
    BotConfig,
    Corpus,
    DistSpec,
    InvalidConfig,
    SimConfig,
    SimMetrics,
    SimTrace,
    Simulation,
    compute_metrics,
    extract_corpus,
)
from .detector import (
    Classification,
    CrossChainTx,
    DetectionConfig,
    MissingPrice,
    PriceTable,
    Report,
    SandwichPair,
    SwapLog,
    VictimHop,
    aggregate,
    classify_and_price,
    detect_pairs,
    group_logs,
    prefilter,
    price_pair,
    reference_detect_pairs,
)
from .ingest import MalformedData, RunManifest

from .bridge import run as run_simulation
