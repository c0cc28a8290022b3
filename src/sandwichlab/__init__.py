"""Cross-chain sandwich-attack laboratory.

Exact constant-product swap math and front-run sizing, a
discrete-event simulator of cross-chain bridge swaps with attacker,
bot, and noise agents, a heuristic sandwich-pair detector over exported
swap logs, and codecs/CLI tying the pieces together.
"""

__version__ = "0.1.0"
