"""Checks of manyworlds JSON reports against the paper's invariants.

Reports are checked against physical and statistical invariants, not
golden bytes, so a change to an RNG stream that keeps the physics still
passes. Each check returns None when the report holds, or a one-line
reason when it does not.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from typing import Optional

TOL = 1e-10            # reconstruction, spectra, weight and ledger tolerance
MONOTONE_TOL = 1e-12   # largest allowed drop between chain entropy steps
SIGMAS = 5.0           # width of the Monte Carlo acceptance band


def check_report(op: dict, text: str) -> Optional[str]:
    """Check one report against the operation that produced it."""
    try:
        report = json.loads(text)
        expected = {k: op[k] for k in ("experiment", "parameters", "seed")}
        if report["config"] != expected:
            return f"config echo {report['config']} != {expected}"
        return _CHECKS[op["experiment"]](op["parameters"], report["result"])
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"


def _chain(p: dict, r: dict) -> Optional[str]:
    steps = r["entropy_steps"]
    drop = max((a - b for a, b in zip(steps, steps[1:])), default=0.0)
    if drop > MONOTONE_TOL:
        return f"chain entropy drops by {drop:.3e}"
    if r["final_entropy"] != steps[-1]:
        return "final_entropy differs from the last entropy step"
    return None


def _branch(p: dict, r: dict) -> Optional[str]:
    weight_gap = abs(math.fsum(r["weights"]) - 1.0)
    if weight_gap > TOL:
        return f"branch weights miss 1 by {weight_gap:.3e}"
    ledger_gap = abs(r["total_entropy"] - math.fsum(r["branch_entropies"]))
    if ledger_gap > TOL:
        return f"total entropy misses the branch sum by {ledger_gap:.3e}"
    if not r["n_branches"] == len(r["weights"]) == len(r["branch_entropies"]):
        return "branch count disagrees with the weight list"
    return None


def _schmidt(p: dict, r: dict) -> Optional[str]:
    if not r["reconstruction_error"] < TOL:
        return f"reconstruction error {r['reconstruction_error']:.3e}"
    if not r["spectra_gap"] < TOL:
        return f"spectra gap {r['spectra_gap']:.3e}"
    lambda_gap = abs(math.fsum(r["lambdas"]) - 1.0)
    if lambda_gap > TOL:
        return f"Schmidt coefficients miss 1 by {lambda_gap:.3e}"
    if not 1 <= r["rank"] == len(r["lambdas"]) <= min(p["d_left"], p["d_right"]):
        return f"rank {r['rank']} with {len(r['lambdas'])} coefficients for {p}"
    return None


def _overlap(p: dict, r: dict) -> Optional[str]:
    deviation = abs(r["mean_overlap_sq"] - 1.0 / p["dim"])
    if not deviation <= SIGMAS * r["std_error"]:
        return f"mean overlap off 1/dim by {deviation:.3e} (std error {r['std_error']:.3e})"
    return None


def _zeno_random(p: dict, r: dict) -> Optional[str]:
    if not 0.0 <= r["transmission_probability"] <= 3.0 / p["dim"]:
        return f"random-chain transmission {r['transmission_probability']:.3e} > 3/dim"
    return None


def _evolve(p: dict, r: dict) -> Optional[str]:
    mean, var = walk_moments(p["depth"])
    deviation = abs(r["mean_final_complexity"] - mean)
    if not deviation <= SIGMAS * math.sqrt(var / p["trials"]):
        return f"walk mean off the exact mean {mean:.6f} by {deviation:.3e}"
    if not 0 <= r["max_complexity"] <= p["depth"]:
        return f"max complexity {r['max_complexity']} outside [0, depth]"
    return None


@lru_cache(maxsize=None)
def walk_moments(depth: int) -> tuple[float, float]:
    """Exact mean and variance of the reflecting +-1 walk after `depth` steps.

    O(depth^2) recursion over the distribution of the complexity value.
    """
    probs = [1.0]
    for _ in range(depth):
        nxt = [0.0] * (len(probs) + 1)
        for c, w in enumerate(probs):
            nxt[max(c - 1, 0)] += w / 2
            nxt[c + 1] += w / 2
        probs = nxt
    mean = math.fsum(c * w for c, w in enumerate(probs))
    second = math.fsum(c * c * w for c, w in enumerate(probs))
    return mean, second - mean * mean


_CHECKS = {
    "chain": _chain,
    "branch": _branch,
    "schmidt": _schmidt,
    "overlap": _overlap,
    "zeno-random": _zeno_random,
    "evolve": _evolve,
}
