"""End-to-end acceptance checks.

One test per shipped guarantee, each printing a single pass/fail line; run
with ``pytest tests/test_acceptance.py -s`` to see the lines on success.
"""

import math
import subprocess
import sys
import time

import numpy as np

from conftest import child_env
from manyworlds import (
    BipartiteSplit,
    build_chain_tree,
    haar_random_state,
    overlap_statistics,
    polarizer_chain,
    random_projection_chain,
    reconstruct,
    rescaled_entropy_trace,
    schmidt_decompose,
    spectra_gap,
    world_count,
    evolution_walk,
)

SWEEP_SPLITS = [(2, 2), (2, 8), (4, 4), (4, 6), (8, 8)]
SWEEP_SIZE = 1000


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {name}: {verdict} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


def _sweep_states():
    for seed in range(SWEEP_SIZE):
        d_left, d_right = SWEEP_SPLITS[seed % len(SWEEP_SPLITS)]
        split = BipartiteSplit(d_left, d_right)
        yield haar_random_state(split.total, seed), split


def test_criterion_1_spectra_coincidence_sweep():
    started = time.perf_counter()
    worst = 0.0
    for psi, split in _sweep_states():
        worst = max(worst, spectra_gap(psi, schmidt_decompose(psi, split)))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-10 and elapsed < 10.0
    _report(1, "spectra coincidence sweep", ok,
            f"max gap {worst:.3e} over {SWEEP_SIZE} states, {elapsed:.1f} s")


def test_criterion_2_schmidt_reconstruction_sweep():
    started = time.perf_counter()
    worst_error = 0.0
    rank_ok = True
    for psi, split in _sweep_states():
        dec = schmidt_decompose(psi, split)
        rank_ok = rank_ok and dec.rank <= min(split.d_left, split.d_right)
        rebuilt = reconstruct(dec).amplitudes
        worst_error = max(worst_error, float(np.linalg.norm(rebuilt - psi.amplitudes)))
    elapsed = time.perf_counter() - started
    ok = worst_error < 1e-10 and rank_ok and elapsed < 10.0
    _report(2, "schmidt reconstruction sweep", ok,
            f"max error {worst_error:.3e}, ranks bounded: {rank_ok}, {elapsed:.1f} s")


def test_criterion_3_entropy_ledger_identity():
    worst_identity = 0.0
    worst_weight = 0.0
    cases = [(2, 5), (3, 4), (4, 3), (2, 3), (3, 2)]
    for seed in range(100):
        object_dim, n_devices = cases[seed % len(cases)]
        tree = build_chain_tree(object_dim, n_devices, amplitudes=None, seed=seed)
        for record in tree.ledger:
            gap = abs(record.total_entropy - math.fsum(record.branch_entropies))
            worst_identity = max(worst_identity, gap)
        leaf_sum = sum(tree.node(n).cumulative_weight for n in tree.leaf_ids())
        worst_weight = max(worst_weight, abs(leaf_sum - 1.0))
    ok = worst_identity < 1e-10 and worst_weight < 1e-9
    _report(3, "entropy ledger identity", ok,
            f"100 protocols, max identity gap {worst_identity:.3e}, "
            f"max weight defect {worst_weight:.3e}")


def test_criterion_4_arrow_of_time_protocol():
    worst_drop = 0.0
    births_ok = True
    runs = [([1, 1], 0)] + [(None, seed) for seed in (1, 2, 3)]
    for amplitudes, seed in runs:
        tree = build_chain_tree(2, 5, amplitudes=amplitudes, seed=seed)
        totals = [r.total_entropy for r in tree.ledger]
        for before, after in zip(totals, totals[1:]):
            worst_drop = max(worst_drop, before - after)
        for nid in tree.nodes:
            trace = rescaled_entropy_trace(tree, nid)
            births_ok = births_ok and trace[0][1] == 0.0
    ok = worst_drop <= 1e-12 and births_ok
    _report(4, "arrow-of-time chain protocol", ok,
            f"max entropy drop {worst_drop:.3e}, all traces born at exactly 0: {births_ok}")


def test_criterion_5_overlap_statistic():
    started = time.perf_counter()
    details = []
    ok = True
    for dim in (2, 4, 16, 64):
        rep = overlap_statistics(dim, 100_000, seed=dim)
        deviation = abs(rep.mean_overlap_sq - 1.0 / dim)
        ok = ok and deviation < 5 * rep.std_error
        details.append(f"dim {dim}: {deviation / rep.std_error:.2f} se")
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 30.0
    _report(5, "mean squared overlap is 1/dim", ok,
            ", ".join(details) + f", {elapsed:.1f} s")


def test_criterion_6_inverse_zeno_contrast():
    started = time.perf_counter()
    p0 = polarizer_chain(0).transmission_probability
    p1 = polarizer_chain(1).transmission_probability
    p2 = polarizer_chain(2).transmission_probability
    p50 = polarizer_chain(50).transmission_probability
    ladder = [polarizer_chain(k).transmission_probability for k in range(1, 60)]
    deterministic_ok = (
        abs(p0) < 1e-12
        and abs(p1 - 0.25) < 1e-12
        and abs(p2 - 27 / 64) < 1e-12
        and all(b > a for a, b in zip(ladder, ladder[1:]))
        and p50 > 0.95
    )
    random_ok = True
    means = []
    for k in (1, 2, 4):
        rep = random_projection_chain(64, k, trials=100_000, seed=k)
        means.append(rep.transmission_probability)
        random_ok = random_ok and rep.transmission_probability <= 3 / 64
    elapsed = time.perf_counter() - started
    ok = deterministic_ok and random_ok and elapsed < 60.0
    _report(6, "inverse-zeno contrast", ok,
            f"polarizer 0/{p1:.2f}/{p2:.6f}, k=50: {p50:.4f}; random means "
            + "/".join(f"{m:.2e}" for m in means) + f" <= {3 / 64:.2e}, {elapsed:.1f} s")


def test_criterion_7_world_count_orders_of_magnitude():
    started = time.perf_counter()
    linear = world_count().log10_worlds
    expo = world_count(growth_model="exponential").log10_log10_worlds
    elapsed = time.perf_counter() - started
    ok = abs(linear - 60.91) < 0.05 and abs(expo - 60.54) < 0.05 and elapsed < 1.0
    _report(7, "world count brackets", ok,
            f"linear log10 {linear:.4f}, exponential log10 log10 {expo:.4f}, {elapsed:.3f} s")


def test_criterion_8_evolution_walk():
    started = time.perf_counter()
    full = evolution_walk(20, "full-branching")
    # exhaustive oracle for the depth-10 reflecting walk
    probs = {0: 1.0}
    for _ in range(10):
        nxt = {}
        for c, p in probs.items():
            for target in (max(c - 1, 0), c + 1):
                nxt[target] = nxt.get(target, 0.0) + p / 2
        probs = nxt
    oracle_mean = sum(c * p for c, p in probs.items())
    oracle_var = sum(c * c * p for c, p in probs.items()) - oracle_mean**2
    single = evolution_walk(10, "single-history", seed=8, trials=100_000)
    deviation = abs(single.mean_final_complexity - oracle_mean)
    bound = 5 * math.sqrt(oracle_var / 100_000)
    elapsed = time.perf_counter() - started
    ok = full.max_complexity == 20 and deviation < bound and elapsed < 30.0
    _report(8, "complexity walk", ok,
            f"full-branching max {full.max_complexity}, single-history off by "
            f"{deviation:.4f} (< {bound:.4f}), {elapsed:.1f} s")


CLI_RUNS = [
    ["schmidt", "--d-left", "4", "--d-right", "6", "--seed", "11"],
    ["branch", "--dim", "3", "--seed", "11"],
    ["chain", "--dim", "2", "--devices", "4", "--seed", "11"],
    ["overlap", "--dim", "8", "--trials", "2000", "--seed", "11"],
    ["zeno", "--k", "3", "--format", "csv"],
    ["zeno-random", "--dim", "8", "--k", "2", "--trials", "1000", "--seed", "11"],
    ["worlds", "--model", "exponential"],
    ["evolve", "--depth", "10", "--mode", "single-history", "--trials", "2000", "--seed", "11"],
]


def test_criterion_9_cli_determinism(tmp_path):
    all_identical = True
    for index, args in enumerate(CLI_RUNS):
        outputs = []
        for run, threads in ((0, "1"), (1, "2")):
            out = tmp_path / f"{index}_{run}.out"
            proc = subprocess.run(
                [sys.executable, "-m", "manyworlds", *args, "--out", str(out)],
                env=child_env(OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads),
                capture_output=True,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append(out.read_bytes())
        all_identical = all_identical and outputs[0] == outputs[1]
    _report(9, "CLI byte determinism", all_identical,
            f"{len(CLI_RUNS)} experiments, reruns across thread counts identical")
