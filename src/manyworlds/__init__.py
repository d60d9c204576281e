"""Desk-scale simulator of objective branching in unitary quantum mechanics.

The library is organized in four layers: Hilbert-space arithmetic with
dense states and structured (local-factor and index-gather) unitaries
(`hilbert`), the bi-orthogonal preferred-basis decomposition (`schmidt`),
the branch tree with its entropy ledger (`branching`), and seeded
statistical experiments (`experiments`). Reports and the command-line front
end live in `reporting` and `cli`; the numpy-free cap and error types in
`contracts`.

Importing the package loads no layer. Each exported name, and each layer
module named as an attribute, is imported on first use (PEP 562), so a
process loads only the layers it runs.
"""

import importlib

__version__ = "0.7.0"

# Every exported name, under the module that defines it.
_EXPORTS = {
    "contracts": ("DIM_CAP", "CapacityError", "DecompositionError", "ShapeError"),
    "hilbert": (
        "EPS_EIG", "EPS_HERM", "EPS_NORM", "EPS_RANK", "BipartiteSplit",
        "DegenerateStateError", "DensityMatrix", "StateVector", "UnitaryOperator",
        "apply_unitary", "basis_state", "eig_hermitian", "haar_random_state",
        "make_state", "partial_trace", "tensor",
    ),
    "schmidt": (
        "SchmidtDecomposition", "entanglement_entropy", "reconstruct",
        "schmidt_decompose", "spectra_gap",
    ),
    "branching": (
        "MAX_LEAVES", "BranchNode", "BranchTree", "LedgerRecord", "PointerOverflowError",
        "build_chain_tree", "interact_and_branch", "premeasurement_unitary",
        "rescaled_entropy_trace", "run_chain_protocol", "total_entropy",
    ),
    "experiments": (
        "ComplexityReport", "OverlapReport", "WorldCountConfig", "WorldCountReport",
        "ZenoReport", "evolution_walk", "overlap_statistics", "polarizer_chain",
        "random_projection_chain", "world_count",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_MODULE_OF)]


def __getattr__(name: str):
    if name in _EXPORTS:  # a layer not imported yet; importing binds it here
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value
