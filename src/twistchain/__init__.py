"""Numerical laboratory for a twist-deformed XXX spin chain.

Builds the triangular twist and the twisted rational R-matrix, the chain
monodromy and transfer matrices, the deformed Hamiltonian, the Bethe and
Baxter layers, the asymptotic symmetry algebra, and the fused hierarchy,
then verifies every structural identity by exact small-scale linear
algebra. See the `twistchain` CLI (`twistchain verify all`) for the
report-producing suites.
"""

from .bethe import BetheState, eval_lambda, solve_bethe, verify_tq
from .chain import (
    ChainSpec,
    HamiltonianPair,
    MonodromyBlocks,
    build_hamiltonian,
    extract_hamiltonian,
    transfer_matrix,
    verify_rtt,
)
from .reporting import VERSION, RunConfig, VerificationReport
from .rmatrix import build_f12, build_r, build_r_xi, verify_ybe
from .suites import run_suite
from .symmetry import AsymptoticData, extract_t0
from .tensor import SpectrumReport, eigenvalues, embed_at_site, match_spectra, permutation_op
from .twist import SpinRep, TwistParams, make_spin_rep, sigma_element, universal_twist

__version__ = VERSION

__all__ = [
    "AsymptoticData",
    "BetheState",
    "ChainSpec",
    "HamiltonianPair",
    "MonodromyBlocks",
    "RunConfig",
    "SpectrumReport",
    "SpinRep",
    "TwistParams",
    "VerificationReport",
    "build_f12",
    "build_hamiltonian",
    "build_r",
    "build_r_xi",
    "eigenvalues",
    "embed_at_site",
    "eval_lambda",
    "extract_hamiltonian",
    "extract_t0",
    "make_spin_rep",
    "match_spectra",
    "permutation_op",
    "run_suite",
    "sigma_element",
    "solve_bethe",
    "transfer_matrix",
    "universal_twist",
    "verify_rtt",
    "verify_tq",
    "verify_ybe",
]
