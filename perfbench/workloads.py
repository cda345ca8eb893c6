"""The benchmark's workloads: which `twistchain verify` calls each one makes.

Each config is a plain dict of RunConfig fields (the seed is added by the
worker from --seed), so this module needs neither numpy nor twistchain.

domain-sweep  `verify all` over N = 1..7, both boundaries, a real and a
              complex deformation: 28 configs, thousands of small checks.
              Per-call overhead in rmatrix/twist/relations/fusion/reporting
              and small lifts shows here, and every known red of the
              accepted domain is on its failing list.
all-n8        `verify all --n-sites 8`. The bethe layer dominates, through
              full monodromy builds where only vectors are needed.
spectral-n9   `verify spectrum --n-sites 9`. Polynomial coefficients of the
              monodromy, the dense Hamiltonian build and eigensolves: the
              O(N 4^N) memory wall.
"""

from __future__ import annotations

SUITES = ("ybe", "rtt", "cr", "spectrum", "bethe", "symmetry", "fusion", "twist")
DEFAULT_SEED = 2024

_REAL = {"xi": 0.5, "eta": 1.0, "complex_xi": False}
_COMPLEX = {"xi": complex(0.3, 0.4), "eta": complex(0.8, 0.3), "complex_xi": True}


def _domain_sweep():
    return [
        {"n_sites": n, "boundary": boundary, **deformation}
        for n in range(1, 8)
        for boundary in ("periodic", "open")
        for deformation in (_REAL, _COMPLEX)
    ]


WORKLOADS = {
    "domain-sweep": {"suites": SUITES, "configs": _domain_sweep()},
    "all-n8": {"suites": SUITES, "configs": [{"n_sites": 8}]},
    "spectral-n9": {"suites": ("spectrum",), "configs": [{"n_sites": 9}]},
}


def configs_for(workload: str, max_sites: int | None = None) -> list[dict]:
    configs = WORKLOADS[workload]["configs"]
    if max_sites is not None:
        configs = [c for c in configs if c["n_sites"] <= max_sites]
    if not configs:
        raise ValueError(f"workload {workload!r} has no config with n_sites <= {max_sites}")
    return configs


def config_key(config: dict) -> str:
    """Stable label of a config, used to key stored verdicts."""
    xi, eta = complex(config.get("xi", 0.5)), complex(config.get("eta", 1.0))
    return (f"n{config['n_sites']}-{config.get('boundary', 'periodic')}"
            f"-xi{xi.real:g}{xi.imag:+g}i-eta{eta.real:g}{eta.imag:+g}i")
