"""Verification suites: seeded parameter sweeps over the module checks.

Each suite draws its samples from an rng stream derived from (seed, suite
index), so single-suite runs are independent of the composition of ``all``
and identical configs produce identical report lists, byte for byte after
serialization.

Sampling follows fixed conventions: spectral parameters come from the
annulus 0.5 <= |u| <= 5 with pole configurations rejected; the deformation
parameter is drawn uniformly from [-1, 1] (or from the complex unit disk
with ``complex_xi``) in sweeps that randomize it, and taken from the config
where a single deformation is meant.

Every report is built by ``_Check``, which names the check once and reads
its tolerance override from the config: the key is the check id, except
that all relations of the displayed CR table share ``cr.relations`` and all
E/G relations share ``symmetry.relations``; three pass thresholds on counts
and probes take no override. The two relation tables go through one
reducer, ``_relation_reports``, which flags a relation as a suspected
misprint only when ``relations.KNOWN_MISPRINTS`` records it.

Every sampled sweep is summarised by ``_worst``: its largest sample, 0.0
with none, and NaN, which fails the check, when any sample is NaN.
"""

from __future__ import annotations

import numpy as np

from . import bethe as bt
from . import chain as ch
from . import fusion as fu
from . import relations as rl
from . import rmatrix as rm
from . import symmetry as sy
from . import twist as tw
from .reporting import (
    RunConfig,
    VerificationReport,
    expected_failure_report,
    format_complex,
    report_from_residual,
)
from .tensor import (
    SM,
    add_local,
    eigenvalues,
    hermitian_eigenvalues,
    match_spectra,
    permutation_op,
    rel_residual,
)

SUITES = ("ybe", "rtt", "cr", "spectrum", "bethe", "symmetry", "fusion", "twist")
_STREAM = {name: 17 + 3 * i for i, name in enumerate(SUITES)}

# Registry for the coverage audit: each check id must start with the prefix
# of exactly one suite.
SUITE_PREFIXES = {name: name + "." for name in SUITES}

# a relation fails at every sample when even its best residual is above this
_MISPRINT_FLOOR = 1e-6


class _Check:
    """One check id and its tolerance; every suite report is built here.

    The tolerance is the config override of `key` (the check id unless a
    group of checks shares one key) or `default`; each report carries the
    key, so an override that no report was judged under can be rejected. A
    `fixed` tolerance is a pass threshold on a count or a probe, takes no
    override and carries no key.
    """

    def __init__(self, config: RunConfig, check_id: str, default: float,
                 key: str | None = None, fixed: bool = False):
        self.check_id = check_id
        self.key = None if fixed else key or check_id
        self.tolerance = float(default) if fixed else config.tolerance(self.key, default)

    def report(self, params: dict, residual: float, notes: str = "") -> VerificationReport:
        return report_from_residual(self.check_id, params, residual, self.tolerance, notes,
                                    tolerance_key=self.key)

    def expected_failure(self, params: dict, residual: float, notes: str) -> VerificationReport:
        """A check that must fail: it passes while the residual stays above the tolerance."""
        return expected_failure_report(self.check_id, params, residual, self.tolerance, notes,
                                       tolerance_key=self.key)


def _rng(config: RunConfig, suite: str) -> np.random.Generator:
    return np.random.default_rng([config.seed & 0xFFFFFFFFFFFFFFFF, _STREAM[suite]])


def _sample_u(rng: np.random.Generator, avoid=(), min_gap: float = 0.1) -> complex:
    """Point from the annulus 0.5 <= |u| <= 5, rejected near listed poles."""
    for _ in range(1000):
        r = rng.uniform(0.5, 5.0)
        theta = rng.uniform(0.0, 2 * np.pi)
        u = r * np.exp(1j * theta)
        if all(abs(u - p) >= min_gap for p in avoid):
            return complex(u)
    raise RuntimeError("rejection sampling failed to find a pole-free point")


def _sample_xi(rng: np.random.Generator, config: RunConfig) -> complex:
    if config.complex_xi:
        r = np.sqrt(rng.uniform(0.0, 1.0))
        theta = rng.uniform(0.0, 2 * np.pi)
        return complex(r * np.exp(1j * theta))
    return complex(rng.uniform(-1.0, 1.0))


def _sample_xi_u_v(rng: np.random.Generator, config: RunConfig) -> dict:
    """A deformation and two distinct spectral parameters, drawn in that order."""
    xi = _sample_xi(rng, config)
    u = _sample_u(rng)
    return {"xi": xi, "u": u, "v": _sample_u(rng, avoid=(u,))}


def _count(config: RunConfig, default: int) -> int:
    return config.samples if config.samples is not None else default


def _worst(samples) -> float:
    """The residual of a sweep: its largest sample, 0.0 when there is none,
    and NaN when any sample is NaN, so that the check fails.

    Every sample is consumed, so a generator that draws from an rng stream
    advances it the same whatever the residuals read.
    """
    return float(np.max(list(samples), initial=0.0))


def _worst_sample(samples: int, draw, residual) -> tuple[float, dict]:
    """``_worst`` over `samples` draws of params, and the params of the first
    draw that reached it: the first NaN draw if there is one, {} when every
    residual is 0."""
    draws = [draw() for _ in range(samples)]
    residuals = [residual(**params) for params in draws]
    worst = _worst(residuals)
    # argmax returns the first maximum, and the first NaN when there is one
    return worst, draws[int(np.argmax(residuals))] if worst != 0.0 else {}


def _commutator(a: np.ndarray, b: np.ndarray) -> float:
    """||AB - BA|| / ||AB||, the denominator floored at 1e-300."""
    ab = a @ b
    return float(np.linalg.norm(ab - b @ a) / max(np.linalg.norm(ab), 1e-300))


def _relation_reports(config: RunConfig, suite: str, sweeps, params: dict,
                      default: float) -> list[VerificationReport]:
    """One report per relation of a displayed table, on its ``_worst`` residual.

    `sweeps` holds the relation records of each sample (records marked
    ``skipped`` are left out), each carrying its relation's note; every
    relation shares the tolerance key ``<suite>.relations``. A relation
    recorded in ``relations.KNOWN_MISPRINTS`` whose every residual is above
    the misprint floor is flagged as a suspected misprint, never corrected,
    and reported as an expected failure; every other relation, one with a
    NaN sample included, must hold at every sample.
    """
    residuals: dict[str, list[float]] = {}
    notes: dict[str, str] = {}
    for records in sweeps:
        for record in records:
            if "skipped" in record:
                continue
            residuals.setdefault(record["rel_id"], []).append(record["residual"])
            notes.setdefault(record["rel_id"], record["note"])
    reports = []
    for rid, values in residuals.items():
        check = _Check(config, f"{suite}.{rid}", default, key=f"{suite}.relations")
        worst = _worst(values)
        if rid in rl.KNOWN_MISPRINTS and all(res > _MISPRINT_FLOOR for res in values):
            reports.append(check.expected_failure(
                dict(params), worst,
                notes="fails for every sampled parameter point; flagged as a suspected "
                      "misprint, not corrected. " + rl.KNOWN_MISPRINTS[rid],
            ))
        else:
            reports.append(check.report(dict(params), worst, notes=notes[rid]))
    return reports


def suite_ybe(config: RunConfig) -> list[VerificationReport]:
    rng = _rng(config, "ybe")
    eta = config.eta
    reports = []
    ybe = _Check(config, "ybe.yang_baxter", 1e-12)
    for i in range(_count(config, 100)):
        point = _sample_xi_u_v(rng, config)
        residual = rm.verify_ybe(point["u"], point["v"], tw.TwistParams(point["xi"], eta))
        reports.append(ybe.report({"sample": i, **point}, residual))

    r_xi_res, r_u_res = [], []
    for _ in range(50):
        xi = _sample_xi(rng, config)
        params = tw.TwistParams(xi, eta)
        r_xi_res.append(np.linalg.norm(rm.build_r_xi(xi) - rm.r_xi_from_twist(xi)))
        u = _sample_u(rng)
        r_u_res.append(np.linalg.norm(rm.build_r(u, params) - rm.build_r_conjugated(u, params)))
    reports.append(_Check(config, "ybe.construction_r_xi", 1e-13).report(
        {"samples": 50}, _worst(r_xi_res),
        notes="displayed entries against the twist product route",
    ))
    reports.append(_Check(config, "ybe.construction_r_u", 1e-13).report(
        {"samples": 50}, _worst(r_u_res),
        notes="both displayed forms of the spectral R-matrix agree",
    ))

    params = tw.TwistParams(config.xi, eta)
    reports.append(_Check(config, "ybe.regularity", 1e-13).report(
        {"xi": config.xi}, rm.verify_regularity(params),
        notes="normalized R(0) equals the permutation operator",
    ))

    p_plus, p_minus = rm.spectral_projectors(params)
    eye4 = np.eye(4)
    proj_res = _worst([
        np.linalg.norm(p_plus @ p_plus - p_plus),
        np.linalg.norm(p_minus @ p_minus - p_minus),
        np.linalg.norm(p_plus @ p_minus),
        np.linalg.norm(p_plus + p_minus - eye4),
        np.linalg.norm(permutation_op() @ rm.build_r_xi(config.xi) - (p_plus - p_minus)),
        abs(np.trace(p_plus) - 3.0),
        abs(np.trace(p_minus) - 1.0),
    ])
    reports.append(_Check(config, "ybe.projectors", 1e-13).report(
        {"xi": config.xi}, proj_res,
        notes="idempotent, orthogonal, complete; P R_xi = P+ - P-; traces 3 and 1",
    ))

    u = _sample_u(rng)
    off, scalar = rm.measure_unitarity(u, params)
    reports.append(_Check(config, "ybe.unitarity_probe", 1.0, fixed=True).report(
        {"xi": config.xi, "u": u}, off,
        notes=f"measured only, not asserted: R12(u) R21(-u) = {format_complex(scalar)} I "
              f"(compare 1 - eta^2/u^2 = {format_complex(1 - eta**2 / u**2)})",
    ))
    return reports


def suite_rtt(config: RunConfig) -> list[VerificationReport]:
    rng = _rng(config, "rtt")
    eta = config.eta
    reports = []
    per_n = _count(config, 20)
    exchange = _Check(config, "rtt.exchange", 1e-11)
    for n in range(1, min(4, config.n_sites) + 1):
        worst, worst_at = _worst_sample(
            per_n, lambda: _sample_xi_u_v(rng, config),
            lambda xi, u, v: ch.verify_rtt(ch.ChainSpec(n, tw.TwistParams(xi, eta)), u, v))
        reports.append(exchange.report({"n_sites": n, "samples": per_n, **worst_at}, worst))

    commuting = _Check(config, "rtt.commuting_transfer", 1e-11)
    for n in range(2, min(6, config.n_sites) + 1):
        worst, worst_at = _worst_sample(
            per_n, lambda: _sample_xi_u_v(rng, config),
            lambda xi, u, v: _commutator(
                ch.transfer_matrix(ch.ChainSpec(n, tw.TwistParams(xi, eta)), u),
                ch.transfer_matrix(ch.ChainSpec(n, tw.TwistParams(xi, eta)), v)))
        reports.append(commuting.report({"n_sites": n, "samples": per_n, **worst_at}, worst))

    point = _sample_xi_u_v(rng, config)
    spec = ch.ChainSpec(min(2, config.n_sites), tw.TwistParams(point["xi"], eta))
    comp = ch.rtt_components(spec, point["u"], point["v"])
    reports.append(_Check(config, "rtt.components", 1e-11).report(
        {"n_sites": spec.n_sites, **point}, _worst(res for _, res in comp),
        notes="all 16 component identities derived directly from the exchange relation",
    ))
    return reports


def suite_cr(config: RunConfig) -> list[VerificationReport]:
    rng = _rng(config, "cr")
    eta = config.eta
    n_samples = _count(config, 5)
    n = min(3, config.n_sites)
    sweeps = []
    for _ in range(n_samples):
        xi = _sample_xi(rng, config)
        u = _sample_u(rng)
        v = _sample_u(rng, avoid=(u, u - eta, u + eta), min_gap=0.2)
        spec = ch.ChainSpec(n, tw.TwistParams(xi, eta))
        sweeps.append(ch.verify_commutation_relations(spec, u, v))

    reports = _relation_reports(config, "cr", sweeps,
                                {"n_sites": n, "samples": n_samples}, 1e-12)
    variant = [record["variant_residual"] for records in sweeps for record in records
               if "variant_residual" in record]
    if variant:
        reports.append(_Check(config, "cr.DB_2_variant", 1e-12, key="cr.relations").report(
            {"n_sites": n, "samples": len(variant)}, _worst(variant),
            notes="nearest identity to the flagged DB_2 line: last term xi*B(u)*B(v)",
        ))
    return reports


def suite_spectrum(config: RunConfig) -> list[VerificationReport]:
    rng = _rng(config, "spectrum")
    eta = config.eta
    reports = []
    if config.boundary == "open":
        # The coincidence and extraction statements are periodic; for the open
        # chain the suite verifies the surviving boundary terms instead:
        # H(xi) - H(0) = xi^2 sum_bonds sm sm + xi (sm_1 - sm_N).
        n = config.n_sites
        spec_o = ch.ChainSpec(n, tw.TwistParams(config.xi, eta), "open")
        spec_0 = ch.ChainSpec(n, tw.TwistParams(0.0, eta), "open")
        diff = ch.build_hamiltonian(spec_o) - ch.build_hamiltonian(spec_0)
        dims = [2] * n
        quad = np.zeros_like(diff)
        for k in range(n - 1):
            add_local(quad, np.kron(SM, SM), dims, [k, k + 1])
        boundary = np.zeros_like(diff)
        add_local(boundary, SM, dims, [0])
        add_local(boundary, -SM, dims, [n - 1])
        residual = float(np.linalg.norm(
            diff - config.xi**2 * quad - config.xi * boundary))
        reports.append(_Check(config, "spectrum.open_boundary_terms", 1e-13).report(
            {"n_sites": n, "xi": config.xi},
            _worst([residual, ch.strictly_lowering_residual(diff, n)]),
            notes="open chain: the linear terms telescope to the boundary pair "
                  "sm_1 - sm_N and the deformation strictly lowers total sz",
        ))
        return reports
    spec = ch.ChainSpec(config.n_sites, tw.TwistParams(config.xi, eta))
    hamiltonians = None
    if spec.n_sites >= 2:
        hamiltonians = (ch.build_hamiltonian(spec),
                        ch.build_hamiltonian(ch.ChainSpec(spec.n_sites, tw.TwistParams(0.0, eta))))

    u_samples = [_sample_u(rng) for _ in range(_count(config, 5))]
    # the spectra are paired under the tolerances they are judged by
    hamiltonian = _Check(config, "spectrum.hamiltonian", 1e-8)
    transfer = _Check(config, "spectrum.transfer", 1e-7)
    h_report, h_lowering, t_reports = ch.verify_spectrum_coincidence(
        spec, u_samples, tol_h=hamiltonian.tolerance, tol_t=transfer.tolerance,
        hamiltonians=hamiltonians)
    if h_report is not None:
        reports.append(hamiltonian.report(
            {"n_sites": spec.n_sites, "xi": config.xi}, h_report.max_pair_distance,
            notes="eigenvalue multiset of H(xi) against H(0), computed blockwise in the "
                  "graded basis (block triangularity verified exactly)",
        ))
    for u, rep in t_reports:
        reports.append(transfer.report(
            {"n_sites": spec.n_sites, "xi": config.xi, "u": u}, rep.max_pair_distance))

    if spec.n_sites >= 2:
        h_xi, h_0 = hamiltonians
        reports.append(_Check(config, "spectrum.grading", 1e-13).report(
            {"n_sites": spec.n_sites, "xi": config.xi}, h_lowering,
            notes="H(xi) - H(0) strictly lowers total sz in the graded basis",
        ))
        dense_check = _Check(config, "spectrum.hamiltonian_dense", 1e-5)
        # H(0) is the exactly Hermitian XXX Hamiltonian (a test pins this);
        # the deformed side keeps the general solver
        dense = match_spectra(eigenvalues(h_xi), hermitian_eigenvalues(h_0),
                              dense_check.tolerance)
        reports.append(dense_check.report(
            {"n_sites": spec.n_sites, "xi": config.xi}, dense.max_pair_distance,
            notes="end-to-end dense cross-check; accuracy limited by eigensolver "
                  "conditioning on the defective deformed matrix",
        ))
        if complex(config.xi).imag == 0:
            # h_report holds the graded spectrum of this same H(xi), certified
            # equal to that of H(0), whose sector blocks it shares bitwise
            imag = float(np.max(np.abs(h_report.eigenvalues.imag)))
            reports.append(_Check(config, "spectrum.reality", 1e-8).report(
                {"n_sites": spec.n_sites, "xi": config.xi}, imag,
                notes="real spectrum despite non-Hermiticity",
            ))

        pair = ch.extract_hamiltonian(spec)
        fit_notes = (
            "affine fit of the log-derivative Hamiltonian to the displayed local "
            f"formula; the variant with doubled deformation coefficients fits with "
            f"residual {pair.fit_residual_doubled:.3e}, so a coefficient misprint in "
            "the displayed formula is suspected (flagged, not corrected)"
        )
        reports.append(_Check(config, "spectrum.extraction_fit", 1e-9).report(
            {"n_sites": spec.n_sites, "xi": config.xi}, pair.fit_residual, notes=fit_notes,
        ))
        reports.append(_Check(config, "spectrum.extraction_fit_doubled", 1e-9).report(
            {"n_sites": spec.n_sites, "xi": config.xi}, pair.fit_residual_doubled,
            notes="same fit against the doubled-coefficient variant (2 xi^2, 2 xi)",
        ))
        u = _sample_u(rng)
        t_u = ch.transfer_matrix(spec, u)
        reports.append(_Check(config, "spectrum.extraction_commutes", 1e-10).report(
            {"n_sites": spec.n_sites, "u": u}, _commutator(pair.h_extracted, t_u),
        ))
        reports.append(_Check(config, "spectrum.extraction_fd_agrees", 1e-6).report(
            {"n_sites": spec.n_sites},
            rel_residual(pair.h_extracted, ch.log_derivative(spec, derivative="fd")),
            notes="exact polynomial derivative against central differences, step 1e-5",
        ))
    return reports


def suite_bethe(config: RunConfig) -> list[VerificationReport]:
    rng = _rng(config, "bethe")
    eta = config.eta
    n = config.n_sites
    spec = ch.ChainSpec(n, tw.TwistParams(config.xi, eta))
    reports = []

    u = _sample_u(rng, avoid=(0.0,))
    omega = ch.vacuum_state(n)
    on_vacuum = ch.monodromy_blocks_apply(spec, u, omega)
    vac_res = _worst([
        np.linalg.norm(on_vacuum.a - omega),
        np.linalg.norm(on_vacuum.d - ch.vacuum_d(u, spec) * omega),
        np.max(np.abs(on_vacuum.b)),
    ])
    reports.append(_Check(config, "bethe.vacuum", 1e-11).report(
        {"n_sites": n, "xi": config.xi, "u": u}, vac_res,
        notes="A O = O, D O = d(u) O, B O = 0 on the all-down vacuum",
    ))

    if n >= 2:
        closed = bt.one_magnon_roots(n, eta)
        defects = []
        states = [bt.BetheState(n, 0, (), 0.0, eta)]
        for root in closed:
            state = bt.solve_bethe(n, 1, eta, [root * 1.1 + 0.03])
            defects.extend([state.residual, abs(state.roots[0] - root)])
            states.append(state)
        reports.append(_Check(config, "bethe.one_magnon_roots", 1e-12).report(
            {"n_sites": n, "found": len(closed)}, _worst(defects),
            notes="solver lands on the closed-form roots eta/(1 - w), w^N = 1",
        ))

        on_shell = []
        for root in closed:
            u2 = _sample_u(rng, avoid=(root, root + eta))
            lam = bt.eval_lambda(u2, bt.BetheState(n, 1, (complex(root),), 0.0, eta))
            psi = bt.magnon_product_state(spec, [root])
            on_shell.append(np.linalg.norm(ch.transfer_apply(spec, u2, psi) - lam * psi)
                            / np.linalg.norm(psi))
        reports.append(_Check(config, "bethe.one_magnon_on_shell", 1e-10).report(
            {"n_sites": n, "xi": config.xi}, _worst(on_shell),
        ))

        off_shell = []
        for _ in range(_count(config, 20)):
            u3 = _sample_u(rng)
            off_shell.append(bt.verify_one_magnon_action(spec, u3, _sample_u(rng, avoid=(u3,))))
        reports.append(_Check(config, "bethe.one_magnon_off_shell", 1e-11).report(
            {"n_sites": n, "xi": config.xi, "samples": _count(config, 20)}, _worst(off_shell),
            notes="three-term action of t(u) on C(v) O",
        ))

    if n >= 4:
        found: list[bt.BetheState] = []
        for seed in bt.two_magnon_seeds(n, eta):
            try:
                state = bt.solve_bethe(n, 2, eta, seed)
            except bt.BetheSolverError:
                continue
            key = tuple(np.round(np.array(state.roots), 8))
            if all(tuple(np.round(np.array(s.roots), 8)) != key for s in found):
                found.append(state)
        states.extend(found)

        pole_guard = [0.0]
        for state in found:
            for r in state.roots:
                pole_guard.extend([r, r + eta, r - eta])
        u4 = _sample_u(rng, avoid=pole_guard, min_gap=0.15)
        spectrum = ch.spectrum_of(ch.transfer_matrix(spec, u4), n)[0]
        records = bt.verify_multi_magnon_spectrum(spec, found, u4, spectrum)
        reports.append(_Check(config, "bethe.two_magnon_lambda", 1e-8).report(
            {"n_sites": n, "solutions": len(found), "u": u4},
            _worst(rec["eigenvalue_gap"] for rec in records),
            notes="every Lambda(u, roots) sits in the exact t(u) spectrum",
        ))

        # t_0(u4) shares the spectrum of t(u4); only the defects are read here
        defect0 = _worst(
            rec["eigenvector_defect"]
            for rec in bt.verify_multi_magnon_spectrum(
                ch.ChainSpec(n, tw.TwistParams(0.0, eta)), found, u4, spectrum)
        )
        reports.append(_Check(config, "bethe.product_state_undeformed", 1e-10).report(
            {"n_sites": n, "xi": 0.0, "u": u4}, defect0,
            notes="at xi = 0 the product states are genuine eigenvectors",
        ))
        if config.xi != 0:
            # the least defect, NaN when any defect is NaN, as in _worst
            defect = float(np.min([rec["eigenvector_defect"] for rec in records]))
            reports.append(_Check(config, "bethe.product_state_deformed", 1e-4).expected_failure(
                {"n_sites": n, "xi": config.xi, "u": u4}, defect,
                notes="expected failure: C(v1)C(v2) O stops being an eigenvector at "
                      "xi != 0 although its eigenvalue survives; pass means the defect "
                      "stays above the floor",
            ))

        tq = []
        for state in states:
            for _ in range(_count(config, 10)):
                avoid = [0.0]
                for r in state.roots:
                    avoid.extend([r, r + eta, r - eta])
                tq.append(bt.verify_tq(state, _sample_u(rng, avoid=avoid)))
        reports.append(_Check(config, "bethe.tq", 1e-10).report(
            {"n_sites": n, "states": len(states)}, _worst(tq),
            notes="Baxter difference equation on all found root sets",
        ))

        idem = []
        conj_fail = 0
        for state in found:
            again = bt.solve_bethe(n, 2, eta, list(state.roots))
            idem.append(np.max(np.abs(np.array(again.roots) - np.array(state.roots))))
            if complex(eta).imag == 0:
                roots = np.array(state.roots)
                if not match_spectra(roots, np.conj(roots), 1e-8).matched:
                    conj_fail += 1
        reports.append(_Check(config, "bethe.solver_idempotence", 1e-12).report(
            {"n_sites": n, "states": len(found)}, _worst(idem),
        ))
        reports.append(_Check(config, "bethe.conjugation_closure", 0.5, fixed=True).report(
            {"n_sites": n, "exceptions": conj_fail}, float(conj_fail),
            notes="root sets closed under conjugation for real eta; exceptions counted",
        ))

        reports.append(_Check(config, "bethe.lambda_analytic", 1e-9).report(
            {"n_sites": n},
            _worst(bt.lambda_pole_residue(state, j)
                   for state in found for j in range(state.magnons)),
            notes="apparent poles of Lambda(u) at the roots cancel on shell",
        ))

        audit = bt.completeness_audit(spec, u4, states, spectrum)
        known_invisible = 1 if n == 4 else 0
        reports.append(_Check(config, "bethe.completeness", 0.5, fixed=True).report(
            {"n_sites": n, **{k: audit[k] for k in ("dimension", "matched", "unmatched")}},
            float(max(0, audit["unmatched"] - known_invisible)),
            notes="descendant counting over found states; unmatched eigenvalues are "
                  "flagged, not asserted absent (at N = 4 one singular two-string "
                  "family is invisible to the logarithmic solver)",
        ))
    return reports


def suite_symmetry(config: RunConfig) -> list[VerificationReport]:
    rng = _rng(config, "symmetry")
    eta = config.eta
    n = config.n_sites
    spec = ch.ChainSpec(n, tw.TwistParams(config.xi, eta))
    reports = []

    data = sy.extract_t0(spec)
    reports.append(_Check(config, "symmetry.t0_zero_block", 1e-13).report(
        {"n_sites": n, "xi": config.xi}, data.zero_block_residual,
        notes="upper-right block of the constant term vanishes",
    ))
    reports.append(_Check(config, "symmetry.t0_inverse_pair", 1e-12).report(
        {"n_sites": n, "xi": config.xi}, data.inverse_pair_residual,
        notes="diagonal blocks of the constant term are mutually inverse",
    ))

    # the probe blocks come from a child stream: spawning does not advance
    # rng, so the sampled (xi, u) are those drawn without probes
    probe_rng = rng.spawn(1)[0]
    n_samples = _count(config, 5)
    sweeps = []
    for _ in range(n_samples):
        xi = _sample_xi(rng, config)
        u = _sample_u(rng)
        x, _ = sy.probe_block(spec.dim, probe_rng)
        sweeps.append(sy.verify_symmetry_relations(ch.ChainSpec(n, tw.TwistParams(xi, eta)), u, x))
    x, route = sy.probe_block(spec.dim, probe_rng)  # one more block, for unipotent
    params = {"n_sites": n, "samples": n_samples, "probe": route,
              "probe_columns": sy.PROBE_COLUMNS}
    reports.extend(_relation_reports(config, "symmetry", sweeps, params, 1e-11))

    # E - I strictly lowers total sz, so N + 1 applications leave exact zeros
    for _ in range(n + 1):
        x = data.e @ x - x
    reports.append(_Check(config, "symmetry.unipotent", 1e-10).report(
        {"n_sites": n, "xi": config.xi}, float(np.linalg.norm(x)),
        notes="(E - I)^(N+1) = 0, E is unipotent (E = exp of -xi times the "
              "global lowering operator)",
    ))

    coproducts = _Check(config, "symmetry.coproducts", 1e-12)
    for (n1, n2) in ((1, 1), (2, 1), (2, 2)):
        result = sy.verify_coproducts(n1, n2, config.xi, eta)
        reports.append(coproducts.report(
            {"n1": n1, "n2": n2, "xi": config.xi},
            _worst([result["e_residual"], result["g_residual"]]),
            notes=f"E and G split-chain formulas; factor order: {result['order']}",
        ))

    reports.append(_Check(config, "symmetry.order1_reading", 1e-12).report(
        {"n_sites": n, "xi": config.xi}, sy.order1_transcription_residual(spec),
        notes="exact 1/u coefficient matches the product transcription with empty "
              "boundary products",
    ))
    return reports


def suite_fusion(config: RunConfig) -> list[VerificationReport]:
    rng = _rng(config, "fusion")
    eta = config.eta
    n = min(config.n_sites, 3)
    spec = ch.ChainSpec(n, tw.TwistParams(config.xi, eta))
    reports = []

    u = _sample_u(rng, avoid=(0.0, eta, 2 * eta, 3 * eta), min_gap=0.2)
    reports.append(_Check(config, "fusion.level1_identity", 1e-13).report(
        {"n_sites": n, "u": u},
        rel_residual(fu.fused_transfer(spec, 1, u), ch.transfer_matrix(spec, u)),
        notes="level 1 equals the fundamental transfer matrix",
    ))
    reports.append(_Check(config, "fusion.level0_scalar", 1e-14).report(
        {"n_sites": n}, rel_residual(fu.fused_transfer(spec, 0, u), np.eye(spec.dim)),
        notes="trivial auxiliary representation; recorded scalar 1",
    ))

    qdet, off = fu.quantum_determinant(spec, u)
    reports.append(_Check(config, "fusion.quantum_determinant", 1e-11).report(
        {"n_sites": n, "u": u}, _worst([off, abs(qdet - ch.vacuum_d(u - eta, spec))]),
        notes="rank-one projection of the two-fold product is the scalar d(u - eta)",
    ))

    for level in (1, 2):
        worst, worst_at = _worst_sample(
            _count(config, 5),
            lambda: {"u": _sample_u(rng, avoid=(0.0, eta, 2 * eta, 3 * eta), min_gap=0.2)},
            lambda u: fu.verify_fusion_relation(spec, level, u))
        reports.append(_Check(config, f"fusion.relation_l{level}", 1e-9).report(
            {"n_sites": n, "xi": config.xi, **worst_at}, worst,
            notes="fundamental factor at u - level*eta, coefficient -d(u - level*eta); "
                  "shift convention calibrated at xi = 0, N = 1 and frozen",
        ))

    reports.append(_Check(config, "fusion.projector", 1e-11).report(
        {"n_sites": n, "xi": config.xi, "u": u},
        _worst(fu.fusion_invariance_residual(spec, level, u) for level in (2, 3)),
        notes="staggered product preserves the fused auxiliary subspace",
    ))

    v = _sample_u(rng, avoid=(0.0, eta, 2 * eta, u), min_gap=0.2)
    reports.append(_Check(config, "fusion.commuting_family", 1e-9).report(
        {"n_sites": n, "u": u, "v": v},
        _worst(_commutator(fu.fused_transfer(spec, la, u), fu.fused_transfer(spec, lb, v))
               for la in (1, 2, 3) for lb in (1, 2)),
        notes="all levels and spectral parameters commute",
    ))

    spectra = _Check(config, "fusion.spectra", 1e-7)
    spec0 = ch.ChainSpec(n, tw.TwistParams(0.0, eta))
    ev_xi, ev_0, _ = ch.spectrum_pair(fu.fused_transfer(spec, 2, u),
                                      fu.fused_transfer(spec0, 2, u), n)
    rep = match_spectra(ev_xi, ev_0, spectra.tolerance)
    reports.append(spectra.report(
        {"n_sites": n, "xi": config.xi, "u": u}, rep.max_pair_distance,
        notes="fused eigenvalue multisets coincide with the undeformed ones "
              "(graded blockwise spectra)",
    ))
    return reports


def suite_twist(config: RunConfig) -> list[VerificationReport]:
    rng = _rng(config, "twist")
    reports = []
    half = tw.make_spin_rep(0.5)

    rep_res = []
    for two_s in (1, 2, 3):
        rep = tw.make_spin_rep(two_s / 2)
        rep_res.extend([
            np.linalg.norm(rep.h @ rep.e - rep.e @ rep.h + 2 * rep.e),
            np.linalg.norm(rep.h @ rep.f - rep.f @ rep.h - 2 * rep.f),
            np.linalg.norm(rep.e @ rep.f - rep.f @ rep.e + rep.h),
            np.linalg.norm(np.linalg.matrix_power(rep.e, rep.dim)),
        ])
    reports.append(_Check(config, "twist.rep_relations", 1e-13).report(
        {"spins": "1/2,1,3/2"}, _worst(rep_res),
        notes="[h,e] = -2e, [h,f] = 2f, [e,f] = -h, e nilpotent",
    ))

    anchor = _worst(rm.fundamental_twist_matches_universal(x) for x in (0.0, 1.0, -2.0, 0.5))
    reports.append(_Check(config, "twist.anchor_f12", 0.0).report(
        {"xi_values": "0,1,-2,1/2"}, anchor,
        notes="twist at spin (1/2, 1/2) reproduces the displayed 4x4 matrix exactly",
    ))

    series, sig = [], []
    for _ in range(_count(config, 5)):
        xi = _sample_xi(rng, config)
        for (sa, sb) in ((0.5, 0.5), (0.5, 1.0), (1.0, 1.0), (1.5, 1.0)):
            ra, rb = tw.make_spin_rep(sa), tw.make_spin_rep(sb)
            series.append(rel_residual(tw.universal_twist(ra, rb, xi), tw.twist_series(ra, rb, xi)))
        for two_s in (1, 2, 3):
            rep = tw.make_spin_rep(two_s / 2)
            sig.append(np.linalg.norm(tw._nilpotent_exp(-tw.sigma_element(rep, xi))
                                      - (np.eye(rep.dim) - 2 * xi * rep.e)))
    reports.append(_Check(config, "twist.series_matches_exponential", 1e-12).report(
        {"samples": _count(config, 5)}, _worst(series),
        notes="displayed series coefficients against the closed exponential form",
    ))
    reports.append(_Check(config, "twist.sigma_exp", 1e-13).report(
        {"samples": _count(config, 5)}, _worst(sig),
        notes="exp(-sigma) = 1 - 2 xi e for spins up to 3/2",
    ))

    coc = []
    one = tw.make_spin_rep(1.0)
    for _ in range(_count(config, 5)):
        xi = complex(rng.uniform(-1.0, 1.0))
        coc.extend([tw.verify_cocycle(half, half, half, xi), tw.verify_cocycle(half, half, one, xi)])
    reports.append(_Check(config, "twist.cocycle", 1e-12).report(
        {"samples": _count(config, 5)}, _worst(coc),
        notes="triples (1/2,1/2,1/2) and (1/2,1/2,1)",
    ))

    xi = complex(rng.uniform(-1.0, 1.0))
    fmat = tw.universal_twist(half, one, xi)
    reports.append(_Check(config, "twist.inverse", 1e-13).report(
        {"xi": xi}, float(np.linalg.norm(fmat @ np.linalg.inv(fmat) - np.eye(fmat.shape[0]))),
    ))
    reports.append(_Check(config, "twist.log_roundtrip", 1e-12).report(
        {"xi": xi},
        float(np.linalg.norm(
            tw.nilpotent_log(fmat) - np.kron(half.h, tw.sigma_element(one, xi)) / 2)),
        notes="matrix log of the twist recovers the nilpotent exponent",
    ))

    similarity = _Check(config, "twist.coproduct_similarity", 1e-8)
    spect = match_spectra(
        eigenvalues(tw.twisted_coproduct(half, half, "h", xi)),
        eigenvalues(tw.coproduct(half, half, "h")),
        similarity.tolerance,
    )
    reports.append(similarity.report(
        {"xi": xi}, spect.max_pair_distance,
        notes="twisted coproduct is a similarity transform, spectra preserved",
    ))

    dev = tw.twisted_coproduct(half, half, "e", xi) - tw.coproduct(half, half, "e")
    correction = -2 * xi * np.kron(half.e, half.e)
    reports.append(_Check(config, "twist.coproduct_e_deviation", 1e-12).report(
        {"xi": xi}, float(np.linalg.norm(dev - correction)),
        notes="e is not twist-invariant (flagged): the deviation equals "
              "-2 xi e⊗e exactly at spin (1/2, 1/2)",
    ))
    return reports


_SUITE_FUNCS = {
    "ybe": suite_ybe,
    "rtt": suite_rtt,
    "cr": suite_cr,
    "spectrum": suite_spectrum,
    "bethe": suite_bethe,
    "symmetry": suite_symmetry,
    "fusion": suite_fusion,
    "twist": suite_twist,
}


def run_suite(config: RunConfig, suite: str) -> list[VerificationReport]:
    """Run one named suite (or 'all') and return its report list.

    Identical (config, suite) inputs produce identical lists; any module
    error is converted into a failing report rather than aborting the run.
    """
    if suite == "all":
        out = []
        for name in SUITES:
            out.extend(run_suite(config, name))
        return out
    if suite not in _SUITE_FUNCS:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES + ('all',)}")
    try:
        return _SUITE_FUNCS[suite](config)
    except Exception as exc:  # noqa: BLE001 - suite errors become failing reports
        return [_Check(config, f"{suite}.error", 0.0, fixed=True).report(
            {}, float("inf"), notes=f"{type(exc).__name__}: {exc}")]
