"""Run configuration, verification records, and report serialization.

Serialized output is deterministic: identical (config, suite) pairs produce
byte-identical files. Numbers are written with 17 significant digits,
complex values in the CLI literal grammar ``a+bi`` / ``a-bi`` / ``a``.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass, field

from .tensor import MAX_SITES
from .twist import TwistParams

VERSION = "0.1.0"

_COMPLEX = re.compile(
    r"^\s*(?P<re>[+-]?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"(?:(?P<im>[+-]\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)i)?\s*$"
)


def parse_complex(text: str) -> complex:
    """Parse the literal grammar a / a+bi / a-bi with decimal reals."""
    m = _COMPLEX.match(text)
    if m is None:
        raise ValueError(f"cannot parse complex literal {text!r} (expected a, a+bi or a-bi)")
    re_part = float(m.group("re"))
    im_part = float(m.group("im")) if m.group("im") else 0.0
    return complex(re_part, im_part)


def format_number(x: float) -> str:
    return format(float(x), ".17g")


def format_complex(z: complex) -> str:
    z = complex(z)
    if z.imag == 0:
        return format_number(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{format_number(z.real)}{sign}{format_number(abs(z.imag))}i"


@dataclass(frozen=True)
class VerificationReport:
    """One check: identifier, sampled parameters, residual, verdict.

    ``expected_failure`` marks checks whose pass condition is inverted
    (the residual must exceed the floor, the notes say why).
    ``tolerance_key`` is the override key the tolerance was looked up under
    (None for a fixed threshold); it is not part of the record.
    """

    check_id: str
    params: dict
    residual: float
    tolerance: float
    passed: bool
    notes: str = ""
    expected_failure: bool = False
    tolerance_key: str | None = None

    def to_record(self) -> dict:
        rec = {
            "check_id": self.check_id,
            "params": {k: _encode_value(v) for k, v in self.params.items()},
            "residual": format_number(self.residual),
            "tolerance": format_number(self.tolerance),
            "pass": self.passed,
        }
        if self.notes:
            rec["notes"] = self.notes
        if self.expected_failure:
            rec["expected_failure"] = True
        return rec


def _encode_value(v):
    if isinstance(v, bool) or isinstance(v, int) or isinstance(v, str):
        return v
    if isinstance(v, float):
        return format_number(v)
    if isinstance(v, complex):
        return format_complex(v)
    if isinstance(v, (list, tuple)):
        return [_encode_value(x) for x in v]
    raise TypeError(f"cannot encode parameter of type {type(v)!r}")


def report_from_residual(check_id: str, params: dict, residual: float,
                         tolerance: float, notes: str = "",
                         tolerance_key: str | None = None) -> VerificationReport:
    return VerificationReport(
        check_id=check_id, params=params, residual=float(residual),
        tolerance=float(tolerance), passed=bool(residual <= tolerance), notes=notes,
        tolerance_key=tolerance_key,
    )


def expected_failure_report(check_id: str, params: dict, residual: float,
                            floor: float, notes: str,
                            tolerance_key: str | None = None) -> VerificationReport:
    """A check that must fail: passes exactly when the residual exceeds the floor."""
    return VerificationReport(
        check_id=check_id, params=params, residual=float(residual),
        tolerance=float(floor), passed=bool(residual > floor),
        notes=notes or "expected failure: pass means the defect stays above the floor",
        expected_failure=True, tolerance_key=tolerance_key,
    )


@dataclass(frozen=True)
class RunConfig:
    """Deterministic run parameters (see the CLI for the matching flags)."""

    seed: int = 2024
    n_sites: int = 4
    xi: complex = 0.5
    eta: complex = 1.0
    boundary: str = "periodic"
    samples: int | None = None
    complex_xi: bool = False
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.samples is not None and self.samples < 1:
            raise ValueError("samples must be >= 1")
        if not 1 <= self.n_sites <= MAX_SITES:
            raise ValueError(f"n_sites must be in 1..{MAX_SITES}")
        if self.boundary not in ("periodic", "open"):
            raise ValueError("boundary must be periodic or open")
        TwistParams(self.xi, self.eta)  # refuses a non-finite xi or eta and eta = 0
        for key, value in self.tolerances.items():
            if not float(value) >= 0:  # also false for NaN
                raise ValueError(f"tolerance {key} must be >= 0, got {value!r}")

    def tolerance(self, check_id: str, default: float) -> float:
        return float(self.tolerances.get(check_id, default))

    def to_record(self) -> dict:
        return {
            "seed": self.seed,
            "n_sites": self.n_sites,
            "xi": format_complex(self.xi),
            "eta": format_complex(self.eta),
            "boundary": self.boundary,
            "samples": self.samples,
            "complex_xi": self.complex_xi,
            "tolerances": {k: format_number(v) for k, v in sorted(self.tolerances.items())},
        }


def unread_tolerances(config: RunConfig, reports: list[VerificationReport]) -> list[str]:
    """Override keys of `config` that no report's tolerance was looked up
    under: they changed nothing in the run."""
    return sorted(set(config.tolerances) - {r.tolerance_key for r in reports})


def render_json(config: RunConfig, reports: list[VerificationReport]) -> str:
    doc = {
        "version": VERSION,
        "seed": config.seed,
        "config": config.to_record(),
        "reports": [r.to_record() for r in reports],
    }
    return json.dumps(doc, indent=2) + "\n"


def render_csv(reports: list[VerificationReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["check_id", "param_summary", "residual", "tolerance", "pass"])
    for r in reports:
        summary = ";".join(f"{k}={_encode_value(v)}" for k, v in r.params.items())
        writer.writerow([
            r.check_id, summary, format_number(r.residual),
            format_number(r.tolerance), "true" if r.passed else "false",
        ])
    return buf.getvalue()


def emit_report(config: RunConfig, reports: list[VerificationReport],
                fmt: str, path: str) -> None:
    if fmt == "json":
        text = render_json(config, reports)
    elif fmt == "csv":
        text = render_csv(reports)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# the value parser of each RunConfig field a config file may set
_CONFIG_PARSERS = {
    "seed": int, "n_sites": int, "samples": int,
    "xi": parse_complex, "eta": parse_complex,
    "boundary": str,
    "complex_xi": lambda value: value.lower() in ("1", "true", "yes"),
}


def load_config_file(path: str) -> dict:
    """Flat key = value file mirroring RunConfig fields; # starts a comment.

    Tolerance overrides use keys of the form ``tol.<check_id>``.
    """
    out: dict = {}
    tolerances: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            tolerance = key.startswith("tol.") and key != "tol."
            parse = float if tolerance else _CONFIG_PARSERS.get(key)
            if parse is None:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                parsed = parse(value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
            if tolerance:
                tolerances[key[4:]] = parsed
            else:
                out[key] = parsed
    if tolerances:
        out["tolerances"] = tolerances
    return out
