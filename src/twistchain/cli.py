"""Command-line front end.

    twistchain verify <suite> [--n-sites N] [--xi X] [--eta E]
                      [--boundary periodic|open] [--samples K] [--seed S]
                      [--complex-xi] [--tol CHECK=VALUE ...]
                      [--config FILE] [--format json|csv] [--out PATH]

Suites: ybe rtt cr spectrum bethe symmetry fusion twist all.

Precedence: command-line flags override the config file, which overrides
built-in defaults. The environment variable TWISTCHAIN_SEED supplies the
default seed. The exit status is 1 when a check that is not an
expected-failure check fails, and 2, with no report written, when
RunConfig refuses a value (flag or config file; a NaN or negative
tolerance among them), the config file cannot be read, a ``--tol`` item
is not CHECK=VALUE with a non-empty CHECK and a numeric VALUE, a number
in the config file or in TWISTCHAIN_SEED does not parse, or a tolerance
override names a key that no check of the run reads. Bad input
is reported under the ``verify`` usage line with one ``twistchain verify:
error:`` line. Every refusal comes before any suite runs except the last:
the keys a suite reads are known only once it has run, so an unread
override is refused after the suites, before the report is written. A
suite that raises ends in a failing ``<suite>.error`` report before its
later checks read their keys, so then the report is written, the unread
keys are named as a warning and the exit status is 1.
"""

from __future__ import annotations

import argparse
import os
import sys

from .reporting import (
    RunConfig,
    emit_report,
    load_config_file,
    parse_complex,
    render_csv,
    render_json,
    unread_tolerances,
)
from .suites import SUITES, run_suite

SEED_ENV = "TWISTCHAIN_SEED"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistchain",
        description="verification suites for the twist-deformed spin chain",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=SUITES + ("all",))
    verify.add_argument("--n-sites", type=int, default=None)
    verify.add_argument("--xi", type=parse_complex, default=None,
                        help="deformation parameter, literal a, a+bi or a-bi")
    verify.add_argument("--eta", type=parse_complex, default=None,
                        help="spectral-parameter scale, same literal grammar")
    verify.add_argument("--boundary", choices=("periodic", "open"), default=None)
    verify.add_argument("--samples", type=int, default=None,
                        help="override the per-suite sample count")
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument("--complex-xi", action="store_true", default=None,
                        help="sample xi from the complex unit disk instead of [-1, 1]")
    verify.add_argument("--tol", action="append", default=[], metavar="CHECK=VALUE",
                        help="tolerance override, repeatable")
    verify.add_argument("--config", default=None, help="flat key = value config file")
    verify.add_argument("--format", choices=("json", "csv"), default="json")
    verify.add_argument("--out", default=None, help="write the report here (default stdout)")
    # outside input refused after parsing is reported under the verify usage
    verify.set_defaults(refuse=verify.error)
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if args.config:
        values.update(load_config_file(args.config))
    env_seed = os.environ.get(SEED_ENV)
    if env_seed is not None and "seed" not in values:
        try:
            values["seed"] = int(env_seed)
        except ValueError:
            raise ValueError(f"{SEED_ENV} expects an integer, got {env_seed!r}") from None

    overrides = {
        "seed": args.seed,
        "n_sites": args.n_sites,
        "xi": args.xi,
        "eta": args.eta,
        "boundary": args.boundary,
        "samples": args.samples,
        "complex_xi": args.complex_xi,
    }
    for key, value in overrides.items():
        if value is not None:
            values[key] = value

    tolerances = dict(values.pop("tolerances", {}))
    for item in args.tol:
        check, sep, value = item.partition("=")
        if not sep or not check.strip():
            raise ValueError(f"--tol expects CHECK=VALUE, got {item!r}")
        try:
            tolerances[check.strip()] = float(value)
        except ValueError:
            raise ValueError(f"--tol expects CHECK=VALUE with a numeric VALUE, "
                             f"got {item!r}") from None
    if tolerances:
        values["tolerances"] = tolerances
    return RunConfig(**values)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_config(args)
    except (ValueError, OSError) as exc:
        args.refuse(str(exc))
    reports = run_suite(config, args.suite)
    unread = unread_tolerances(config, reports)
    errors = [r.check_id for r in reports if r.check_id.endswith(".error")]
    if unread and not errors:
        args.refuse(f"no check of this run reads the tolerance override(s) "
                    f"{', '.join(unread)}")
    if unread:
        print(f"twistchain: warning: the tolerance override(s) {', '.join(unread)} "
              f"went unread; {', '.join(errors)} stopped a suite before its later "
              f"checks", file=sys.stderr)

    if args.out:
        emit_report(config, reports, args.format, args.out)
    else:
        text = render_json(config, reports) if args.format == "json" else render_csv(reports)
        sys.stdout.write(text)

    failed = [r for r in reports if not r.passed]
    for r in failed:
        print(f"FAIL {r.check_id}: residual {r.residual:.3e} > tol {r.tolerance:.3e}"
              + (f" ({r.notes})" if r.notes else ""), file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
