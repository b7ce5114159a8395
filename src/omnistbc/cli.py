"""Command line front end.

Subcommands: validate, ber-sweep, angle-sweep, coding-gain, pep-bound.
--seed and --workers override the config file.
"""

import argparse
import math
import os
import sys

from .analysis import coding_gain, pep_upper_bound
from .config import ConfigError, load_config, snr_problem
from .kinds import REGISTRY, build_code

__all__ = ["main", "cli"]


def _fixed_port_code(args):
    """The spec and Code named by --code and --rate."""
    spec = REGISTRY.get(args.code)
    if spec is None or spec.n_ports is None:
        names = ", ".join(k for k, s in REGISTRY.items() if s.n_ports is not None)
        problem = "is an unknown kind" if spec is None else "has no enumerable codebook"
        raise ConfigError(f"--code: {args.code!r} {problem}; choose one of {names}")
    problem = spec.rate_problem(args.rate)
    if problem:
        raise ConfigError(f"--rate: {problem}")
    return spec, build_code(args.code, args.rate)


def _enumerated(args, analysis, *params):
    """``analysis(*params)``, whose ValueError is the analysis refusing a
    codebook past its pair cap: the registry's codes are full rank and the
    SNR is checked before."""
    try:
        return analysis(*params)
    except ValueError as exc:
        raise ConfigError(f"--rate: {args.rate} is too large to enumerate: {exc}") from None


def _cmd_validate(args):
    from .selfcheck import run_all_checks

    failed = 0
    for name, passed, detail in run_all_checks():
        tag = "PASS" if passed else "FAIL"
        print(f"[{tag}] {name}: {detail}")
        failed += 0 if passed else 1
    if failed:
        print(f"{failed} check(s) failed")
    return 1 if failed else 0


def _cmd_sweep(args):
    from .engine import emit_csv, run_angle_sweep, run_ber_sweep

    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.workers is not None:
        overrides["workers"] = args.workers
    cfg = load_config(args.config, **overrides)
    # An --out that cannot be written is refused before the sweep, not after.
    if os.path.isdir(args.out):
        raise ConfigError(f"--out: {args.out} is a directory")
    parent = os.path.dirname(os.path.abspath(args.out))
    if not os.path.isdir(parent):
        raise ConfigError(f"--out: directory {parent} does not exist")
    if args.command == "angle-sweep":
        points = [p for _, p in run_angle_sweep(cfg, args.snr_db)]
    else:
        points = run_ber_sweep(cfg)
    emit_csv(points, args.out)
    print(f"wrote {len(points)} points to {args.out}")
    return 0


def _cmd_coding_gain(args):
    spec, code = _fixed_port_code(args)
    gain = _enumerated(args, coding_gain, code)
    closed = spec.closed_form_gain(args.rate) if spec.closed_form_gain else None
    print(f"{gain:.12g}")
    if closed is not None and not math.isclose(gain, closed, rel_tol=1e-9, abs_tol=1e-9):
        print(
            f"warning: enumeration disagrees with closed form {closed:.12g}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_pep_bound(args):
    _, code = _fixed_port_code(args)
    problem = snr_problem(args.snr_db)
    if problem:
        raise ConfigError(f"--snr-db: {problem}")
    if not 1 <= args.k <= sys.float_info.max:
        raise ConfigError(f"--k: must be at least 1 and at most {sys.float_info.max:.6g}")
    sigma_n2 = 10.0 ** (-args.snr_db / 10.0)
    bound = _enumerated(args, pep_upper_bound, code, sigma_n2, args.k)
    if not math.isfinite(bound):
        raise ConfigError(
            f"--k, --snr-db: the bound at K = {args.k:.6g} and {args.snr_db:g} dB "
            "overflows a double"
        )
    print(f"{bound:.12g}")
    return 0


def cli(argv=None):
    parser = argparse.ArgumentParser(
        prog="omnistbc",
        description="Link-level simulator for omnidirectional space-time block codes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("validate", help="run the invariant suite")

    for name in ("ber-sweep", "angle-sweep"):
        p = sub.add_parser(name, help=f"run a {name.replace('-', ' ')}")
        p.add_argument("--config", required=True, help="key = value config file")
        p.add_argument("--out", required=True, help="output CSV path")
        p.add_argument("--seed", type=int, default=None, help="override master_seed")
        p.add_argument("--workers", type=int, default=None, help="override workers")
        if name == "angle-sweep":
            p.add_argument("--snr-db", type=float, required=True, help="fixed SNR in dB")
        p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("coding-gain", help="print the enumerated coding gain")
    p.add_argument("--code", required=True)
    p.add_argument("--rate", type=int, required=True)
    p.set_defaults(handler=_cmd_coding_gain)

    p = sub.add_parser("pep-bound", help="print the pairwise-error upper bound")
    p.add_argument("--code", required=True)
    p.add_argument("--rate", type=int, required=True)
    p.add_argument("--snr-db", type=float, required=True)
    p.add_argument("--k", type=int, default=1, help="number of user terminals")
    p.set_defaults(handler=_cmd_pep_bound)

    args = parser.parse_args(argv)
    if args.command == "validate":
        return _cmd_validate(args)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli())


if __name__ == "__main__":
    main()
