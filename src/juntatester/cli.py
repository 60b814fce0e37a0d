"""Command-line interface.

Commands: run, experiment, distance, spectrum, gen. Machine-readable JSON on
stdout, diagnostics on stderr. Exit codes: 0 success, 2 validation error,
3 fixture certification failure, 4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from .boolfn import BitString, BooleanFunction, Cube, CubeTooLargeError, restricted_spectrum
from .distribution import Distribution, WorkCapExceededError, distance_to_k_junta
from .harness import (
    FAR_FAMILIES,
    ExperimentConfig,
    FixtureError,
    check_dimensions,
    derive_rng,
    gen_far_fixture,
    gen_random_junta,
    gen_sparse_distribution,
    run_trials,
)
from .oracles import MembershipOracle, QueryLedger, SampleOracle
from .tester import run_tester

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CERTIFICATION = 3
EXIT_RESOURCE = 4


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_VALIDATION):
        super().__init__(message)
        self.code = code


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _load_function(path: str) -> BooleanFunction:
    try:
        return BooleanFunction.from_json(_load_json(path))
    except (LookupError, ValueError, TypeError) as exc:
        raise CliError(f"invalid function file {path}: {exc}") from exc


def _load_distribution(path: str) -> Distribution:
    try:
        return Distribution.from_json(_load_json(path))
    except (KeyError, ValueError, TypeError) as exc:
        raise CliError(f"invalid distribution file {path}: {exc}") from exc


def _emit(doc: dict) -> None:
    json.dump(doc, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")


def cmd_run(args) -> int:
    f = _load_function(args.function)
    dist = _load_distribution(args.dist)
    if f.n != dist.n:
        raise CliError(f"dimension mismatch: function n={f.n}, distribution n={dist.n}")
    ledger = QueryLedger()
    try:
        verdict = run_tester(
            MembershipOracle(f, ledger),
            SampleOracle(dist, ledger),
            args.k,
            args.eps,
            derive_rng(args.seed, 1),
            args.variant,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    _emit(verdict.to_json())
    return EXIT_OK


def cmd_experiment(args) -> int:
    try:
        config = ExperimentConfig.from_json(_load_json(args.config))
    except (KeyError, ValueError, TypeError) as exc:
        raise CliError(f"invalid experiment config: {exc}") from exc
    try:
        report = run_trials(config)
    except FixtureError as exc:
        raise CliError(str(exc), EXIT_CERTIFICATION) from exc
    except WorkCapExceededError as exc:
        raise CliError(str(exc), EXIT_RESOURCE) from exc
    _emit(report.to_json())
    return EXIT_OK


def cmd_distance(args) -> int:
    f = _load_function(args.function)
    dist = _load_distribution(args.dist)
    if f.n != dist.n:
        raise CliError(f"dimension mismatch: function n={f.n}, distribution n={dist.n}")
    if args.k < 0:
        raise CliError("k must be nonnegative")
    try:
        cert = distance_to_k_junta(f, dist, args.k)
    except WorkCapExceededError as exc:
        raise CliError(str(exc), EXIT_RESOURCE) from exc
    _emit(cert.to_json())
    return EXIT_OK


def cmd_spectrum(args) -> int:
    f = _load_function(args.function)
    try:
        cube = Cube(BitString.from_str(args.cube_x), BitString.from_str(args.cube_y))
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if cube.n != f.n:
        raise CliError(f"cube dimension {cube.n} != function dimension {f.n}")
    try:
        spectrum = restricted_spectrum(f, cube)
    except CubeTooLargeError as exc:
        raise CliError(str(exc), EXIT_RESOURCE) from exc
    coefficients = {
        ",".join(str(i) for i in sorted(spectrum.subset_for_mask(mask))): float(c)
        for mask, c in enumerate(spectrum.coefficients)
    }
    _emit(
        {
            "coefficients": coefficients,
            "squared_sum": float((spectrum.coefficients ** 2).sum()),
        }
    )
    return EXIT_OK


def cmd_gen(args) -> int:
    try:
        check_dimensions(args.n, args.k)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if args.support_size < 0:
        raise CliError("support size must be nonnegative")
    rng = derive_rng(args.seed, 0)
    certificate = None
    if args.kind == "junta":
        f = gen_random_junta(args.n, args.k, rng)
        if args.support_size:
            dist = gen_sparse_distribution(args.n, args.support_size, rng)
        else:
            dist = Distribution.uniform(args.n)
    else:
        try:
            f, dist, certificate = gen_far_fixture(
                args.n, args.k, args.eps, rng, family=args.kind
            )
        except FixtureError as exc:
            raise CliError(str(exc), EXIT_CERTIFICATION) from exc
        except WorkCapExceededError as exc:
            raise CliError(str(exc), EXIT_RESOURCE) from exc
    with open(args.out_function, "w") as fh:
        json.dump(f.to_json(), fh, sort_keys=True)
    with open(args.out_dist, "w") as fh:
        json.dump(dist.to_json(), fh, sort_keys=True)
    summary = {"function": args.out_function, "dist": args.out_dist}
    if certificate is not None:
        summary["distance"] = certificate.distance
        if args.out_certificate:
            with open(args.out_certificate, "w") as fh:
                json.dump(certificate.to_json(), fh, sort_keys=True)
            summary["certificate"] = args.out_certificate
    _emit(summary)
    return EXIT_OK


def _positive_float(value: str) -> float:
    x = float(value)
    if not 0 < x <= 1:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {value}")
    return x


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="junta-test",
        description="Exactly simulated quantum distribution-free k-junta tester",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run the tester on function/distribution files")
    p.add_argument("--function", required=True)
    p.add_argument("--dist", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=_positive_float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--variant", choices=["classical", "amplified"], default="classical")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("experiment", help="run a seeded Monte Carlo experiment")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("distance", help="exact distance to the nearest k-junta")
    p.add_argument("--function", required=True)
    p.add_argument("--dist", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("spectrum", help="restricted Fourier spectrum on a cube")
    p.add_argument("--function", required=True)
    p.add_argument("--cube-x", required=True)
    p.add_argument("--cube-y", required=True)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("gen", help="generate fixture files")
    p.add_argument(
        "--kind",
        choices=["junta", *FAR_FAMILIES],
        required=True,
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=_positive_float, default=0.1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--support-size", type=int, default=0)
    p.add_argument("--out-function", required=True)
    p.add_argument("--out-dist", required=True)
    p.add_argument("--out-certificate", default=None)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad flags, which matches our taxonomy
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
