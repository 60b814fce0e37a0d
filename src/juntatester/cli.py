"""Command-line interface.

Commands: run, experiment, distance, spectrum, gen. Machine-readable JSON on
stdout, diagnostics on stderr. Exit codes: 0 success, 2 validation error,
3 fixture certification failure, 4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from .boolfn import BitString, BooleanFunction, Cube, restricted_spectrum
from .distribution import Distribution, WorkCapExceededError, distance_to_k_junta
from .harness import (
    FAR_FAMILIES,
    ExperimentConfig,
    FixtureError,
    build_fixture,
    derive_rng,
    run_trial,
    run_trials,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CERTIFICATION = 3
EXIT_RESOURCE = 4


class CliError(Exception):
    """Invalid input: the CLI exits 2."""


_EXIT_CODES = {
    CliError: EXIT_VALIDATION,
    FixtureError: EXIT_CERTIFICATION,
    WorkCapExceededError: EXIT_RESOURCE,
}


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _load(kind, path: str):
    """A function or distribution file read through `kind.from_json`."""
    try:
        return kind.from_json(_load_json(path))
    except (LookupError, ValueError, TypeError) as exc:
        label = "function" if kind is BooleanFunction else "distribution"
        raise CliError(f"invalid {label} file {path}: {exc}") from exc


def _load_pair(args) -> tuple[BooleanFunction, Distribution]:
    f = _load(BooleanFunction, args.function)
    dist = _load(Distribution, args.dist)
    if f.n != dist.n:
        raise CliError(f"dimension mismatch: function n={f.n}, distribution n={dist.n}")
    return f, dist


def _emit(doc: dict) -> None:
    json.dump(doc, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")


def _config(n: int, args, **fields) -> ExperimentConfig:
    """The flags of `run` or `gen` as one trial's config, checked by its rules."""
    try:
        return ExperimentConfig(n, args.k, args.eps, 1, args.seed, **fields)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def cmd_run(args) -> int:
    f, dist = _load_pair(args)
    config = _config(f.n, args, variant=args.variant)
    _emit(run_trial(f, dist, config, 0).to_json())  # trial 0 of `experiment` on these files
    return EXIT_OK


def cmd_experiment(args) -> int:
    try:
        config = ExperimentConfig.from_json(_load_json(args.config))
    except (KeyError, ValueError, TypeError) as exc:
        raise CliError(f"invalid experiment config: {exc}") from exc
    _emit(run_trials(config).to_json())
    return EXIT_OK


def cmd_distance(args) -> int:
    f, dist = _load_pair(args)
    if args.k < 0:
        raise CliError("k must be nonnegative")
    _emit(distance_to_k_junta(f, dist, args.k).to_json())
    return EXIT_OK


def cmd_spectrum(args) -> int:
    f = _load(BooleanFunction, args.function)
    try:
        cube = Cube(BitString.from_str(args.cube_x), BitString.from_str(args.cube_y))
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if cube.n != f.n:
        raise CliError(f"cube dimension {cube.n} != function dimension {f.n}")
    spectrum = restricted_spectrum(f, cube)
    known = {spectrum.subset_for_mask(m): float(c) for m, c in enumerate(spectrum.coefficients)}
    positions = sorted(cube.disagreement)  # every subset is printed, a zero one as 0.0
    coefficients = {}
    for mask in range(1 << len(positions)):
        subset = [v for j, v in enumerate(positions) if mask >> j & 1]
        coefficients[",".join(map(str, subset))] = known.get(frozenset(subset), 0.0)
    _emit(
        {
            "coefficients": coefficients,
            "squared_sum": float(spectrum.squared().sum()),
        }
    )
    return EXIT_OK


def _write_all(outputs: list[tuple[str, dict]]) -> None:
    """Each document to a temporary name in its target's directory, then each
    renamed over its target: a failure anywhere removes the temporaries and
    the targets renamed so far, so no output is left from a failed call."""
    staged, renamed = [], []
    try:
        for i, (path, doc) in enumerate(outputs):
            temp = os.path.join(os.path.dirname(path), f".junta-test-{os.getpid()}-{i}.tmp")
            with open(temp, "x") as fh:
                staged.append(temp)
                json.dump(doc, fh, sort_keys=True)
        for temp, (path, _) in zip(staged, outputs):
            os.replace(temp, path)
            renamed.append(path)
    except OSError as exc:
        for leftover in staged + renamed:
            with contextlib.suppress(OSError):
                os.remove(leftover)
        raise CliError(f"cannot write {path}: {exc}") from exc


def cmd_gen(args) -> int:
    if args.kind == "junta" and args.out_certificate is not None:
        raise CliError("--out-certificate applies only to a far kind: a junta has no certificate")
    # the config refuses what does not apply, such as a far kind with a support size
    fixture = {"kind": "junta"} if args.kind == "junta" else {"kind": "far", "family": args.kind}
    if args.support_size is not None:
        fixture.update(dist="sparse", support_size=args.support_size)
    config = _config(args.n, args, fixture=fixture)
    named = {}  # real path -> the flag that named it first
    for flag, path in (("--out-function", args.out_function), ("--out-dist", args.out_dist),
                       ("--out-certificate", args.out_certificate)):
        if path is None:
            continue
        if not (path and os.path.isdir(os.path.dirname(path) or ".")):
            raise CliError(f"output path {path!r} is empty or in a missing directory")
        if os.path.isdir(path):
            raise CliError(f"output path {path!r} is a directory")
        first = named.setdefault(os.path.realpath(path), flag)
        if first != flag:
            raise CliError(f"{first} and {flag} name one file: {path!r}")
    f, dist, certificate = build_fixture(config, derive_rng(args.seed, 0))
    outputs = [(args.out_function, f.to_json()), (args.out_dist, dist.to_json())]
    summary = {"function": args.out_function, "dist": args.out_dist}
    if certificate is not None:
        summary["distance"] = certificate.distance
        if args.out_certificate is not None:
            outputs.append((args.out_certificate, certificate.to_json()))
            summary["certificate"] = args.out_certificate
    _write_all(outputs)
    _emit(summary)
    return EXIT_OK


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
    p.add_argument("--eps", type=float, required=True)
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
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--support-size", type=int, default=None)
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
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODES[type(exc)]


if __name__ == "__main__":
    sys.exit(main())
