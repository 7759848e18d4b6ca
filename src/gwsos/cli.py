"""Command-line interface.

Every subcommand emits line-delimited JSON records with an embedded run
manifest (command, parameters, input digests, version, elapsed time).
Exit codes: 0 all checks passed / result computed, 1 input error,
2 numerical or solver issue.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import click
import numpy as np

from . import __version__, geometry, hierarchy, oracle, sampling, sdp
from .spaces import (MetricMeasureSpace, ValidationError, load_space,
                     product_coupling)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SOLVER = 2


def _digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()[:16]


def _manifest(command, params, inputs, seed=None):
    return {
        "command": command,
        "version": __version__,
        "parameters": params,
        "inputs": {str(p): _digest(p) for p in inputs},
        "seed": seed,
        "elapsed_s": None,  # filled at emit time
    }


def _jsonable(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _emit(record, manifest, started, output):
    manifest["elapsed_s"] = round(time.perf_counter() - started, 6)
    record = dict(record)
    record["manifest"] = manifest
    line = json.dumps(record, sort_keys=True, default=_jsonable)
    if output:
        with open(output, "a") as fh:
            fh.write(line + "\n")
    click.echo(line)


def _load(path) -> MetricMeasureSpace:
    try:
        return load_space(path)
    except (OSError, ValueError, KeyError) as exc:
        _input_error(str(exc))


def _input_error(message):
    """Report bad input on stderr and exit with the input-error code."""
    click.echo(f"error: {message}", err=True)
    sys.exit(EXIT_INPUT)


@click.group()
def main():
    """Semidefinite lower bounds for the Gromov-Wasserstein distance."""


_common = [
    click.option("--level", "-r", default=1, show_default=True,
                 help="Hierarchy level."),
    click.option("--p", default=1.0, show_default=True),
    click.option("--q", default=1.0, show_default=True),
    click.option("--output", "-o", default=None,
                 help="Append the JSON record to this file."),
]


def _add_options(opts):
    def deco(f):
        for opt in reversed(opts):
            f = opt(f)
        return f
    return deco


@main.command("lower-bound")
@click.argument("x_file")
@click.argument("y_file")
@_add_options(_common)
def cmd_lower_bound(x_file, y_file, level, p, q, output):
    """Level-r lower bound on the distortion between two spaces."""
    started = time.perf_counter()
    X, Y = _load(x_file), _load(y_file)
    manifest = _manifest("lower-bound",
                         {"level": level, "p": p, "q": q},
                         [x_file, y_file])
    try:
        res = hierarchy.gw_lower_bound(X, Y, p=p, q=q, level=level)
    except ValidationError as exc:
        _input_error(str(exc))
    _emit({"value": res.value, "root": res.root,
           "raw_objective": res.raw_objective, "status": res.status,
           "iterations": res.iterations, "residuals": res.residuals,
           "symmetries": res.symmetries},
          manifest, started, output)
    sys.exit(EXIT_OK if res.status == "optimal" else EXIT_SOLVER)


@main.command("oracle")
@click.argument("x_file")
@click.argument("y_file")
@_add_options(_common[1:])
def cmd_oracle(x_file, y_file, p, q, output):
    """Exact distortion minimum for tiny instances."""
    started = time.perf_counter()
    X, Y = _load(x_file), _load(y_file)
    manifest = _manifest("oracle", {"p": p, "q": q}, [x_file, y_file])
    try:
        res = oracle.brute_force_gw(X, Y, p=p, q=q)
    except ValidationError as exc:
        _input_error(str(exc))
    _emit({"value": res.value, "root": res.value ** (1.0 / p),
           "evaluations": res.evaluations,
           "coupling": res.coupling.tolist()},
          manifest, started, output)
    sys.exit(EXIT_OK)


@main.command("metric-check")
@click.argument("space_files", nargs=-1, required=True)
@_add_options(_common)
@click.option("--tol", default=1e-4, show_default=True)
def cmd_metric_check(space_files, level, p, q, output, tol):
    """Pseudo-metric axioms of the rooted bound across given spaces."""
    started = time.perf_counter()
    if len(space_files) < 3:
        _input_error(
            "metric-check needs at least 3 spaces for triangle checks")
    spaces = [_load(f) for f in space_files]
    manifest = _manifest("metric-check",
                         {"level": level, "p": p, "q": q, "tol": tol},
                         space_files)
    try:
        report = geometry.pseudo_metric_check(spaces, p=p, q=q, level=level)
    except ValidationError as exc:
        _input_error(str(exc))
    statuses = {str(k): v for k, v in report.statuses}
    bad_solve = any(v not in ("optimal",) for v in statuses.values())
    _emit({"roots": report.roots.tolist(),
           "symmetry_error": report.symmetry_error,
           "diagonal_max": report.diagonal_max,
           "max_triangle_violation": report.max_triangle_violation,
           "passed": report.passed(tol),
           "solver_statuses": statuses},
          manifest, started, output)
    if bad_solve:
        sys.exit(EXIT_SOLVER)
    sys.exit(EXIT_OK if report.passed(tol) else EXIT_SOLVER)


@main.command("glue-check")
@click.argument("x_file")
@click.argument("y_file")
@click.argument("z_file")
@_add_options(_common)
@click.option("--tol", default=1e-6, show_default=True)
def cmd_glue_check(x_file, y_file, z_file, level, p, q, output, tol):
    """Glue product-coupling tensors through the middle space."""
    started = time.perf_counter()
    X, Y, Z = _load(x_file), _load(y_file), _load(z_file)
    manifest = _manifest("glue-check",
                         {"level": level, "p": p, "q": q, "tol": tol},
                         [x_file, y_file, z_file])
    P = hierarchy.coupling_tensor_measure(
        product_coupling(X.weights, Y.weights).pi, level)
    Q = hierarchy.coupling_tensor_measure(
        product_coupling(Y.weights, Z.weights).pi, level)
    try:
        _, R = geometry.glue(P, Q, Y.weights)
    except ValueError as exc:
        _input_error(str(exc))
    report = hierarchy.check_tensor_measure(R, X.weights, Z.weights, tol=tol)
    _emit({"passed": report.passed,
           "symmetry_error": report.symmetry_error,
           "marginal_error": report.marginal_error,
           "min_eigenvalue": report.min_eigenvalue},
          manifest, started, output)
    sys.exit(EXIT_OK if report.passed else EXIT_SOLVER)


@main.command("concentrate")
@click.argument("x_file")
@click.option("--epsilon", required=True, type=float,
              help="Cell radius for the greedy covering.")
@click.option("--output", "-o", default=None)
def cmd_concentrate(x_file, epsilon, output):
    """Coarsen a space onto cell representatives."""
    started = time.perf_counter()
    X = _load(x_file)
    manifest = _manifest("concentrate", {"epsilon": epsilon}, [x_file])
    part = geometry.build_cell_partition(X, epsilon)
    coarse = geometry.concentrate_space(X, part)
    _emit({"cells": [list(c) for c in part.cells],
           "representatives": list(part.representatives),
           "radius": part.radius,
           "coarse_space": {"labels": list(coarse.labels),
                            "dist": coarse.dist.tolist(),
                            "weights": coarse.weights.tolist()}},
          manifest, started, output)
    sys.exit(EXIT_OK)


@main.command("experiment")
@click.option("--ground", default="interval", show_default=True,
              help="'interval', 'circle', or a path to a finite space file.")
@click.option("--grid", default=64, show_default=True,
              help="Grid size standing in for continuous ground measures.")
@click.option("--sizes", default="4,16,64", show_default=True)
@click.option("--trials", default=20, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--level", "-r", default=1, show_default=True)
@click.option("--p", default=1.0, show_default=True)
@click.option("--q", default=1.0, show_default=True)
@click.option("--k-star", default=3, show_default=True)
@click.option("--rate-s", default=None, type=float,
              help="Dimension parameter for the rate-bound curve.")
@click.option("--eps-prime", default=1.0, show_default=True)
@click.option("--output", "-o", default=None)
def cmd_experiment(ground, grid, sizes, trials, seed, level, p, q,
                   k_star, rate_s, eps_prime, output):
    """Sampling-consistency experiment against a ground measure."""
    started = time.perf_counter()
    if ground == "interval":
        gd = sampling.ground_interval(grid)
        inputs = []
    elif ground == "circle":
        gd = sampling.ground_circle(grid)
        inputs = []
    else:
        gd = sampling.ground_finite(_load(ground))
        inputs = [ground]
    try:
        size_list = [int(s) for s in sizes.split(",") if s]
    except ValueError:
        _input_error(f"cannot parse sizes '{sizes}'")
    config = {"ground": gd, "sizes": size_list, "trials": trials,
              "seed": seed, "p": p, "q": q, "level": level,
              "k_star": k_star}
    if rate_s is not None:
        config["rate_s"] = rate_s
        config["eps_prime"] = eps_prime
    manifest = _manifest("experiment",
                         {"ground": ground, "grid": grid,
                          "sizes": size_list, "trials": trials,
                          "level": level, "p": p, "q": q,
                          "k_star": k_star, "rate_s": rate_s,
                          "eps_prime": eps_prime},
                         inputs, seed=seed)
    try:
        report = sampling.consistency_experiment(config)
    except ValidationError as exc:
        _input_error(str(exc))
    _emit({"sizes": list(report.sizes),
           "means": list(report.means),
           "stdevs": list(report.stdevs),
           "stderrs": list(report.stderrs),
           "transport_means": list(report.transport_means),
           "rate_curve": list(report.rate_curve),
           "fitted_exponent": report.fitted_exponent,
           "failures": report.failures},
          manifest, started, output)
    # plain columnar table for external plotting
    click.echo("n\tmean\tstderr\ttransport\trate_bound")
    for i, n in enumerate(report.sizes):
        rb = report.rate_curve[i] if report.rate_curve else float("nan")
        click.echo(f"{n}\t{report.means[i]:.6g}\t{report.stderrs[i]:.6g}"
                   f"\t{report.transport_means[i]:.6g}\t{rb:.6g}")
    sys.exit(EXIT_SOLVER if report.failures else EXIT_OK)


@main.command("solver-dump")
@click.argument("x_file")
@click.argument("y_file")
@_add_options(_common)
def cmd_solver_dump(x_file, y_file, level, p, q, output):
    """Write the assembled SDP to a JSON file without solving it."""
    started = time.perf_counter()
    X, Y = _load(x_file), _load(y_file)
    manifest = _manifest("solver-dump", {"level": level, "p": p, "q": q},
                         [x_file, y_file])
    try:
        problem, info = hierarchy.assemble_relaxation(X, Y, p=p, q=q,
                                                      level=level)
    except ValidationError as exc:
        _input_error(str(exc))
    path = output or "problem.json"
    sdp.dump_problem(problem, path)
    _emit({"problem_file": path, "nvars": problem.nvars,
           "num_equalities": len(problem.eq_rhs),
           "blocks": _block_labels(info.parts)},
          manifest, started, None)
    sys.exit(EXIT_OK)


def _block_labels(parts):
    """One label per block, in the order of the problem's records.

    The hierarchy stacks blocks of one size in order of first appearance,
    so the labels of each part join those of its size.  M_r is "moment",
    its isotypic block of signs (+1, -1) "moment[+,-]", and the localizing
    block of entries 0 and 3 "loc[0,3]".
    """
    labels = {}
    for d, what in parts:
        if what is None:
            new = ["moment"]
        elif isinstance(what, tuple):
            new = [f"moment[{','.join('+' if s > 0 else '-' for s in what)}]"]
        else:
            new = [f"loc[{','.join(map(str, row))}]" for row in what.tolist()]
        labels.setdefault(d, []).extend(new)
    return [label for group in labels.values() for label in group]


if __name__ == "__main__":
    main()
