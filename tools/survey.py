"""Solve survey: record every SDP solve of perfbench passes, and compare two.

    python3 tools/survey.py record --workload ladder_l2 --seeds 0-30 \
        --out new.json [--root CHECKOUT]
    python3 tools/survey.py compare old.json new.json

``record`` runs one ``perfbench/workloads.py`` pass per workload and seed
with one BLAS thread, imports ``gwsos`` from ``CHECKOUT/src`` (default:
this checkout) and perfbench from ``CHECKOUT/perfbench`` without changing
either, and wraps ``gwsos.sdp.solve_many``.  It stores each solve's status,
iterations, objective (as ``repr``) and a SHA-256 digest of the bytes of
``y``, in call order.  So recording two checkouts and comparing them tells
whether a change keeps every iterate bit for bit.  ``compare`` prints, per
workload and over the seeds both files hold, how many solves differ in
status, iterations, objective or ``y``, the two iteration totals, and the
largest change of one solve's objective and of its iteration count, so
that a change that is not bit for bit can be judged by its size; it
exits 1 when any solve differs.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("ladder_l2", "wide_l1", "small_batch")
FIELDS = ("status", "iterations", "objective", "y")


def parse_seeds(text):
    """'0-3,7' -> [0, 1, 2, 3, 7]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record(workloads, seeds, root=ROOT):
    """{workload: {seed: [solve record, ...]}} for one pass per seed."""
    root = pathlib.Path(root).resolve()
    sys.dont_write_bytecode = True  # leave the checkout as it is
    for path in (root / "perfbench", root / "src"):
        sys.path.insert(0, str(path))
    gwsos = importlib.import_module("gwsos")
    if not pathlib.Path(gwsos.__file__).resolve().is_relative_to(root):
        sys.exit(f"error: gwsos imported from {gwsos.__file__}, not {root}")
    sdp = gwsos.sdp
    wl_module = importlib.import_module("workloads")
    solves = []
    solve_many = sdp.solve_many

    def recorded(problems, *args, **kwargs):
        sols = solve_many(problems, *args, **kwargs)
        solves.extend({"status": s.status, "iterations": s.iterations,
                       "objective": repr(s.objective_value),
                       "y": hashlib.sha256(s.y.tobytes()).hexdigest()[:16]}
                      for s in sols)
        return sols

    sdp.solve_many = recorded
    out = {}
    try:
        for name in workloads:
            for seed in seeds:
                solves.clear()
                wl_module.run_pass(wl_module.WORKLOADS[name](seed))
                out.setdefault(name, {})[str(seed)] = list(solves)
    finally:
        sdp.solve_many = solve_many
    return out


def objective_change(a, b):
    """|a - b| of two objective reprs; inf when only one is a nan."""
    if a == b:
        return 0.0
    change = abs(float(a) - float(b))
    return math.inf if math.isnan(change) else change


def compare(old, new):
    """Lines of the comparison, and whether every solve is the same."""
    lines, same = [], True
    for name in sorted(old.keys() & new.keys()):
        seeds = sorted(old[name].keys() & new[name].keys(), key=int)
        diffs = dict.fromkeys(FIELDS, 0)
        count = iters_old = iters_new = iters_max = 0
        objective_max = 0.0
        for seed in seeds:
            a, b = old[name][seed], new[name][seed]
            if len(a) != len(b):
                lines.append(f"{name} seed {seed}: {len(a)} solves against "
                             f"{len(b)}")
                same = False
            for ra, rb in zip(a, b):
                count += 1
                iters_old += ra["iterations"]
                iters_new += rb["iterations"]
                iters_max = max(iters_max,
                                abs(ra["iterations"] - rb["iterations"]))
                objective_max = max(objective_max, objective_change(
                    ra["objective"], rb["objective"]))
                for field in FIELDS:
                    diffs[field] += ra[field] != rb[field]
        same = same and not any(diffs.values())
        lines.append(
            f"{name}: seeds {','.join(seeds)}; {count} solves; differ in "
            + ", ".join(f"{field} {n}" for field, n in diffs.items())
            + f"; iterations {iters_old} -> {iters_new}; largest "
            f"|objective change| {objective_max:.2e}, |iteration change| "
            f"{iters_max}")
    return lines, same


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record")
    rec.add_argument("--workload", action="append", choices=WORKLOADS,
                     required=True)
    rec.add_argument("--seeds", default="0")
    rec.add_argument("--root", default=str(ROOT))
    rec.add_argument("--out", required=True)
    cmp = sub.add_parser("compare")
    cmp.add_argument("old")
    cmp.add_argument("new")
    args = parser.parse_args(argv)
    if args.command == "record":
        # iterates depend on the BLAS thread count; numpy is not loaded yet
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            os.environ[var] = "1"
        doc = {"root": str(pathlib.Path(args.root).resolve()),
               "blas_threads": 1,
               "workloads": record(args.workload, parse_seeds(args.seeds),
                                   args.root)}
        pathlib.Path(args.out).write_text(json.dumps(doc))
        return 0
    docs = [json.loads(pathlib.Path(p).read_text())["workloads"]
            for p in (args.old, args.new)]
    lines, same = compare(*docs)
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
