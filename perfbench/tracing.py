"""Span recording around the public entry points of the gwsos modules.

The package is not edited: ``installed`` swaps module attributes for
timing wrappers for the duration of a block and then puts the originals
back.  Spans stay in memory (name, start, end, parent id, plus the counts
read off the return value) and are written out by the caller when the run
ends.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import time

import numpy as np


@dataclasses.dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    start: float
    end: float = float("nan")
    attrs: dict = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans of one thread; calls nest strictly, so a stack suffices."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.problems: list = []  # assembled SdpProblems, for presolve

    def wrap(self, name, fn, on_return=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(sid=len(self.spans), name=name,
                        parent=self._stack[-1] if self._stack else None,
                        start=time.perf_counter())
            self.spans.append(span)
            self._stack.append(span.sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if on_return is not None:
                on_return(span, out)
            return out
        return traced


def _on_solve(span, sol):
    span.attrs.update(status=sol.status, iterations=int(sol.iterations))


def _on_oracle(span, res):
    span.attrs["evaluations"] = int(res.evaluations)


def _on_basis(span, basis):
    span.attrs.update(nvars=basis.nvars, maxdeg=basis.maxdeg)


def problem_counts(problem) -> dict:
    """Exact size counts of one assembled relaxation."""
    dims = np.array([blk.dim for blk in problem.blocks], dtype=np.int64)
    psd = dims[dims > 1]
    eq = problem.eq_lhs
    return {"moments": int(problem.nvars),
            "equalities": int(eq.shape[0]),
            "psd_blocks": int(len(psd)),
            "lp_blocks": int((dims == 1).sum()),
            "psd_entries": int((psd ** 2).sum()),
            "eq_mb": eq.nbytes / 1e6}


def free_dim(problem) -> int:
    """Nullity of the equality rows: the IPM's free dimension."""
    eq = problem.eq_lhs
    norms = np.linalg.norm(eq, axis=1)
    eq = eq[norms > 0] / norms[norms > 0, None]
    return int(problem.nvars - (np.linalg.matrix_rank(eq) if len(eq) else 0))


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap the module entry points for the duration of the block.

    An entry point the package no longer has raises, so that a lost layer
    fails the traced run instead of reading zero.
    """
    from gwsos import hierarchy, moments, oracle, sampling, sdp
    saved = []

    def patch(module, attr, name, fn=None, on_return=None):
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, tracer.wrap(name, fn or original, on_return))

    def keep_problem(span, out):
        problem, _info = out
        span.attrs.update(problem_counts(problem))
        tracer.problems.append(problem)

    try:
        patch(hierarchy, "gw_lower_bound", "hierarchy.gw_lower_bound")
        patch(hierarchy, "assemble_relaxation",
              "hierarchy.assemble_relaxation", on_return=keep_problem)
        patch(sdp, "solve", "sdp.solve", on_return=_on_solve)
        patch(moments, "get_basis", "moments.get_basis", on_return=_on_basis)
        patch(oracle, "brute_force_gw", "oracle.brute_force_gw",
              on_return=_on_oracle)
        patch(sampling, "consistency_experiment",
              "sampling.consistency_experiment")
        # names sampling's trials look up in its own globals; the bound
        # wraps the hierarchy span, so hierarchy.* covers every call
        patch(sampling, "gw_lower_bound", "sampling.gw_lower_bound",
              fn=hierarchy.gw_lower_bound)
        patch(sampling, "build_dyadic_partition",
              "sampling.build_dyadic_partition")
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it its child spans cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end))
                for c in children.get(s.sid, ())]
        out[s.sid] = s.duration - _covered([k for k in kids if k[1] > k[0]])
    return out


def self_time_by_name(spans) -> dict:
    own = self_times(spans)
    totals: dict[str, float] = {}
    for s in spans:
        totals[s.name] = totals.get(s.name, 0.0) + own[s.sid]
    return totals


def span_records(spans) -> list:
    return [{"id": s.sid, "name": s.name, "parent": s.parent,
             "start": s.start, "end": s.end, **s.attrs} for s in spans]


def time_presolve(problems) -> float:
    """Seconds of ``sdp.solve(problem, max_iter=0)`` over the problems."""
    from gwsos import sdp
    start = time.perf_counter()
    for problem in problems:
        sdp.solve(problem, max_iter=0)
    return time.perf_counter() - start


def time_bases(keys) -> float:
    """Seconds to build the (nvars, maxdeg) bases, bypassing the cache."""
    from gwsos import moments
    start = time.perf_counter()
    for nvars, maxdeg in keys:
        moments.get_basis.__wrapped__(nvars, maxdeg)
    return time.perf_counter() - start


def layer_metrics(tracer: Tracer, traced_wall: float,
                  plain_wall: float) -> dict:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    spans = tracer.spans
    own = self_time_by_name(spans)

    def named(name):
        return [s for s in spans if s.name == name]

    solves = named("sdp.solve")
    presolve_s = time_presolve(tracer.problems)
    free_dims = [free_dim(p) for p in tracer.problems]
    ipm_s = own.get("sdp.solve", 0.0) - presolve_s
    iterations = sum(s.attrs["iterations"] for s in solves)
    counts = [s.attrs for s in named("hierarchy.assemble_relaxation")]
    bases = sorted({(s.attrs["nvars"], s.attrs["maxdeg"])
                    for s in named("moments.get_basis")})
    oracles = named("oracle.brute_force_gw")
    self_sum = sum(own.values())
    out = {
        "sdp.presolve_s": (presolve_s, "s"),
        "sdp.ipm_s": (ipm_s, "s"),
        "sdp.iterations": (iterations, "count"),
        "sdp.iter_s": (ipm_s / iterations if iterations else 0.0, "s"),
        "sdp.solves": (len(solves), "count"),
        "sdp.optimal_ratio": (sum(s.attrs["status"] == "optimal"
                                  for s in solves) / max(len(solves), 1), "1"),
        "sdp.free_dim": (sum(free_dims), "count"),
        "sdp.schur_mb": (max(free_dims, default=0) ** 2 * 8 / 1e6, "MB"),
        "hierarchy.assemble_s": (own.get("hierarchy.assemble_relaxation",
                                         0.0), "s"),
        "hierarchy.bound_self_s": (own.get("hierarchy.gw_lower_bound", 0.0),
                                   "s"),
        "hierarchy.bound_calls": (len(named("hierarchy.gw_lower_bound")),
                                  "count"),
    }
    for key in ("moments", "equalities", "psd_blocks", "lp_blocks",
                "psd_entries"):
        out[f"hierarchy.{key}"] = (sum(c[key] for c in counts), "count")
    out["hierarchy.eq_mb"] = (max((c["eq_mb"] for c in counts), default=0.0),
                              "MB")
    out.update({
        "moments.basis_misses": (len(bases), "count"),
        "moments.get_basis_s": (time_bases(bases), "s"),
        "oracle.call_s": (own.get("oracle.brute_force_gw", 0.0), "s"),
        "oracle.calls": (len(oracles), "count"),
        "oracle.evaluations": (sum(s.attrs["evaluations"] for s in oracles),
                               "count"),
        "sampling.bound_s": (sum(s.duration for s in
                                 named("sampling.gw_lower_bound")), "s"),
        "sampling.partition_s": (own.get("sampling.build_dyadic_partition",
                                         0.0), "s"),
        "sampling.self_s": (own.get("sampling.consistency_experiment", 0.0),
                            "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.self_sum_s": (self_sum, "s"),
        "trace.unattributed_frac": ((traced_wall - self_sum) / traced_wall,
                                    "1"),
        "trace.overhead_frac": ((traced_wall - plain_wall) / plain_wall, "1"),
    })
    return out
