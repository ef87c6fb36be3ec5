"""Traced in-process replay of a workload's jobs through gtrim's public API.

Each call into a layer runs inside a span recorded here, from outside the
program: nothing under src/ is instrumented.  Spans stay in memory until the
run writes them out.  Exact counts are read from the objects the calls
return, outside the spans.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from math import comb

import oracle
import speed

# Span names, in pipeline order; each per-layer time metric is `<name>_s`.
LAYERS = ("pfaffians.build", "ideals.groebner", "ideals.quotient", "ideals.mult",
          "koszul.homology", "koszul.products", "koszul.classify")
COUNTS = ("ideals.gb_size", "ideals.gb_max_deg", "ideals.quotient_dim",
          "ideals.mult_cells", "ideals.mult_nnz", "koszul.diff_cells",
          "koszul.homology_rank", "koszul.products")


class Tracer:
    """Spans (name, start, end, parent, job, scale) kept in memory; off records nothing.

    `scale` turns a span's duration into nominal seconds (speed.py); it is
    set per instance once the instance has run between speed references.
    The root span of a job keeps scale 1 and includes those references.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans = []

    @contextmanager
    def span(self, name: str, job: int, parent: int | None = None):
        if not self.enabled:
            yield None
            return
        sid = len(self.spans)
        record = {"id": sid, "parent": parent, "job": job, "name": name,
                  "start": time.perf_counter(), "end": None, "scale": 1.0}
        self.spans.append(record)
        try:
            yield sid
        finally:
            record["end"] = time.perf_counter()

    def scale_from(self, first: int, factor: float):
        """Scale the spans recorded since span number `first`."""
        for s in self.spans[first:]:
            s["scale"] = factor

    def seconds(self, name: str) -> float:
        """Nominal seconds spent in spans called `name`."""
        return sum((s["end"] - s["start"]) * s["scale"]
                   for s in self.spans if s["name"] == name)


class Replay:
    """Runs jobs in-process the way the CLI does, one span per layer call."""

    def __init__(self, gtrim, tracer: Tracer):
        self.gt = gtrim
        self.tracer = tracer
        self.counts = dict.fromkeys(COUNTS, 0)
        self.instances = 0
        self.errors = []
        self.nominal_s = 0.0
        self._refs = speed.bracket()

    def run_job(self, job_id: int, job):
        """Replay one CLI job; a mismatch with the oracle is kept in `errors`."""
        gt = self.gt
        field = gt.field_of_characteristic(gt.DEFAULT_CHAR if job.char is None else job.char)
        with self.tracer.span("job", job_id) as root:
            if job.command == "hilbert":
                ring = self.timed(lambda: self.quotient(
                    job_id, root, lambda: gt.gorenstein_ideal(job.m, field)))
                got = {"m": job.m, "coefficients": list(ring.hilbert().coefficients)}
                got["closed_form"] = oracle.family_hilbert(job.m)
                got["match"] = got["coefficients"] == got["closed_form"]
            elif job.command == "classify":
                got = self.timed(lambda: self.classify(job_id, root, job.m, job.trim, field))
            else:
                lo, hi = job.m
                got = []
                for m in range(lo, hi + 1):
                    for sel in oracle.selectors(m):
                        report = self.timed(lambda: self.classify(job_id, root, m, sel, field))
                        row = {"m": m}
                        row.update((k, report[k]) for k in ("mu", "type", "p", "q", "r"))
                        row["class"] = report["display"]
                        got.append(row)
        if job.command == "classify":
            del got["display"]
        problem = oracle.check_value(job, got)
        if problem:
            self.errors.append(f"{job.label}: {problem}")

    def timed(self, instance):
        """Run one instance between speed references; scale its spans and time."""
        first = len(self.tracer.spans)
        start = time.perf_counter()
        out = instance()
        wall = time.perf_counter() - start
        before, self._refs = self._refs, speed.bracket()
        factor = speed.scale(before + self._refs)
        self.tracer.scale_from(first, factor)
        self.nominal_s += wall * factor
        return out

    def quotient(self, job_id, root, build):
        span, counts = self.tracer.span, self.counts
        with span("pfaffians.build", job_id, root):
            ideal = build()
        with span("ideals.groebner", job_id, root):
            gb = ideal.groebner_basis()
        with span("ideals.quotient", job_id, root):
            ring = ideal.quotient_ring()
        self.instances += 1
        if self.tracer.enabled:
            counts["ideals.gb_size"] += len(gb)
            counts["ideals.gb_max_deg"] = max(counts["ideals.gb_max_deg"],
                                              max(g.degree() for g in gb))
            counts["ideals.quotient_dim"] += ring.dim()
        return ring

    def classify(self, job_id, root, m, selector, field) -> dict:
        """Classify one trim as `gtrim classify` does; the report adds `display`."""
        gt, span, counts = self.gt, self.tracer.span, self.counts
        choice = gt.TrimChoice(m, selector)
        ring = self.quotient(job_id, root, lambda: gt.trimmed_ideal(choice, field))
        with span("ideals.mult", job_id, root):
            mats = [ring.mult_matrix(v, d) for d in range(ring.top_degree + 1) for v in range(3)]
        with span("koszul.homology", job_id, root):
            kz = gt.KoszulComplex(ring)
        with span("koszul.products", job_id, root):
            inv = kz.invariants()
        with span("koszul.classify", job_id, root):
            cls = kz.classify()
        ranks = kz.ranks()
        if self.tracer.enabled:
            for mat in mats:
                counts["ideals.mult_cells"] += sum(len(row) for row in mat)
                counts["ideals.mult_nnz"] += sum(1 for row in mat for c in row
                                                 if not field.is_zero(c))
            counts["koszul.diff_cells"] += sum(
                kz.component_size(i - 1, d) * kz.component_size(i, d)
                for i in range(1, 4) for d in range(i, ring.top_degree + i + 1))
            counts["koszul.homology_rank"] += sum(ranks)
            counts["koszul.products"] += comb(ranks[1], 2) + ranks[1] * ranks[2]
        return {"mu": inv.mu, "type": inv.type_rank,
                "hilbert": list(ring.hilbert().coefficients), "ranks": list(ranks),
                "p": inv.p, "q": inv.q, "r": inv.r, "class": cls.tag,
                "class_params": cls.params, "gorenstein": inv.type_rank == 1,
                "display": cls.display()}


def replay(gtrim, jobs, traced: bool = True):
    """(Replay, nominal seconds of its instances) for one pass over `jobs`."""
    rp = Replay(gtrim, Tracer(traced))
    for job_id, job in enumerate(jobs):
        rp.run_job(job_id, job)
    return rp, rp.nominal_s


def layer_metrics(rp: Replay) -> dict:
    """Per-layer metrics of a traced replay, as {name: (value, unit)}."""
    out = {f"{name}_s": (rp.tracer.seconds(name), "s") for name in LAYERS}
    out.update((name, (value, "count")) for name, value in rp.counts.items())
    cells = rp.counts["ideals.mult_cells"]
    out["ideals.mult_density"] = (rp.counts["ideals.mult_nnz"] / cells if cells else 0.0,
                                  "ratio")
    out["instances"] = (rp.instances, "count")
    return out
