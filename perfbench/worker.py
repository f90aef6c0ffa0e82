"""Benchmark worker: one fresh, single-threaded process per run.

Takes a JSON spec as its only argument and sets up: imports weiersem, builds
the fields, parses every curve, basis and probe once.  With mode ``setup``
it prints the set-up time and exits.  With mode ``run`` it then runs
closed-loop passes over the workload's jobs until the next pass would end
after ``seconds``, and prints one JSON line with the set-up time, the pass
times and the raw job results.
Results are checked by the parent, outside the timed region.

In a traced run, untraced and traced passes alternate, and each traced
pass adds its per-layer numbers (see spans.py).
"""

import time

START = time.perf_counter()

import gc  # noqa: E402 - set-up time includes every import below
import hashlib
import io
import json
import os
import resource
import sys

import spans
from workloads import WORKLOADS, CliJob, PipelineJob


def _read_basis_lines(path):
    """Basis file lines as the CLI reads them: blanks and comments skipped."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh.read().splitlines()]
    return [line for line in lines if line and not line.startswith("#")]


def run_pipeline_job(ws, job, basis_lines, probe_texts):
    """The library pipeline on one curve, building every object afresh."""
    field = ws.parse_field(job.field)
    model = ws.normalize_degree(ws.parse_poly(job.curve, field))
    seq = ws.am_sequence(model)
    s_inf = ws.semigroup_at_infinity(seq)
    param = ws.parametrize(model)
    res = {"delta": list(seq.delta),
           "am_orders": [ws.valuation(param, fn).order for fn in seq.roots]}
    if basis_lines is not None:
        basis = [ws.parse_rational(line, field) for line in basis_lines]
        report = ws.triangulate(s_inf, seq.roots, basis, param)
        m = 4 * report.genus + seq.delta[0]
        res.update(gaps=list(report.gamma.gaps()), genus=report.genus,
                   l_size=len(ws.l_basis(report.table, m)))
    res["precision"] = param.precision
    probes = [ws.parse_poly(text, field) for text in probe_texts]
    res["probe_orders"] = [ws.valuation(param, g).order for g in probes]
    return res


def run_cli_job(ws, job):
    out = io.StringIO()
    code = ws.cli.run(list(job.argv), out)
    return {"exit": code, "stdout": out.getvalue()}


class Workload:
    """The jobs of one workload with their inputs read at set-up."""

    def __init__(self, ws, jobs, probes):
        self.ws = ws
        self.jobs = jobs
        self.probes = probes
        self.basis = {}
        for job in jobs:
            if isinstance(job, PipelineJob) and job.basis:
                self.basis[job.id] = _read_basis_lines(job.basis)
        self._parse_all()

    def _parse_all(self):
        """Set-up work a CLI call also pays: fields and inputs parsed once."""
        ws = self.ws
        for job in self.jobs:
            if isinstance(job, CliJob):
                for field_text, curve in job.inputs():
                    field = ws.parse_field(field_text)
                    if curve:
                        ws.parse_poly(curve, field)
                continue
            field = ws.parse_field(job.field)
            ws.parse_poly(job.curve, field)
            for line in self.basis.get(job.id, ()):
                ws.parse_rational(line, field)
            for text in self.probes.get(job.id, ()):
                ws.parse_poly(text, field)

    def run_job(self, job):
        if isinstance(job, CliJob):
            return run_cli_job(self.ws, job)
        return run_pipeline_job(self.ws, job, self.basis.get(job.id),
                                self.probes.get(job.id, ()))

    def run_pass(self, rec=None):
        results = []
        for job in self.jobs:
            span = rec.open(f"job.{job.id}") if rec else None
            try:
                results.append(self.run_job(job))
            except Exception as exc:  # noqa: BLE001 - a failed job is counted
                results.append({"error": f"{type(exc).__name__}: {exc}"})
            finally:
                if rec:
                    rec.close(span)
        return results


def digest_stdout(results):
    """Replace CLI stdout by its SHA-256 (outside the timed region)."""
    for res in results:
        if "stdout" in res:
            res["stdout_sha256"] = hashlib.sha256(
                res.pop("stdout").encode()).hexdigest()
    return results


def main():
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    import weiersem
    import weiersem.cli

    workload = Workload(weiersem, WORKLOADS[spec["workload"]], spec["probes"])
    setup_s = time.perf_counter() - START
    if spec["mode"] == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    seconds = spec["seconds"]
    # A traced run alternates untraced and traced passes; their difference
    # is the tracing overhead.
    pass_s, layers, results = [], [], []
    start = time.perf_counter()
    while True:
        gc.collect()
        if spec["trace"] and len(pass_s) > len(layers):
            rec = spans.Recorder()
            with spans.Tracing(rec):
                t0 = time.perf_counter()
                out = workload.run_pass(rec)
                dt = time.perf_counter() - t0
            layers.append(spans.layer_metrics(rec, dt))
        else:
            t0 = time.perf_counter()
            out = workload.run_pass()
            dt = time.perf_counter() - t0
            pass_s.append(dt)
        results.append(digest_stdout(out))
        if (time.perf_counter() - start + dt > seconds
                and (layers or not spec["trace"])):
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"setup_s": setup_s, "pass_s": pass_s, "layers": layers,
                      "results": results, "peak_rss_kb": peak_kb}))


if __name__ == "__main__":
    main()
