"""Benchmark of the weiersem pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload pipeline-ext --seed 1 --seconds 30 --trace 0

Workloads are defined in perfbench/workloads.py.  Every run starts fresh
worker processes (single-threaded, closed loop: one job at a time) that
import weiersem from ``src/``.  With ``--trace 0`` it prints the end-to-end
metrics:

- ``setup_s``: median time from the start of the worker's code to ready
  (importing weiersem, building the fields, parsing every input), over
  several fresh workers;
- ``pass_s``: median wall time of one pass over the workload's jobs;
- ``peak_rss_mb``: peak resident set of the measuring worker;
- ``ok_frac``: jobs whose results matched the recorded expectations, over
  jobs attempted (``fail_frac`` is one minus it, and is printed too).

With ``--trace 1`` it prints per-layer spans and counters instead (see
perfbench/spans.py).  The seed draws the probe polynomials of the
``pipeline-*`` workloads; each probe's series valuation is checked against
its resultant degree.  The last line of stdout is one JSON object; the line
before it is a readable summary with the run's environment.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_REPEATS = 4          # setup-only workers, besides the measuring one
DEADLINE_S = 170           # the whole run, including every worker

sys.path.insert(0, HERE)
from workloads import (ALL_JOB_IDS, EXPECTED, PROBE_BIDEGREE,  # noqa: E402
                       PROBES_PER_JOB, WORKLOADS, CliJob)


class BenchError(Exception):
    pass


def _unit(name):
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name.startswith("branch.") and ("precision" in name or "terms" in name):
        return "terms"
    return "count"


def _upper_percentile(samples):
    """The highest percentile with at least ten samples above it, as text."""
    n = len(samples)
    if n < 11:
        return f"n={n}, too few for a percentile with ten samples beyond it"
    return f"p{100 * (n - 10) // n}={sorted(samples)[n - 11]:.4f} n={n}"


def draw_probes(ws, jobs, seed):
    """Seeded probe polynomials of bidegree <= PROBE_BIDEGREE, nonzero mod F,
    with -v(g) from the resultant backend.  Probes whose resultant
    vanishes are redrawn."""
    probes, expect = {}, {}
    dx, dy = PROBE_BIDEGREE
    for job in jobs:
        if isinstance(job, CliJob):
            continue
        rng = random.Random(f"{seed}:{job.id}")
        field = ws.parse_field(job.field)
        model = ws.normalize_degree(ws.parse_poly(job.curve, field))
        texts, orders = [], []
        while len(texts) < PROBES_PER_JOB:
            terms = {}
            for i in range(dx + 1):
                for j in range(dy + 1):
                    if rng.random() < 0.6:
                        c = rng.randrange(field.order)
                        if c:
                            terms[(i, j)] = c
            g = ws.BiPoly(field, terms)
            if g.is_zero() or g.divmod_y(model.equation)[1].is_zero():
                continue
            try:
                orders.append(ws.valuation_by_resultant(model, g))
            except ws.PreconditionError:
                continue
            texts.append(str(g))
        probes[job.id], expect[job.id] = texts, orders
    return probes, expect


def check(job, res, exp, probe_orders):
    """True when one job result matches its recorded expectation."""
    if "error" in res:
        return False
    if isinstance(job, CliJob):
        return (res["exit"] == exp["exit"]
                and res["stdout_sha256"] == exp["stdout_sha256"])
    keys = [k for k in ("delta", "gaps", "genus", "l_size", "precision")
            if k in exp]
    return (all(res.get(k) == exp[k] for k in keys)
            and res["am_orders"] == [-d for d in exp["delta"]]
            and [-o for o in res["probe_orders"]] == probe_orders)


def run_worker(spec, deadline):
    """Run one worker to its end and return its last stdout line, parsed.
    The worker is killed if it passes the run deadline, and always waited
    for."""
    env = {k: v for k, v in os.environ.items()
           if k != "WEIERSTRASS_PRECISION_CEILING"}
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.Popen(
        [sys.executable, WORKER, json.dumps(spec)], cwd=ROOT, env=env,
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(
            timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker passed the run deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def _environment():
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    load = ",".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"python={sys.version.split()[0]} git={sha} "
            f"nproc={os.cpu_count()} loadavg={load}")


def run(args):
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "weiersem", "__init__.py")):
        raise BenchError(f"no weiersem sources under {ROOT}/src")
    if not os.path.isfile(EXPECTED):
        raise BenchError(f"missing expectations file {EXPECTED}")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import weiersem as ws

    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)["jobs"]
    jobs = WORKLOADS[args.workload]
    probes, probe_expect = draw_probes(ws, jobs, args.seed)
    spec = {"root": ROOT, "workload": args.workload, "probes": probes,
            "seconds": args.seconds, "trace": args.trace}

    setup_s = []
    if not args.trace:
        for _ in range(SETUP_REPEATS):
            setup_s.append(
                run_worker({**spec, "mode": "setup"}, deadline)["setup_s"])
    result = run_worker({**spec, "mode": "run"}, deadline)
    setup_s.append(result["setup_s"])

    attempted = failed = 0
    for pass_results in result["results"]:
        for job, res in zip(jobs, pass_results, strict=True):
            attempted += 1
            if not check(job, res, expected[job.id], probe_expect.get(job.id)):
                failed += 1
                print(f"FAIL {job.id}: {res}", file=sys.stderr)
    ok_frac = (attempted - failed) / attempted

    if args.trace:
        layers = result["layers"]
        names = sorted({k for layer in layers for k in layer})
        values = {k: statistics.median(layer.get(k, 0) for layer in layers)
                  for k in names}
        untraced = statistics.median(result["pass_s"])
        values["trace.overhead_s"] = values["trace.pass_s"] - untraced
        for job_id in ALL_JOB_IDS:
            values.setdefault(f"job.{job_id}.s", 0.0)
        summary = (f"traced passes={len(layers)} untraced passes="
                   f"{len(result['pass_s'])} overhead_s="
                   f"{values['trace.overhead_s']:.4f} uncovered_frac="
                   f"{values['trace.uncovered_frac']:.4f}")
    else:
        passes = result["pass_s"]
        values = {"setup_s": statistics.median(setup_s),
                  "pass_s": statistics.median(passes),
                  "peak_rss_mb": result["peak_rss_kb"] / 1024,
                  "ok_frac": ok_frac}
        summary = (f"pass_s median={values['pass_s']:.4f} "
                   f"max={max(passes):.4f} ({_upper_percentile(passes)}) "
                   f"setup_s median={values['setup_s']:.4f} "
                   f"n={len(setup_s)} peak_rss_mb={values['peak_rss_mb']:.2f}")
    print(f"workload={args.workload} seed={args.seed} {summary} "
          f"fail_frac={failed / attempted:.4f} ({failed}/{attempted}) "
          f"{_environment()}")
    metrics = {k: {"value": v, "unit": _unit(k)} for k, v in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
