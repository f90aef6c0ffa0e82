"""The four benchmark workloads and their jobs.

Each workload stresses a different layer, so that an optimisation of one
layer shows on one workload and predicts no change on another:

- ``pipeline-ext``: the library pipeline on extension-field curves.  Series
  products go through the schoolbook GF(p^k) branch of ``_ser_mul``.
- ``pipeline-prime``: the same calls on prime-field curves, whose series
  products go through ``_kronecker_mul`` instead.
- ``code-sweep``: ``code bounds`` over GF(2^8); the code layer
  (point scan, row evaluation, elimination) and the ``function_for``
  revalidation carry the pass.
- ``analyze``: ``curve analyze`` on ``Y^m+X^7`` plus a Feng-Rao sweep; no
  branch expansion at all, so resultants and semigroups carry the pass.

``Y^3000+X^7`` is not an ``analyze`` input: ``am_sequence`` does not finish
on it in reasonable time, which is a robustness defect, not a workload.
"""

import os
from dataclasses import dataclass

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
EMPTY_BASIS = os.path.join(DATA, "empty_basis.txt")
GOLDEN_BASIS = os.path.join(DATA, "golden_basis.txt")
EXPECTED = os.path.join(DATA, "expected.json")

PROBES_PER_JOB = 10
PROBE_BIDEGREE = (3, 3)


@dataclass(frozen=True)
class PipelineJob:
    """One curve through the library pipeline.  Without a basis file the
    job stops after the probes (no integral basis is known for it)."""

    id: str
    field: str
    curve: str
    basis: str | None


@dataclass(frozen=True)
class CliJob:
    """One ``weiersem`` command line, run in-process through ``cli.run``."""

    id: str
    argv: tuple

    def inputs(self):
        """(field, curve) texts the command parses; curve may be None."""
        argv = list(self.argv)
        if "--field" not in argv:
            return []
        field = argv[argv.index("--field") + 1]
        curve = argv[argv.index("--curve") + 1] if "--curve" in argv else None
        return [(field, curve)]


def _analyze(job_id, field, curve):
    return CliJob(job_id, ("curve", "analyze", "--field", field,
                           "--curve", curve))


WORKLOADS = {
    "pipeline-ext": [
        PipelineJob("herm-gf4", "GF(2^2)", "Y^2+Y+X^3", EMPTY_BASIS),
        PipelineJob("y3-gf9", "GF(3^2)", "Y^3+Y+X^4", EMPTY_BASIS),
        PipelineJob("herm-gf16", "GF(2^4)", "Y^4+Y+X^5", EMPTY_BASIS),
    ],
    "pipeline-prime": [
        PipelineJob("golden", "GF(2)", "Y^8+Y^2+X^3", GOLDEN_BASIS),
        PipelineJob("y9-gf3", "GF(3)", "Y^9+X^10+X^2", None),
        PipelineJob("y16-gf2", "GF(2)", "Y^16+X^5+X^3+1", None),
    ],
    "code-sweep": [
        CliJob("bounds-gf4-ext4", (
            "code", "bounds", "--field", "GF(2^2)", "--curve", "Y^2+Y+X^3",
            "--integral-basis", EMPTY_BASIS, "--ext", "4",
            "--m-range", "0:40")),
    ],
    "analyze": [
        *(_analyze(f"am-m{m}", "GF(2)", f"Y^{m}+X^7")
          for m in (100, 150, 200, 250, 300)),
        _analyze("am-m200-gf5", "GF(5)", "Y^200+X^7"),
        CliJob("fengrao-32-33", (
            "semigroup", "fengrao", "--gens", "32,33", "--m-range", "0:2048",
            "--format", "csv")),
    ],
}

ALL_JOB_IDS = [job.id for jobs in WORKLOADS.values() for job in jobs]
