"""Record the expected job results in perfbench/data/expected.json.

Run from the repository root, only when a change to the program is meant to
change a recorded result:

    python3 perfbench/record.py

Pipeline jobs record delta, the gaps, genus and L(mP) size (when a basis
file is given) and the series precision after l_basis; CLI jobs record the
exit code and the SHA-256 of stdout.  Probe valuations are not recorded:
each run checks them against the resultant backend.
"""

import json
import os
import sys

from workloads import EXPECTED, WORKLOADS
from worker import Workload, digest_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import weiersem
    import weiersem.cli

    os.environ.pop("WEIERSTRASS_PRECISION_CEILING", None)
    jobs = {}
    for name, workload_jobs in WORKLOADS.items():
        workload = Workload(weiersem, workload_jobs, {})
        for job in workload_jobs:
            res = digest_stdout([workload.run_job(job)])[0]
            for key in ("am_orders", "probe_orders"):
                res.pop(key, None)
            jobs[job.id] = res
            print(name, job.id, res, flush=True)
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump({"jobs": jobs}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
