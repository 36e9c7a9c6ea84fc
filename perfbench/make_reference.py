"""Regenerate reference.json: the check records of every input variant.

    python3 perfbench/make_reference.py

Run from the repository root at the commit whose outputs are the reference
(the benchmark's seed commit).  It runs one untimed cycle of every workload
on every variant and stores each check's verdict, gated fraction,
min_margin and scale.  It refuses to write a reference in which any check
reports ok=false or any other oracle fails, because the benchmark's
workloads are chosen so that none does.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))

from rhflow import scenarios  # noqa: E402

import inputs  # noqa: E402
import workloads  # noqa: E402
from session import Session  # noqa: E402


def main() -> int:
    workloads.MIN_CYCLES = 1
    work = ROOT / ".perfbench_work" / "reference"
    out = {"n_variants": inputs.N_VARIANTS, "workloads": {}}
    bad = []
    for name, body in workloads.WORKLOADS.items():
        per = out["workloads"][name] = {}
        for v in range(inputs.N_VARIANTS):
            s = Session(reference=None)
            cases = inputs.INPUTS[name](v)
            for case in cases:
                case["scenario_obj"] = scenarios.load_scenario(case["scenario"])
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            body(s, cases, work, deadline=0.0, alternate=False)
            bad += [(name, v, key, problems) for key, problems in s.failures]
            bad += [(name, v, key, "ok=false") for key, rec in s.records.items() if not rec["ok"]]
            per[str(v)] = s.records
            print(f"{name} variant {v}: {len(s.records)} records", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    if not any(work.parent.iterdir()):
        work.parent.rmdir()
    if bad:
        for item in bad:
            print("BAD", *item)
        return 1
    (HERE / "reference.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
