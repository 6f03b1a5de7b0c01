"""Regenerate ``calibrate_reference.json``: the calibrated constants per seed.

    PYTHONPATH=src python3 bench/make_reference.py

Tabulates seeds 0 .. REFERENCE_SEEDS-1 of each calibrate workload, which a run
with any ``--seed`` reaches, and seed 0 of its smoke-test size, which the
smoke test and the warm-up operation run. The calibrate workloads gate each
run against this table, so it must be written by the commit whose outputs it
pins, with BLAS on one thread as in the benchmark. Regenerate it only in a
change that means to alter calibration results, and say so in that change.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402

import child  # noqa: E402
import run  # noqa: E402

TINY_SEEDS = (0,)


def main():
    table = {}
    for name in sorted(run.WORKLOADS):
        for tiny, seeds in ((False, range(run.REFERENCE_SEEDS)), (True, TINY_SEEDS)):
            spec = run.workload_params(name, tiny)
            if spec["kind"] != "calibrate":
                continue
            rows = table.setdefault(spec["name"], {})
            for seed in seeds:
                spec["calibration_seed"] = seed
                bundle = child.calibrate_run(spec, child.calibrate_setup(spec, seed))
                rows[str(seed)] = {key: float(getattr(bundle, key)) for key in child.CALIBRATED}
                print(spec["name"], seed, rows[str(seed)], flush=True)
    with open(run.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
