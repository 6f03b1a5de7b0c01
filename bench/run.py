"""helmrecon benchmark: time fixed amounts of descent and calibration.

    python3 bench/run.py --workload recon-m33 --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. Each operation runs in a fresh interpreter
(``child.py``), one at a time, with BLAS pinned to one thread; operations of
one workload and seed repeat until the run has lasted ``--seconds``, to within
half an operation. With ``--trace 0`` the last line of standard output is a
JSON object whose metrics are the medians over operations of the end-to-end
metrics; ``setup_s`` and ``run_s`` are wall times rescaled to a fixed machine
speed measured during the operation (see ``speedprobe.py``). With ``--trace 1``
untraced and traced operations alternate, and the metrics are the medians of
the per-layer metrics of the traced ones (see ``layertrace.py``) plus the
tracing overhead, in wall time.

Every operation is gated (see ``child.py``), and every operation of a run must
produce a result bit-identical to the first, traced or not. An operation that
raises, fails its gate or differs counts as failed. The full record of a run,
environment included, is written to ``.bench_out/``.
"""

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
IMPORT_FAILED = 3  # exit code of child.py when helmrecon cannot be imported
# An operation still running this long after a run's --seconds have passed is
# killed and counted as failed; at --seconds 40 a run still ends within 180 s.
OVERRUN_S = 100.0
# The calibrate workloads run seed % REFERENCE_SEEDS, so that every seed has an
# entry in the reference table its gate checks against.
REFERENCE_SEEDS = 100

# Why each workload is here: see README.md and BENCHMARK.json.
WORKLOADS = {
    "recon-m33": {"kind": "recon", "m": 33, "caps": [10, 40, 150], "error_tol": 1e-2},
    "recon-m129": {"kind": "recon", "m": 129, "caps": [2, 3, 4], "error_tol": 5e-2},
    "calibrate-m33": {"kind": "calibrate", "m": 33, "samples": 40,
                      "reference_rtol": 1e-6},
}
# The same workloads at a size that runs in seconds, for the smoke test.
TINY = {
    "recon-m33": {"m": 17, "caps": [1, 1, 1], "error_tol": 0.2},
    "recon-m129": {"m": 17, "caps": [1, 1, 1], "error_tol": 0.2},
    "calibrate-m33": {"m": 17, "samples": 10},
}
END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB"}
REFERENCE_FILE = BENCH / "calibrate_reference.json"


def workload_params(name, tiny=False):
    """The parameters of one workload at full or smoke-test size."""
    spec = dict(WORKLOADS[name], workload=name, name=name)
    if tiny:
        spec.update(TINY[name], name=f"{name}:tiny")
    return spec


def workload_spec(name, seed, tiny=False):
    """The parameters a child needs for one workload, seed and size.

    A calibrate workload also carries the seed it calibrates with and the
    reference constants for that seed; a seed missing from the table raises
    KeyError.
    """
    spec = workload_params(name, tiny)
    if spec["kind"] == "calibrate":
        spec["calibration_seed"] = seed % REFERENCE_SEEDS
        with open(REFERENCE_FILE, encoding="utf-8") as fh:
            spec["reference"] = json.load(fh)[spec["name"]][str(spec["calibration_seed"])]
    return spec


def run_child(spec, seed, trace, deadline):
    """Run one operation in a fresh interpreter; return its record."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(SRC), BENCH_SPEED_PROBE=str(int(not trace)))
    if trace:
        spec = dict(spec, trace_path=str(OUT / f"trace-{spec['name']}-seed{seed}.jsonl"))
    cmd = [sys.executable, str(BENCH / "child.py"), "--spec", json.dumps(spec),
           "--seed", str(seed), "--trace", str(int(trace)), "--src", str(SRC)]
    timeout = max(1.0, deadline - time.perf_counter())
    spawn_t = time.perf_counter()
    proc = subprocess.Popen(cmd + ["--spawn-t", repr(spawn_t)], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"ok": False, "error": f"timed out after {timeout:.0f} s", "traced": trace}
    if proc.returncode == IMPORT_FAILED:
        sys.stderr.write(stderr)
        raise SystemExit(f"helmrecon could not be imported from {SRC}")
    lines = stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record = {"ok": False, "error": f"exit code {proc.returncode}, no result"}
    if not record["ok"]:
        record["stderr_tail"] = stderr[-2000:]
    record["traced"] = trace
    return record


def check_identical(records):
    """Fail every successful operation whose result differs from the first one's."""
    digests = [r["digest"] for r in records if r["ok"]]
    for r in records:
        if r["ok"] and r["digest"] != digests[0]:
            r["ok"] = False
            r["error"] = "result differs bit-for-bit from the first operation of the run"


def median_of(records, key, section=None):
    rows = [r.get(section, {}) for r in records] if section else records
    values = [row[key] for row in rows if key in row]
    return statistics.median(values) if values else None


def measure(spec, seed, seconds, trace):
    """Repeat operations until ``seconds`` have passed; return the result object."""
    OUT.mkdir(exist_ok=True)
    # The first interpreter after an idle spell runs slower; warm the machine
    # with the workload at smoke-test size and seed 0, untimed and uncounted.
    run_child(workload_spec(spec["workload"], 0, tiny=True), 0, False,
              time.perf_counter() + OVERRUN_S)
    start = time.perf_counter()
    deadline = start + seconds + OVERRUN_S
    records = []
    while True:
        op_start = time.perf_counter()
        records.append(run_child(spec, seed, False, deadline))
        if trace:
            records.append(run_child(spec, seed, True, deadline))
        now = time.perf_counter()
        # Stop once one more round like the last would end over half a round late.
        if now + (now - op_start) / 2 - start >= seconds:
            break
    check_identical(records)
    failed = sum(1 for r in records if not r["ok"])
    if trace:
        traced = [r for r in records if r["traced"] and "layers" in r]
        names = {name: unit for r in traced for name, (_, unit) in r["layers"].items()}
        metrics = {name: {"value": statistics.median(r["layers"][name][0] for r in traced),
                          "unit": unit} for name, unit in names.items()}
        plain_s = median_of([r for r in records if not r["traced"]], "run_s", "wall")
        traced_s = median_of(traced, "run_s", "wall")
        overhead = None if None in (plain_s, traced_s) else traced_s - plain_s
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {name: {"value": median_of(records, name), "unit": unit}
                   for name, unit in END_TO_END.items()}
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": metrics}
    env = next((r["env"] for r in records if "env" in r), None)
    with open(OUT / f"result-{spec['name']}-seed{seed}-trace{int(trace)}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"result": result, "env": env, "spec": spec, "operations": records},
                  fh, indent=1)
    return result, env, records


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "helmrecon" / "__init__.py").is_file():
        raise SystemExit(f"no helmrecon sources under {SRC}: run from a full checkout")
    compileall.compile_dir(SRC, quiet=1)
    result, env, records = measure(workload_spec(args.workload, args.seed), args.seed,
                                   args.seconds, bool(args.trace))
    print("env " + json.dumps(env))
    for r in records:
        if not r["ok"]:
            print(f"failed operation: {r.get('error')} {r.get('problems', '')}")
    if not args.trace:
        for name in ("setup_s", "run_s"):
            print(f"wall.{name} {median_of(records, name, 'wall')} s (not normalized)")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
