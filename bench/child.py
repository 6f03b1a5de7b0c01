"""One benchmark operation in a fresh interpreter: set up, time one call, gate it.

Started by ``run.py`` with BLAS pinned to one thread and ``src`` on the path.
Prints one JSON line: the timings, the gate outcome, a digest of the result
(for the cross-run determinism and trace-identity checks), the environment,
and, with ``--trace 1``, the per-layer metrics of ``layertrace``.

With ``BENCH_SPEED_PROBE=1`` in the environment (untraced operations) the
set-up, from the first import on, and the timed call are sampled by
``speedprobe``, and ``setup_s`` and ``run_s`` are their wall times rescaled to
the probe's reference speed; the wall times are kept as well.

An exception raised while setting up, running or gating the workload is
reported as a failed operation (``"ok": false``), not as a crash; only an
import failure of the library ends the process with a non-zero code.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import speedprobe  # noqa: E402

PROBE = speedprobe.SpeedProbe() if os.environ.get("BENCH_SPEED_PROBE") == "1" else None
if PROBE is not None:
    PROBE.start("setup", speedprobe.PythonKernel())

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

IMPORT_FAILED = 3
try:
    import numpy as np
    import scipy

    import helmrecon
    from helmrecon import constants, domain, forward, optimizer
except ImportError:
    traceback.print_exc()
    sys.exit(IMPORT_FAILED)

B1, B2 = 1.0, 2.0
OMEGA2 = 5.0


def recon_setup(spec, seed):
    """Grid, schedule N = 1 -> 4 -> 16, seeded truth, its DtN data and the bundle.

    The truth is the four-region pattern of the criterion-09 acceptance test
    plus a U(+-0.05) wiggle per fine region drawn from the seed.
    """
    grid = domain.Grid(spec["m"])
    parts = [domain.make_uniform_partition(grid, k, lvl) for lvl, k in enumerate((1, 2, 4))]
    weights = forward.build_boundary_weights(grid)
    rng = np.random.default_rng(seed)
    coarse = domain.PwcField(parts[1], np.array([1.85, 1.55, 1.70, 1.40]), (B1, B2))
    wiggle = rng.uniform(-0.05, 0.05, parts[2].n_regions)
    truth = domain.PwcField(
        parts[2], np.clip(domain.embed(coarse, parts[2]).coeffs + wiggle, B1, B2), (B1, B2))
    data = forward.dtn_for_field(truth, OMEGA2, weights=weights)
    bundle = constants.ConstantsBundle(
        df_bound0=1.0, df_lip0=1e-3, stab_k=1e-4, b1=B1, b2=B2, omega2=data.omega2,
        eps=0.1, phi=constants.CompressionModel.zero())
    start = domain.PwcField(parts[0], np.array([1.5]), (B1, B2))
    return {"parts": parts, "truth": truth, "data": data, "bundle": bundle, "start": start}


def recon_run(spec, state):
    n = len(state["parts"])
    return optimizer.run_multilevel(
        state["parts"], state["bundle"], state["data"], state["start"],
        max_iter=list(spec["caps"]), eta_overrides=[0.0] * n,
        discrepancy_thresholds=[1e-8] * n, truth=state["truth"])


def recon_gate(spec, state, result):
    """Every level stops on its cap and ends below the residual it started at,
    the distance to the truth falls at every iterate of the finest level, the
    final error is under the workload's tolerance, and the DtN re-assembled at
    the final field is symmetric.

    The residual itself is not monotone within a level: the step
    mu = u*r/t^2 overshoots the residual minimiser along the direction, so the
    residual zig-zags while the distance to the truth keeps falling. The
    number of residual increases per level is recorded, not gated.
    """
    problems = []
    for n, run in enumerate(result.runs):
        r = run.history["r"]
        if run.stop_reason != "max_iter" or run.k_stop != spec["caps"][n]:
            problems.append(f"level {n} stopped on {run.stop_reason} at k={run.k_stop}")
        if not r[-1] < r[0]:
            problems.append(f"level {n} ended at residual {r[-1]:.3e} >= its start {r[0]:.3e}")
    breg = result.runs[-1].history["bregman"]
    if not bool(np.all(np.diff(breg) < 0)):
        problems.append("the distance to the truth is not strictly decreasing on the finest level")
    rel_err = domain.l2_dist(result.final, state["truth"]) / domain.l2_norm(state["truth"])
    if not rel_err < spec["error_tol"]:
        problems.append(f"relative error {rel_err:.3e} >= {spec['error_tol']}")
    final_dtn = forward.dtn_for_field(result.final, state["data"].omega2,
                                      weights=state["data"].weights)
    symmetry = final_dtn.symmetry_defect()
    if not symmetry < 1e-10:
        problems.append(f"final DtN symmetry defect {symmetry:.3e} >= 1e-10")
    details = {"rel_err": rel_err, "symmetry_defect": symmetry,
               "residual_final": float(result.runs[-1].history["r"][-1]),
               "residual_increases": [int(np.sum(np.diff(run.history["r"]) >= 0))
                                      for run in result.runs]}
    return problems, details, [float(c).hex() for c in result.final.coeffs]


def calibrate_setup(spec, seed):
    return {"grid": domain.Grid(spec["m"])}


def calibrate_run(spec, state):
    return constants.calibrate(
        state["grid"], OMEGA2, B1, B2,
        phi=constants.CompressionModel.power_law(0.1, 1), eps=0.1, mode="empirical",
        samples=spec["samples"], n_values=(1, 4, 16), seed=spec["calibration_seed"])


CALIBRATED = ("df_bound0", "df_lip0", "stab_k")


def calibrate_gate(spec, state, bundle):
    """The fitted constants are finite and positive, and equal, within
    ``reference_rtol``, to the reference table's values for the seed."""
    values = {name: float(getattr(bundle, name)) for name in CALIBRATED}
    problems = [f"{name} = {v!r} is not finite and positive"
                for name, v in values.items() if not (math.isfinite(v) and v > 0)]
    reference, rtol = spec["reference"], spec["reference_rtol"]
    for name in CALIBRATED:
        rel = abs(values[name] - reference[name]) / abs(reference[name])
        if not rel <= rtol:
            problems.append(f"{name} = {values[name]!r} differs from the reference "
                            f"{reference[name]!r} by {rel:.2e} (rtol {rtol})")
    return problems, values, [values[name].hex() for name in CALIBRATED]


KINDS = {
    "recon": (recon_setup, recon_run, recon_gate),
    "calibrate": (calibrate_setup, calibrate_run, calibrate_gate),
}


def environment():
    """Thread pinning, library versions and machine facts for the result record."""

    def blas(info):
        dep = info["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    threads = None
    try:
        import ctypes
        import glob
        libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
        for path in glob.glob(os.path.join(libdir, "*openblas*")):
            lib = ctypes.CDLL(path)
            for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, name, None)
                if fn is not None:
                    threads = int(fn())
                    break
    except OSError:
        threads = None
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "blas_threads": threads,
        "thread_env": {var: os.environ.get(var) for var in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def operate(spec, seed, trace, spawn_t):
    """Set up, time and gate one operation; return the JSON-ready record."""
    setup, run, gate = KINDS[spec["kind"]]
    recorder = None
    if trace:
        import layertrace
        recorder = layertrace.Recorder()
        recorder.install()

    def phase(run_id):
        if recorder is not None:
            recorder.phase(run_id)

    record = {"ok": False, "error": None}
    try:
        try:
            phase("setup")
            state = setup(spec, seed)
            if PROBE is not None:
                run_kernel = speedprobe.NumpyKernel()
                PROBE.stop()
            phase("run")
            t0 = time.perf_counter()
            if PROBE is not None:
                PROBE.start("run", run_kernel)
            result = run(spec, state)
            if PROBE is not None:
                PROBE.stop()
            t1 = time.perf_counter()
            phase("gate")
        finally:
            if PROBE is not None:
                PROBE.stop()
            if recorder is not None:
                recorder.uninstall()
        wall = {"setup_s": t0 - spawn_t, "run_s": t1 - t0}
        if PROBE is None:
            record.update(wall)
        else:
            for ph, key in (("setup", "setup_s"), ("run", "run_s")):
                record[key] = PROBE.normalize(ph, wall[key])
                wall[key] -= PROBE.overhead[ph]
            record["probe"] = {ph: PROBE.summary(ph) for ph in ("setup", "run")}
        record["wall"] = wall  # seconds, without probe time
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems, details, digest = gate(spec, state, result)
        if recorder is not None:
            leftover = recorder.leftover_wrappers()
            if leftover:
                problems.append(f"wrappers left installed: {leftover}")
            record["layers"] = recorder.metrics()
            recorder.dump(spec["trace_path"], meta={"workload": spec["name"], "seed": seed})
        record.update(details=details, digest=digest, problems=problems, ok=not problems)
    except Exception as exc:  # one failed operation, reported to run.py
        record["error"] = f"{type(exc).__name__}: {exc}"
        traceback.print_exc()
    record["env"] = environment()
    return record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spec", required=True, help="workload spec as JSON")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawn-t", type=float, required=True,
                    help="time.perf_counter() of run.py just before the spawn")
    ap.add_argument("--src", required=True, help="directory holding the helmrecon package")
    args = ap.parse_args(argv)
    expected = os.path.join(os.path.abspath(args.src), "helmrecon", "__init__.py")
    if os.path.abspath(helmrecon.__file__) != expected:
        print(f"helmrecon was imported from {helmrecon.__file__}, not {expected}",
              file=sys.stderr)
        sys.exit(IMPORT_FAILED)
    record = operate(json.loads(args.spec), args.seed, bool(args.trace), args.spawn_t)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
