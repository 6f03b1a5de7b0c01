"""Outside-in per-layer trace of helmrecon: wrap the library's public functions.

``Recorder.install`` replaces the module attributes the library looks up at
call time with timing wrappers, and ``uninstall`` puts the originals back. A
name bound by ``from ... import`` is looked up in the importing module, so it
is wrapped there (for example ``helmrecon.optimizer.bank_for_field``); names
that ``constants.calibrate`` imports lazily are read from their home module
when it is called, so wrapping the home module covers them. Every wrapper of
one function records spans under one canonical ``<module>.<function>`` name.

Each span is kept in memory as (name, start, end, parent id, run id, raised)
and written out as JSON lines by ``dump`` when the operation ends. The run id
is the phase of the operation (``setup``, ``run`` or ``gate``); per-layer
metrics are taken over the ``run`` phase, except the boundary-weight build,
which is a set-up cost for the recon workloads and is summed over set-up and
run. Spans of one thread nest without overlapping, so a span's self time is
its duration minus the durations of its direct children.
"""

import functools
import importlib
import json
import time

import numpy as np

# (module the library looks the name up in, attribute, canonical span name)
TARGETS = [
    ("helmrecon.forward", "spectrum_guard", "forward.spectrum_guard"),
    ("helmrecon.constants", "spectrum_guard", "forward.spectrum_guard"),
    ("helmrecon.forward", "assemble_dtn", "forward.assemble_dtn"),
    ("helmrecon.forward", "build_boundary_weights", "forward.build_boundary_weights"),
    ("helmrecon.derivative", "build_boundary_weights", "forward.build_boundary_weights"),
    ("helmrecon.verify", "build_boundary_weights", "forward.build_boundary_weights"),
    ("helmrecon.forward", "dtn_for_field", "forward.dtn_for_field"),
    ("helmrecon.derivative", "dtn_for_field", "forward.dtn_for_field"),
    ("helmrecon.verify", "dtn_for_field", "forward.dtn_for_field"),
    ("helmrecon.forward", "dtn_data_norm", "forward.dtn_data_norm"),
    ("helmrecon.derivative", "dtn_data_norm", "forward.dtn_data_norm"),
    ("helmrecon.verify", "dtn_data_norm", "forward.dtn_data_norm"),
    ("helmrecon.derivative", "bank_for_field", "derivative.bank_for_field"),
    ("helmrecon.optimizer", "bank_for_field", "derivative.bank_for_field"),
    ("helmrecon.verify", "bank_for_field", "derivative.bank_for_field"),
    ("helmrecon.derivative", "apply_df", "derivative.apply_df"),
    ("helmrecon.verify", "apply_df", "derivative.apply_df"),
    ("helmrecon.derivative", "apply_df_adjoint", "derivative.apply_df_adjoint"),
    ("helmrecon.optimizer", "apply_df_adjoint", "derivative.apply_df_adjoint"),
    ("helmrecon.derivative", "residual_from", "derivative.residual_from"),
    ("helmrecon.optimizer", "residual_from", "derivative.residual_from"),
    ("helmrecon.derivative", "df_norm_probe", "derivative.df_norm_probe"),
    ("helmrecon.derivative", "lipschitz_df_probe", "derivative.lipschitz_df_probe"),
    ("helmrecon.domain", "project", "domain.project"),
    ("helmrecon.optimizer", "project", "domain.project"),
    ("helmrecon.domain", "clamp_to_bounds", "domain.clamp_to_bounds"),
    ("helmrecon.optimizer", "clamp_to_bounds", "domain.clamp_to_bounds"),
    ("helmrecon.domain", "bregman", "domain.bregman"),
    ("helmrecon.optimizer", "bregman", "domain.bregman"),
    ("helmrecon.domain", "embed", "domain.embed"),
    ("helmrecon.optimizer", "embed", "domain.embed"),
    ("helmrecon.domain", "l2_norm", "domain.l2_norm"),
    ("helmrecon.derivative", "l2_norm", "domain.l2_norm"),
    ("helmrecon.optimizer", "l2_norm", "domain.l2_norm"),
    ("helmrecon.domain", "l2_dist", "domain.l2_dist"),
    ("helmrecon.verify", "l2_dist", "domain.l2_dist"),
    ("helmrecon.optimizer", "run_multilevel", "optimizer.run_multilevel"),
    ("helmrecon.optimizer", "run_level", "optimizer.run_level"),
    ("helmrecon.optimizer", "evaluate_state", "optimizer.evaluate_state"),
    ("helmrecon.optimizer", "descent_step", "optimizer.descent_step"),
    ("helmrecon.verify", "estimate_lipschitz_constant", "verify.estimate_lipschitz_constant"),
    ("helmrecon.constants", "calibrate", "constants.calibrate"),
]
OPERATOR_SPAN = "forward.operator_assembly"  # HelmholtzOperator.__init__
SPLU_SPAN = "forward.splu"  # scipy.sparse.linalg.splu as reached through helmrecon.forward.spla
SPAN_NAMES = sorted({name for _, _, name in TARGETS} | {OPERATOR_SPAN, SPLU_SPAN})

# A forward evaluation repeats an earlier one when its cell field is within
# this relative distance of a field already evaluated at the same omega^2.
REPEAT_RTOL = 1e-12
# Modules whose layer self time is reported as one figure (see BENCHMARK.json).
AGGREGATED = {
    "derivative.self_s": ("derivative.",),
    "domain.self_s": ("domain.",),
    "outer.self_s": ("optimizer.", "verify.", "constants."),
}


class Recorder:
    """Spans and per-call observations of one traced operation."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, run_id, raised]
        self._stack = []
        self._run_id = "setup"
        self._replaced = []  # (owner, attribute, original object)
        self.lu_nnz = []
        self.bank_bytes = []
        self.evaluated = []  # (omega2, copy of the cell field) per operator assembly
        self.norm_kinds = []

    def phase(self, run_id):
        self._run_id = run_id

    def _wrap(self, name, fn, observe=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, None, None, stack[-1] if stack else None, self._run_id, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if observe is not None and self._run_id == "run":
                observe(args, kwargs, out)
            return out

        return wrapper

    def _replace(self, owner, attr, wrapper):
        self._replaced.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        from helmrecon import forward

        observers = {
            "derivative.bank_for_field":
                lambda a, k, out: self.bank_bytes.append(out[1].solutions.nbytes),
            "forward.dtn_data_norm":
                lambda a, k, out: self.norm_kinds.append(
                    a[2] if len(a) > 2 else k.get("kind", "hs")),
        }
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            self._replace(module, attr,
                          self._wrap(name, getattr(module, attr), observers.get(name)))

        def observe_operator(args, kwargs, out):
            c2inv = args[1] if len(args) > 1 else kwargs["c2inv"]
            omega2 = args[2] if len(args) > 2 else kwargs["omega2"]
            self.evaluated.append((float(omega2), np.array(c2inv.cell_values())))

        def observe_splu(args, kwargs, lu):
            self.lu_nnz.append(lu.L.nnz + lu.U.nnz)

        op = forward.HelmholtzOperator
        self._replace(op, "__init__", self._wrap(OPERATOR_SPAN, op.__init__, observe_operator))
        self._replace(forward.spla, "splu",
                      self._wrap(SPLU_SPAN, forward.spla.splu, observe_splu))

    def uninstall(self):
        for owner, attr, original in reversed(self._replaced):
            setattr(owner, attr, original)

    def leftover_wrappers(self):
        """Attributes that do not hold their original object (empty after ``uninstall``)."""
        return [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, original in self._replaced
                if owner.__dict__[attr] is not original]

    def _self_times(self):
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, run_id, raised in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return [(s[0], s[4], s[2] - s[1] - child_time[i]) for i, s in enumerate(self.spans)]

    def _repeats(self):
        seen = {}
        repeats = 0
        for omega2, cells in self.evaluated:
            earlier = seen.setdefault(omega2, [])
            if any(np.linalg.norm(cells - prev) <= REPEAT_RTOL * np.linalg.norm(prev)
                   for prev in earlier):
                repeats += 1
            earlier.append(cells)
        return repeats

    def metrics(self):
        """Per-layer metrics of the run phase, as {name: (value, unit)}."""
        run = [s for s in self.spans if s[4] == "run"]
        selfs = self._self_times()

        def count(name):
            return sum(1 for s in run if s[0] == name)

        def self_s(name, phases=("run",)):
            return sum(t for n, ph, t in selfs if n == name and ph in phases)

        evals = len(self.evaluated)
        repeats = self._repeats()
        eval_ms = [1e3 * (s[2] - s[1]) for s in run if s[0] == "forward.dtn_for_field"]
        out = {
            "forward.assemble_dtn.self_s": (self_s("forward.assemble_dtn"), "s"),
            "forward.assemble_dtn.calls": (count("forward.assemble_dtn"), "count"),
            "forward.splu.self_s": (self_s(SPLU_SPAN), "s"),
            "forward.splu.calls": (count(SPLU_SPAN), "count"),
            "forward.splu.lu_nnz": (max(self.lu_nnz, default=0), "count"),
            "forward.operator_assembly.self_s": (self_s(OPERATOR_SPAN), "s"),
            "forward.spectrum_guard.calls": (count("forward.spectrum_guard"), "count"),
            "forward.spectrum_guard.self_s": (self_s("forward.spectrum_guard"), "s"),
            "forward.dtn_data_norm.calls": (count("forward.dtn_data_norm"), "count"),
            "forward.dtn_data_norm.op_calls": (self.norm_kinds.count("op"), "count"),
            "forward.dtn_data_norm.self_s": (self_s("forward.dtn_data_norm"), "s"),
            "forward.build_boundary_weights.self_s":
                (self_s("forward.build_boundary_weights", ("setup", "run")), "s"),
            "forward.evals": (evals, "count"),
            "forward.repeat_evals": (repeats, "count"),
            "forward.distinct_ratio": ((evals - repeats) / evals if evals else 0.0, "ratio"),
            "forward.eval_ms.p50": (_quantile(eval_ms, 0.5), "ms"),
            "forward.eval_ms.p90": (_quantile(eval_ms, 0.9), "ms"),
            "derivative.apply_df.calls": (count("derivative.apply_df"), "count"),
            "derivative.apply_df_adjoint.calls": (count("derivative.apply_df_adjoint"), "count"),
            "derivative.bank_for_field.bank_mb":
                (max(self.bank_bytes, default=0) / 2.0 ** 20, "MiB"),
            "domain.project.calls": (count("domain.project"), "count"),
            "domain.clamp_to_bounds.calls": (count("domain.clamp_to_bounds"), "count"),
            "domain.bregman.calls": (count("domain.bregman"), "count"),
            "domain.embed.calls": (count("domain.embed"), "count"),
            "optimizer.evaluate_state.calls": (count("optimizer.evaluate_state"), "count"),
            "optimizer.descent_step.calls": (count("optimizer.descent_step"), "count"),
            "verify.estimate_lipschitz_constant.calls":
                (count("verify.estimate_lipschitz_constant"), "count"),
            "constants.calibrate.calls": (count("constants.calibrate"), "count"),
        }
        for metric, prefixes in AGGREGATED.items():
            out[metric] = (sum(t for n, ph, t in selfs
                               if ph == "run" and n.startswith(prefixes)), "s")
        for name in SPAN_NAMES:
            out[f"{name}.errors"] = (sum(1 for s in run if s[0] == name and s[5]), "count")
        return out

    def dump(self, path, meta):
        """Write the spans as JSON lines, after one header line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(meta) + "\n")
            for i, (name, start, end, parent, run_id, raised) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id, "raised": raised}) + "\n")


def _quantile(values, q):
    return float(np.quantile(values, q)) if values else 0.0
