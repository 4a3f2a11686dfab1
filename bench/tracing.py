"""Spans and counts around the library's public functions.

The tracer rebinds each traced function wherever a loaded `ripless` module
holds it (the defining module, the modules that imported it, and the
package namespace), so calls made inside the harness and calls made by the
benchmark through `ripless.<name>` are both seen. Nothing in `src/` is
edited; `uninstall` puts every original back.

Every call records a span (name, start, end, parent span, trial id) kept in
memory. A span's self time is its duration minus the time its child spans
cover. Counts are taken at the same boundary from the call's arguments and
result, outside the span's clock.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import defaultdict

import numpy as np

from ripless import certificates, core, ensembles, estimates, harness, solvers

import checks

# metric prefix -> (owner, attribute). Methods are patched on their class.
TRACED = {
    "ensembles.sample_rows": (ensembles, "sample_rows"),
    "ensembles.build_matrix": (ensembles, "build_matrix"),
    "core.realify": (core, "realify"),
    "solvers.basis_pursuit": (solvers, "basis_pursuit"),
    "solvers.lasso": (solvers, "lasso"),
    "solvers.dantzig": (solvers, "dantzig"),
    "certificates.golfing_scheme": (certificates, "golfing_scheme"),
    "certificates.verify_inexact_duality": (certificates, "verify_inexact_duality"),
    "estimates.empirical_estimate": (estimates, "empirical_estimate"),
    "estimates.rip_constant_exact": (estimates, "rip_constant_exact"),
    "estimates.noise_exceedance": (estimates.NoiseCorrelationCheck, "exceedance"),
    "harness.run_experiment": (harness, "run_experiment"),
    "harness.write": (harness.ExperimentResult, "write"),
}

# the metric names each span name feeds, with their units (README table)
LAYER_METRICS = {
    "ensembles.sample_rows.s": "s",
    "ensembles.sample_rows.calls": "count",
    "ensembles.sample_rows.rows": "count",
    "ensembles.build_matrix.s": "s",
    "ensembles.build_matrix.calls": "count",
    "core.realify.s": "s",
    "core.realify.calls": "count",
    "solvers.basis_pursuit.s": "s",
    "solvers.basis_pursuit.calls": "count",
    "solvers.basis_pursuit.iterations": "count",
    "solvers.basis_pursuit.capped": "count",
    "solvers.basis_pursuit.ms_per_iteration": "ms",
    "solvers.basis_pursuit.call_ms_p50": "ms",
    "solvers.basis_pursuit.call_ms_p90": "ms",
    "solvers.lasso.s": "s",
    "solvers.lasso.calls": "count",
    "solvers.lasso.iterations": "count",
    "solvers.dantzig.s": "s",
    "solvers.dantzig.calls": "count",
    "solvers.dantzig.iterations": "count",
    "solvers.dantzig.ms_per_iteration": "ms",
    "solvers.dantzig.trivial_calls": "count",
    "certificates.golfing_scheme.s": "s",
    "certificates.golfing_scheme.calls": "count",
    "certificates.golfing_scheme.batches": "count",
    "certificates.golfing_scheme.batches_rejected": "count",
    "certificates.verify_inexact_duality.s": "s",
    "certificates.verify_inexact_duality.calls": "count",
    "estimates.empirical_estimate.s": "s",
    "estimates.empirical_estimate.calls": "count",
    "estimates.empirical_estimate.events": "count",
    "estimates.rip_constant_exact.s": "s",
    "estimates.rip_constant_exact.calls": "count",
    "estimates.rip_constant_exact.subsets": "count",
    "estimates.noise_exceedance.s": "s",
    "estimates.noise_exceedance.calls": "count",
    "harness.run_experiment.self_s": "s",
    "harness.run_experiment.calls": "count",
    "harness.write.s": "s",
    "harness.write.calls": "count",
}


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _count(name, args, kwargs, result, counts):
    """Counts taken at one call boundary; each adds to `counts`."""
    if name == "ensembles.sample_rows":
        counts["ensembles.sample_rows.rows"] += int(_arg(args, kwargs, 1, "m"))
    elif name == "solvers.basis_pursuit":
        counts["solvers.basis_pursuit.iterations"] += result.iterations
        max_iter = kwargs.get("max_iter", solvers.MAX_ITER)
        counts["solvers.basis_pursuit.capped"] += (
            not result.converged and result.iterations >= max_iter)
    elif name == "solvers.lasso":
        counts["solvers.lasso.iterations"] += result.iterations
    elif name == "solvers.dantzig":
        counts["solvers.dantzig.iterations"] += result.iterations
    elif name == "certificates.golfing_scheme":
        counts["certificates.golfing_scheme.batches"] += len(result.batch_log)
        counts["certificates.golfing_scheme.batches_rejected"] += sum(
            not b.accepted for b in result.batch_log)
    elif name == "estimates.empirical_estimate":
        counts["estimates.empirical_estimate.events"] += int(_arg(args, kwargs, 5, "trials"))
    elif name == "estimates.rip_constant_exact":
        A = _arg(args, kwargs, 0, "A")
        n = np.shape(getattr(A, "rows", A))[1]
        counts["estimates.rip_constant_exact.subsets"] += math.comb(n, int(_arg(args, kwargs, 1, "s")))


class Tracer:
    """Records spans, counts and solver outputs while installed.

    With `spans=False` only the solver outputs are kept (trial id, lam_sigma
    and the SolverResult), which is what the noisy-program checks need.
    """

    def __init__(self, spans: bool = True):
        self.record_spans = spans
        self.spans = []        # (span id, name, start, end, parent id, trial id)
        self.counts = defaultdict(float)
        self.solver_calls = []  # (name, trial id, lam_sigma, SolverResult)
        self._stack = []
        self._trial = None
        self._experiment = -1
        self._saved = []

    # -- installation -------------------------------------------------
    def install(self) -> None:
        targets = dict(TRACED)
        targets["trial"] = (harness, "trial_rng")
        for name, (owner, attr) in targets.items():
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            holders = [owner]
            if not isinstance(owner, type):
                holders = [mod for key, mod in list(sys.modules.items())
                           if (key == "ripless" or key.startswith("ripless."))
                           and getattr(mod, attr, None) is original]
            for holder in holders:
                self._saved.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            holder, attr, original = self._saved.pop()
            setattr(holder, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, name, fn):
        tracer = self

        if name == "trial":
            def trial_rng(seed, cell, trial):
                tracer._trial = f"{tracer._experiment}:{cell}:{trial}"
                return fn(seed, cell, trial)
            return trial_rng

        def traced(*args, **kwargs):
            if name == "harness.run_experiment":
                tracer._experiment += 1
                tracer._trial = None
            trivial = None
            if name == "solvers.dantzig" and tracer.record_spans:
                trivial = checks.zero_is_optimal(_arg(args, kwargs, 0, "A"), _arg(args, kwargs, 1, "y"),
                                             _arg(args, kwargs, 2, "lam_sigma"))
            span_id = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            trial = tracer._trial
            if tracer.record_spans:
                tracer._stack.append(span_id)
                tracer.spans.append(None)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if tracer.record_spans:
                    tracer._stack.pop()
                    tracer.spans[span_id] = (span_id, name, start, end, parent, trial)
            if name in ("solvers.basis_pursuit", "solvers.lasso", "solvers.dantzig"):
                lam_sigma = None if name == "solvers.basis_pursuit" else _arg(
                    args, kwargs, 2, "lam_sigma")
                tracer.solver_calls.append((name, trial, lam_sigma, result))
            if tracer.record_spans:
                _count(name, args, kwargs, result, tracer.counts)
                if trivial:
                    tracer.counts["solvers.dantzig.trivial_calls"] += 1
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    # -- reduction ----------------------------------------------------
    def layer_metrics(self, rounds: int) -> dict:
        """Per-round layer metrics from the recorded spans and counts."""
        child = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        durations = defaultdict(list)
        for span_id, name, start, end, _, _ in self.spans:
            self_s[name] += (end - start) - child[span_id]
            calls[name] += 1
            durations[name].append(end - start)

        values = {}
        for name in TRACED:
            key = "harness.run_experiment.self_s" if name == "harness.run_experiment" else f"{name}.s"
            values[key] = self_s[name] / rounds
            values[f"{name}.calls"] = calls[name] / rounds
        for key, total in self.counts.items():
            values[key] = total / rounds
        for prefix in ("solvers.basis_pursuit", "solvers.dantzig"):
            its = self.counts[f"{prefix}.iterations"]
            total_s = sum(durations[prefix])
            values[f"{prefix}.ms_per_iteration"] = 1e3 * total_s / its if its else 0.0
        bp_ms = 1e3 * np.asarray(durations["solvers.basis_pursuit"])
        for q in (50, 90):
            values[f"solvers.basis_pursuit.call_ms_p{q}"] = (
                float(np.percentile(bp_ms, q)) if bp_ms.size else 0.0)
        return {key: {"value": float(values.get(key, 0.0)), "unit": unit}
                for key, unit in LAYER_METRICS.items()}

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, trial in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent, "trial": trial}) + "\n")
