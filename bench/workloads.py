"""The four benchmark workloads.

A workload's inputs come from its seed alone. Its unit of timed work is a
round: a fixed list of calls into the public library API. Every round of a
run repeats the same calls on the same inputs, so per-round counts repeat
exactly and whole rounds keep the failed share constant. All calls run at
`threads=1` (see README.md).

`run_round` returns a `Round`; `check` receives the first timed round and
the solver results recorded while it ran, and returns failure messages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import ripless
from ripless import EnsembleSpec, ExperimentConfig, GridCell

import checks

THREADS = 1


@dataclass
class Round:
    trials: int
    failed: int
    outcome: tuple     # compared across rounds and against the traced round
    outputs: list      # what `check` reads


def _nonconverged(results) -> int:
    return sum(rec["nonconverged"] for res in results for rec in res.records)


def _trials(results) -> int:
    return sum(rec["trials"] for res in results for rec in res.records)


def _sample(seed: int, population: int, k: int) -> list:
    """A seeded sample of indices, drawn apart from any library stream."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0xBE7C,)))
    return sorted(int(i) for i in rng.choice(population, size=min(k, population), replace=False))


class _Experiments:
    """Workloads made of run_experiment calls, each result written to disk."""

    configs: tuple = ()

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir

    def _run(self, configs) -> list:
        results = []
        for i, cfg in enumerate(configs):
            res = ripless.run_experiment(cfg, threads=THREADS)
            res.write(f"{self.out_dir}/{i}")
            results.append(res)
        return results

    def run_round(self) -> Round:
        results = self._run(self.configs)
        return Round(_trials(results), _nonconverged(results),
                     tuple(res.csv_text() for res in results), results)


def _recovery_inputs(cfg: ExperimentConfig, spec: EnsembleSpec, cell: GridCell, index: int,
                     trial: int):
    """A trial's (A, y, x) rebuilt through the public API, in the stream order
    the harness documents: signal, then matrix, then noise."""
    rng = ripless.harness.trial_rng(cfg.seed, index, trial)
    x = ripless.harness.plant_signal(cell.n, cell.s, cfg.signal, cfg.signal_power, rng)
    A = ripless.realify(ripless.build_matrix(spec, cell.m, rng=rng)).rows
    y = A @ x
    sigma_m = cell.sigma / math.sqrt(A.shape[0])
    if cell.sigma > 0.0:
        y = y + sigma_m * rng.standard_normal(A.shape[0])
    return A, y, x, sigma_m


class BpPhase(_Experiments):
    """ensemble_compare basis pursuit, Gaussian and subsampled DFT, n=256, s=5.

    The seeded cells sit above the Gaussian transition, where basis pursuit
    converges on every trial (none of 400 Gaussian trials at m=48 stalled).
    Below it, the trial of STALL (Gaussian m=32, fixed seed) hits the
    100 000-iteration cap every time; it runs once per round and counts as
    failed.
    """

    name = "bp_phase"
    N, S, TRIALS, CELLS = 256, 5, 10, (64, 96, 128, 200)
    CHECKED = 6
    STALL = ExperimentConfig(kind="ensemble_compare", ensemble=EnsembleSpec("gaussian", 256),
                             grid=(GridCell(256, 5, 32),), trials=1, seed=22)

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.config = ExperimentConfig(
            kind="ensemble_compare", ensemble=EnsembleSpec("gaussian", self.N),
            ensembles=(EnsembleSpec("subsampled_dft", self.N),),
            grid=tuple(GridCell(self.N, self.S, m) for m in self.CELLS),
            trials=self.TRIALS, seed=seed)
        self.configs = (self.config, self.STALL)

    def warm_up(self):
        spec = EnsembleSpec("gaussian", 32)
        self._run([ExperimentConfig(kind="ensemble_compare", ensemble=spec,
                                    ensembles=(EnsembleSpec("subsampled_dft", 32),),
                                    grid=(GridCell(32, 2, 16),), trials=1, seed=self.seed)])

    def check(self, first: Round, recorded) -> list:
        errors = []
        seeded = first.outputs[0]
        for rec in seeded.records:
            if rec["ensemble"] == "gaussian" and rec["m"] == 200 and rec["success_rate"] < 0.9:
                errors.append(f"bp_phase: gaussian success rate {rec['success_rate']} < 0.9 at m=200")
        specs = self.config.all_ensembles
        pairs = [(c, t) for c in range(len(self.config.grid) * len(specs))
                 for t in range(self.TRIALS)]
        for k in _sample(self.seed, len(pairs), self.CHECKED):
            cell, trial = pairs[k]
            replay = ripless.replay_trial(self.config, cell, trial)
            A, y, x, _ = _recovery_inputs(self.config, specs[cell % len(specs)],
                                          self.config.grid[cell // len(specs)], cell, trial)
            if not np.array_equal(np.asarray(replay["x"]), x):
                errors.append(f"bp_phase: replay of cell {cell} trial {trial} planted another x")
            if replay["converged"]:
                x_hat = np.asarray(replay["x_hat"])
                errors += checks.bp_solution(A, y, x, x_hat, checks.highs_bp(A, y))
        return errors


class NoisyPrograms(_Experiments):
    """error_scaling for LASSO and Dantzig on the acceptance grid: Gaussian,
    n=256, s=4, sigma=0.5, m = k ceil(s log n) for k in 4, 8, 16, 32.

    Dantzig's seeded cells are k = 8, 16, 32. At k = 4 (m=92) its cost is
    heavy-tailed across seeds (3.2 to 14.8 s a trial on seeds 11-18, the
    slow ones where x = 0 is optimal), so one seeded trial there would set
    the whole spread. That cell runs instead as TRIVIAL, a fixed trial
    where ||A^T y||_inf <= lam_sigma, in every round.
    """

    name = "noisy_programs"
    N, S, SIGMA, KS = 256, 4, 0.5, (4, 8, 16, 32)
    LASSO_TRIALS, DANTZIG_TRIALS = 25, 1
    TRIVIAL = ExperimentConfig(kind="error_scaling", ensemble=EnsembleSpec("gaussian", 256),
                               grid=(GridCell(256, 4, 92, 0.5),), trials=1, seed=12,
                               program="dantzig")

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        unit = math.ceil(self.S * math.log(self.N))
        grid = tuple(GridCell(self.N, self.S, k * unit, self.SIGMA) for k in self.KS)
        spec = EnsembleSpec("gaussian", self.N)
        self.configs = (
            ExperimentConfig(kind="error_scaling", ensemble=spec, grid=grid,
                             trials=self.LASSO_TRIALS, seed=seed, program="lasso"),
            ExperimentConfig(kind="error_scaling", ensemble=spec, grid=grid[1:],
                             trials=self.DANTZIG_TRIALS, seed=seed, program="dantzig"),
            self.TRIVIAL,
        )

    def warm_up(self):
        self._run([ExperimentConfig(kind="error_scaling", ensemble=EnsembleSpec("gaussian", 32),
                                    grid=(GridCell(32, 2, 24, self.SIGMA),), trials=1,
                                    seed=self.seed, program=p) for p in ("lasso", "dantzig")])

    def check(self, first: Round, recorded) -> list:
        errors = []
        expected = sum(len(cfg.grid) * cfg.trials for cfg in self.configs)
        if len(recorded) != expected:
            errors.append(f"noisy_programs: {len(recorded)} solver calls, expected {expected}")
        for name, trial_id, lam_sigma, result in recorded:
            experiment, cell, trial = (int(v) for v in trial_id.split(":"))
            cfg = self.configs[experiment]
            A, y, x, sigma_m = _recovery_inputs(cfg, cfg.ensemble, cfg.grid[cell], cell, trial)
            lam = ripless.default_lambda(cfg.ensemble.n) * sigma_m
            if not math.isclose(lam, lam_sigma, rel_tol=1e-12):
                errors.append(f"{name}: called with lam_sigma {lam_sigma}, expected {lam}")
            x_hat = np.asarray(result.x_hat)
            if name == "solvers.dantzig":
                errors += checks.dantzig_solution(A, y, lam, x_hat, checks.highs_dantzig(A, y, lam))
            else:
                errors += checks.lasso_kkt(A, y, lam, x_hat)
            if checks.zero_is_optimal(A, y, lam):
                errors += checks.is_zero(name, x_hat, x)
        return errors


class GolfingSoundness:
    """The golfing soundness flow for subsampled DFT, n=256, s=4, default
    schedule: certificate, inexact duality, then BP on the realified stack."""

    name = "golfing_soundness"
    N, S, TRIALS = 256, 4, 40

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.spec = EnsembleSpec("subsampled_dft", self.N)
        self.schedule = ripless.default_config(self.N, self.S, mu=1.0)

    def _trial(self, spec, schedule, seed, t) -> dict:
        n, s = spec.n, self.S
        rng = ripless.harness.trial_rng(seed, 0, t)
        idx = np.sort(rng.choice(n, s, replace=False))
        signs = np.zeros(n)
        signs[idx] = rng.choice([-1.0, 1.0], s)
        support = ripless.SupportSet(tuple(int(k) for k in idx), n)
        cert = ripless.golfing_scheme(spec, support, signs, schedule, rng)
        out = {"t": t, "idx": idx, "signs": signs, "success": cert.success, "v": cert.v,
               "w": cert.w, "sizes": [b.size for b in cert.batch_log],
               "converged": True, "iterations": 0}
        if cert.success:
            report = ripless.verify_inexact_duality(cert, cert.matrix, support, signs)
            out["report"] = (report.gram_inverse_norm, report.cross_column_max,
                             report.sign_gap, report.off_support_max)
            A_r, y_r = ripless.realify(cert.matrix, cert.matrix.rows @ signs)
            try:
                res = ripless.basis_pursuit(A_r.rows, y_r)
            except (ValueError, np.linalg.LinAlgError):
                out["converged"] = False
            else:
                out.update(x_hat=res.x_hat, converged=res.converged, iterations=res.iterations)
        return out

    def warm_up(self):
        self._trial(EnsembleSpec("subsampled_dft", 64), ripless.default_config(64, self.S, 1.0),
                    self.seed, 0)

    def run_round(self) -> Round:
        outs = [self._trial(self.spec, self.schedule, self.seed, t) for t in range(self.TRIALS)]
        outcome = tuple((o["success"], tuple(o["sizes"]), o["converged"], o["iterations"],
                         o.get("report")) for o in outs)
        return Round(len(outs), sum(not o["converged"] for o in outs), outcome, outs)

    def check(self, first: Round, recorded) -> list:
        errors = []
        wins = sum(o["success"] for o in first.outputs)
        if wins < 0.9 * self.TRIALS:
            errors.append(f"golfing: {wins}/{self.TRIALS} certificates succeeded (need 90%)")
        for o in first.outputs:
            if not o["success"]:
                continue
            rng = ripless.harness.trial_rng(self.seed, 0, o["t"])
            rng.choice(self.N, self.S, replace=False)   # support, then signs: as drawn
            rng.choice([-1.0, 1.0], self.S)
            raw = np.vstack([checks.raw_rows("subsampled_dft", self.N, size, rng)
                             for size in o["sizes"]])
            A = np.conj(raw) / math.sqrt(raw.shape[0])
            errors += checks.inexact_duality(A, o["idx"], o["signs"], o["v"], o["w"], o["report"])
            if o["converged"]:
                errors += checks.sign_recovery(o["x_hat"], o["signs"])
        return errors


class TailEstimates(_Experiments):
    """estimate_sweep for E1-E4 over Gaussian, subsampled DFT and binary at
    m = ceil((56/3) mu s log n), n=128, s=4; plus rip_constant_exact and
    noise-correlation exceedance. No solver runs here."""

    name = "tail_estimates"
    N, S, EVENTS = 128, 4, 40
    LEVELS = {"E1": 0.5, "E2": 0.5, "E3": 0.5, "E4": 1.0}
    FAMILIES = ("gaussian", "subsampled_dft", "binary")
    RIP_N, RIP_M, RIP_S = 24, 60, 4
    NOISE_M, NOISE_DRAWS = 200, 4000

    def __init__(self, seed: int, out_dir: str):
        super().__init__(seed, out_dir)
        configs = []
        for which in self.LEVELS:
            for family in self.FAMILIES:
                mu = 6.0 * math.log(self.N) if family == "gaussian" else 1.0
                m = math.ceil((56.0 / 3.0) * mu * self.S * math.log(self.N))
                configs.append(ExperimentConfig(
                    kind="estimate_sweep", ensemble=EnsembleSpec(family, self.N),
                    grid=(GridCell(self.N, self.S, m),), trials=self.EVENTS,
                    seed=seed * 16 + len(configs), which=which, level=self.LEVELS[which]))
        self.configs = tuple(configs)
        rip_ss, matrix_ss, self.draws_ss = np.random.SeedSequence(
            seed, spawn_key=(0x7A11,)).spawn(3)
        self.rip_matrix = ripless.build_matrix(EnsembleSpec("gaussian", self.RIP_N), self.RIP_M,
                                               rng=np.random.default_rng(rip_ss)).rows
        self.noise_matrix = ripless.build_matrix(EnsembleSpec("gaussian", self.N), self.NOISE_M,
                                                 rng=np.random.default_rng(matrix_ss)).rows

    def warm_up(self):
        spec = EnsembleSpec("binary", 16)
        self._run([ExperimentConfig(kind="estimate_sweep", ensemble=spec,
                                    grid=(GridCell(16, 2, 32),), trials=2, seed=self.seed,
                                    which=which, level=level)
                   for which, level in self.LEVELS.items()])
        ripless.rip_constant_exact(self.rip_matrix[:, :6], 2)
        ripless.noise_correlation_bound(self.noise_matrix, 1.0).exceedance(2, rng=0)

    def run_round(self) -> Round:
        results = self._run(self.configs)
        delta = ripless.rip_constant_exact(self.rip_matrix, self.RIP_S)
        bound = ripless.noise_correlation_bound(self.noise_matrix, 1.0)
        report = bound.exceedance(self.NOISE_DRAWS, rng=np.random.default_rng(self.draws_ss))
        outcome = tuple(res.csv_text() for res in results) + (delta, report.failures)
        return Round(_trials(results), 0, outcome, [results, delta, bound, report])

    def check(self, first: Round, recorded) -> list:
        results, delta, bound, report = first.outputs
        errors = []
        for cfg, res in zip(self.configs, results):
            rec = res.records[0]
            cell = cfg.grid[0]
            if rec["ci_lower"] > rec["theoretical_bound"]:
                errors.append(f"{cfg.which} {cfg.ensemble.family}: CP lower {rec['ci_lower']} "
                              f"above the bound {rec['theoretical_bound']}")
            rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0,)))
            idx = np.sort(rng.choice(cell.n, cell.s, replace=False))
            v = None
            if cfg.which in ("E2", "E3"):
                amps = rng.standard_normal(cell.s)
                v = np.zeros(cell.n)
                v[idx] = amps / np.linalg.norm(amps)
            count = sum(checks.event(cfg.which, cfg.ensemble.family, cell.n, cell.m, idx, v,
                                     cfg.level, stream) for stream in rng.spawn(cfg.trials))
            reported = round(rec["empirical_rate"] * rec["trials"])
            if count != reported:
                errors.append(f"{cfg.which} {cfg.ensemble.family}: {reported} events reported, "
                              f"{count} recomputed")
        exact = checks.rip_batched(self.rip_matrix, self.RIP_S)
        if abs(exact - delta) > 1e-10:
            errors.append(f"rip_constant_exact = {delta!r}, batched eigvalsh gives {exact!r}")
        threshold = 2.0 * float(np.max(np.linalg.norm(self.noise_matrix, axis=0))) * math.sqrt(
            math.log(self.N))
        if not math.isclose(threshold, bound.threshold, rel_tol=1e-12):
            errors.append(f"noise threshold {bound.threshold!r}, expected {threshold!r}")
        count = checks.noise_failures(self.noise_matrix, 1.0, threshold, self.NOISE_DRAWS,
                                      np.random.default_rng(self.draws_ss))
        if count != report.failures:
            errors.append(f"noise exceedance: {report.failures} reported, {count} recomputed")
        if not report.passed:
            errors.append("noise exceedance: CP lower bound above 1/(2n)")
        return errors


WORKLOADS = {w.name: w for w in (BpPhase, NoisyPrograms, GolfingSoundness, TailEstimates)}
