"""Golfing-scheme certificates: schedules, duality checks, Monte Carlo rates."""

import math

import numpy as np
import pytest

from ripless.certificates import (
    GolfingConfig,
    config_from_total,
    default_batch_count,
    default_config,
    golfing_scheme,
    least_squares_dual,
    verify_inexact_duality,
)
from ripless.core import SupportSet, realify
from ripless.ensembles import EnsembleSpec, build_matrix
from ripless.solvers import basis_pursuit

DFT256 = EnsembleSpec("subsampled_dft", 256)


def planted_signs(n, s, rng):
    idx = np.sort(rng.choice(n, s, replace=False))
    signs = np.zeros(n)
    signs[idx] = rng.choice([-1.0, 1.0], s)
    return SupportSet(tuple(int(i) for i in idx), n), signs


def run_once(spec, s, config, seed, rng=None):
    rng = np.random.default_rng(seed) if rng is None else rng
    T, signs = planted_signs(spec.n, s, rng)
    return T, signs, golfing_scheme(spec, T, signs, config, rng)


class TestSchedule:
    def test_batch_count(self):
        # ceil(log2(s)/2) + 2, with the s = 1 convention
        assert default_batch_count(16) == 4
        assert default_batch_count(1) == 2
        assert default_batch_count(2) == 3
        assert default_batch_count(4) == 3
        assert default_batch_count(5) == 4
        assert default_batch_count(256) == 6
        with pytest.raises(ValueError):
            default_batch_count(0)

    def test_desk_scale_split(self):
        cfg = config_from_total(256, 4, 887)
        assert cfg.ell == 3
        assert cfg.total_rows <= 887
        # front-loaded shares: prod_{j<i} c_j out of the total weight
        c1 = 1.0 / (2.0 * math.sqrt(math.log(256)))
        assert cfg.contraction_targets == (c1, 0.5, 0.5)
        weight = 1.0 + c1 + 0.5 * c1
        assert cfg.batch_sizes == tuple(
            int(887 * w / weight) for w in (1.0, c1, 0.5 * c1)
        )
        for t, m in zip(cfg.infnorm_targets, cfg.batch_sizes):
            assert t == pytest.approx(max(4.2 / math.sqrt(m), t), rel=0)
        assert cfg.max_extra_batches == 3 * math.ceil(math.log(256)) + 1

    def test_stated_infnorm_targets_at_full_scale(self):
        # big batches leave the stated targets binding: 1/(8 sqrt s) twice,
        # then log n / (8 sqrt s)
        cfg = config_from_total(256, 4, 200_000)
        assert cfg.infnorm_targets[0] == pytest.approx(1.0 / 16.0)
        assert cfg.infnorm_targets[1] == pytest.approx(1.0 / 16.0)
        assert cfg.infnorm_targets[2] == pytest.approx(math.log(256) / 16.0)

    def test_desk_scale_floor_lifts_infnorm_targets(self):
        cfg = config_from_total(256, 4, 887)
        for t, m in zip(cfg.infnorm_targets, cfg.batch_sizes):
            assert t >= 4.2 / math.sqrt(m) - 1e-15

    def test_default_budget_scales(self):
        base = default_config(256, 4, mu=1.0)
        assert base.total_rows <= int(40 * 4 * math.log(256))
        doubled = default_config(256, 4, mu=2.0)
        assert doubled.total_rows > 1.9 * base.total_rows

    def test_trivial_s1_schedule(self):
        # two batches suffice: c1 c2 = 1/(4 sqrt(log n)) <= 1/4 once n >= 3
        cfg = config_from_total(64, 1, 200)
        assert cfg.ell == 2
        product = cfg.contraction_targets[0] * cfg.contraction_targets[1]
        assert product == pytest.approx(1.0 / (4.0 * math.sqrt(math.log(64))))
        for n in (3, 16, 1024):
            c = config_from_total(n, 1, 200).contraction_targets
            assert c[0] * c[1] <= 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            config_from_total(256, 4, 100)  # cannot hold 3 batches of 36
        with pytest.raises(ValueError):
            default_config(256, 4, mu=0.5)
        with pytest.raises(ValueError):
            GolfingConfig(2, (36,), (0.5, 0.5), (0.5, 0.5), 1)
        with pytest.raises(ValueError):
            GolfingConfig(2, (36, 36), (0.5, -0.5), (0.5, 0.5), 1)
        with pytest.raises(ValueError):
            GolfingConfig(2, (36, 0), (0.5, 0.5), (0.5, 0.5), 1)
        with pytest.raises(ValueError):
            GolfingConfig(2, (36, 36), (0.5, 0.5), (0.5, 0.5), -1)


class TestGolfingRun:
    def test_deterministic_given_seed(self):
        cfg = default_config(256, 4, mu=1.0)
        rng = np.random.default_rng(3)
        T, signs = planted_signs(256, 4, rng)
        a = golfing_scheme(DFT256, T, signs, cfg, rng=11)
        b = golfing_scheme(DFT256, T, signs, cfg, rng=11)
        assert np.array_equal(a.v, b.v)
        assert np.array_equal(a.w, b.w)
        assert a.batch_log == b.batch_log
        assert a.q_norms == b.q_norms

    def test_reconstruction_identity_on_success_and_failure(self):
        cfg = default_config(256, 4, mu=1.0)
        _, _, cert = run_once(DFT256, 4, cfg, seed=5)
        assert cert.reconstruction_residual() <= 1e-10
        doomed = GolfingConfig(2, (36, 36), (1e-9, 1e-9), (0.5, 0.5), 2)
        _, _, fail = run_once(DFT256, 4, doomed, seed=5)
        assert fail.reconstruction_residual() <= 1e-10

    def test_budget_exhaustion_is_an_outcome(self):
        doomed = GolfingConfig(2, (36, 36), (1e-9, 1e-9), (0.5, 0.5), 2)
        _, _, cert = run_once(DFT256, 4, doomed, seed=9)
        assert not cert.success
        assert cert.batches_used == 3  # first attempt plus two retries
        assert all(not b.accepted for b in cert.batch_log)
        assert cert.m_total == 108 == cert.matrix.m == cert.w.size
        assert len(cert.q_norms) == 1
        assert not np.any(cert.w)

    def test_contraction_certified_by_log(self):
        cfg = default_config(256, 4, mu=1.0)
        _, _, cert = run_once(DFT256, 4, cfg, seed=17)
        assert cert.success
        step = 0
        for entry in cert.batch_log:
            if entry.accepted:
                ratio = cert.q_norms[step + 1] / cert.q_norms[step]
                assert ratio <= cfg.contraction_targets[entry.stage - 1]
                step += 1
        assert step == cfg.ell

    def test_sign_gap_telescopes_to_final_residual(self):
        cfg = default_config(256, 4, mu=1.0)
        T, signs, cert = run_once(DFT256, 4, cfg, seed=23)
        assert cert.success
        gap = np.linalg.norm(cert.v[T.to_array()] - signs[T.to_array()])
        assert gap == pytest.approx(cert.q_norms[-1], abs=1e-12)
        # the schedule's own chain: ||q_ell|| <= sqrt(s) prod c_i <= 1/4
        chain = math.sqrt(4) * np.prod(cfg.contraction_targets)
        assert cert.q_norms[-1] <= chain <= 0.25

    def test_success_conditions_enforced(self):
        cfg = default_config(256, 4, mu=1.0)
        T, signs, cert = run_once(DFT256, 4, cfg, seed=29)
        if cert.success:
            idx = T.to_array()
            off = np.delete(cert.v, idx)
            assert np.linalg.norm(cert.v[idx] - signs[idx]) <= 0.25
            assert np.max(np.abs(off)) <= 0.25

    def test_sign_pattern_validation(self):
        cfg = config_from_total(64, 2, 200)
        spec = EnsembleSpec("subsampled_dft", 64)
        T = SupportSet((3, 10), 64)
        bad_off = np.zeros(64)
        bad_off[[3, 10, 20]] = 1.0
        with pytest.raises(ValueError):
            golfing_scheme(spec, T, bad_off, cfg, rng=1)
        zero_on = np.zeros(64)
        zero_on[3] = 1.0
        with pytest.raises(ValueError):
            golfing_scheme(spec, T, zero_on, cfg, rng=1)
        with pytest.raises(ValueError):
            golfing_scheme(spec, T, np.ones(32), cfg, rng=1)
        with pytest.raises(ValueError):
            golfing_scheme(spec, SupportSet((3, 10), 32), np.zeros(64), cfg, rng=1)

    def test_complex_sign_support(self):
        cfg = default_config(256, 3, mu=1.0)
        rng = np.random.default_rng(31)
        idx = np.sort(rng.choice(256, 3, replace=False))
        signs = np.zeros(256, dtype=complex)
        signs[idx] = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 3))
        cert = golfing_scheme(DFT256, SupportSet(tuple(int(i) for i in idx), 256),
                              signs, cfg, rng)
        assert np.iscomplexobj(cert.v)
        assert cert.reconstruction_residual() <= 1e-10
        assert cert.success


class TestMonteCarloRates:
    def test_dft_rate_at_desk_budget_with_soundness(self):
        # 40 s log n total rows; every verified success must be recovered
        # exactly by basis pursuit on the realified system
        cfg = default_config(256, 4, mu=1.0)
        rng = np.random.default_rng(20260817)
        successes = 0
        solved = 0
        for _ in range(100):
            T, signs = planted_signs(256, 4, rng)
            cert = golfing_scheme(DFT256, T, signs, cfg, rng)
            if not cert.success:
                continue
            successes += 1
            if solved < 8:
                idx = T.to_array()
                report = verify_inexact_duality(cert, cert.matrix, T, signs)
                if not report.passed:
                    continue
                x = np.zeros(256)
                x[idx] = signs[idx] * rng.uniform(1.0, 3.0, 4)
                rows = realify(cert.matrix.rows)
                result = basis_pursuit(rows, rows @ x)
                assert np.linalg.norm(result.x_hat - x) <= 1e-6
                solved += 1
        assert successes >= 90
        assert solved == 8

    def test_gaussian_rate_at_sixty_s_log_n(self):
        n, s = 256, 4
        spec = EnsembleSpec("gaussian", n)
        cfg = config_from_total(n, s, int(60 * s * math.log(n)))
        rng = np.random.default_rng(1234)
        successes = sum(
            golfing_scheme(spec, *planted_signs(n, s, rng), cfg, rng).success
            for _ in range(100)
        )
        assert successes >= 90

    def test_w_norm_law(self):
        # the dual multiplier of a successful certificate obeys ||w|| <= C0 sqrt(s)
        cfg = default_config(256, 4, mu=1.0)
        _, _, cert = run_once(DFT256, 4, cfg, seed=41)
        assert cert.success
        ratio = np.linalg.norm(cert.w) / math.sqrt(4)
        assert math.isfinite(ratio) and ratio <= 10.0

    def test_w_ratio_stable_as_n_doubles(self):
        # sqrt(s) law: the ratio should not move with n at fixed sampling ratio
        means = []
        for n in (128, 512):
            spec = EnsembleSpec("subsampled_dft", n)
            cfg = config_from_total(n, 4, int(60 * 4 * math.log(n)))
            rng = np.random.default_rng(n)
            ratios = []
            while len(ratios) < 6:
                cert = golfing_scheme(spec, *planted_signs(n, 4, rng), cfg, rng)
                if cert.success:
                    ratios.append(np.linalg.norm(cert.w) / math.sqrt(4))
            means.append(np.mean(ratios))
        assert max(means) <= 2.0 * min(means)

    def test_s1_run_contracts_to_schedule(self):
        spec = EnsembleSpec("subsampled_dft", 64)
        cfg = config_from_total(64, 1, 300)
        rng = np.random.default_rng(8)
        T, signs = planted_signs(64, 1, rng)
        cert = golfing_scheme(spec, T, signs, cfg, rng)
        assert cert.success
        if all(b.accepted for b in cert.batch_log):
            bound = np.prod(cfg.contraction_targets)
            assert cert.q_norms[-1] <= bound


class TestExactDuality:
    def test_least_squares_dual_pins_support(self):
        A = build_matrix(EnsembleSpec("gaussian", 16), 64, rng=3)
        T = SupportSet((1, 5, 9), 16)
        x = np.zeros(16)
        x[[1, 5, 9]] = [2.0, -1.0, 0.5]
        v, w = least_squares_dual(A, T, x)
        assert np.max(np.abs(v[[1, 5, 9]] - np.sign(x[[1, 5, 9]]))) <= 1e-10
        assert np.linalg.norm(A.rows.conj().T @ w - v) <= 1e-10

    def test_least_squares_dual_rank_deficient_raises(self):
        A = np.zeros((3, 4))
        A[:, 0] = 1.0
        A[:, 1] = 1.0
        x = np.array([1.0, 1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            least_squares_dual(A, [0, 1], x)

    def test_golfing_success_tightened_to_exact(self):
        cfg = default_config(256, 4, mu=1.0)
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 5:
            T, signs = planted_signs(256, 4, rng)
            cert = golfing_scheme(DFT256, T, signs, cfg, rng)
            if not cert.success:
                continue
            x = np.zeros(256)
            x[T.to_array()] = signs[T.to_array()] * rng.uniform(1.0, 3.0, 4)
            v, _ = least_squares_dual(cert.matrix, T, x)
            idx = T.to_array()
            assert np.max(np.abs(v[idx] - np.sign(x[idx]))) <= 1e-8
            assert np.max(np.abs(np.delete(v, idx))) < 1.0
            checked += 1


class TestInexactDuality:
    def test_orthonormal_maximal_margins(self):
        v = np.zeros(8)
        v[[2, 5]] = [1.0, -1.0]
        x = np.zeros(8)
        x[[2, 5]] = [3.0, -4.0]
        report = verify_inexact_duality(v, np.eye(8), [2, 5], x)
        assert report.passed
        assert report.gram_inverse_norm == pytest.approx(1.0)
        assert report.cross_column_max == 0.0
        assert report.sign_gap == 0.0
        assert report.off_support_max == 0.0
        assert report.margins() == {
            "gram_inverse": pytest.approx(1.0),
            "cross_column": 1.0,
            "sign_gap": 0.25,
            "off_support": 0.25,
        }

    def test_sign_gap_alone_fails(self):
        v = np.zeros(8)
        v[[2, 5]] = [1.3, -1.0]  # ||v_T - sgn|| = 0.3 > 1/4
        x = np.zeros(8)
        x[[2, 5]] = [3.0, -4.0]
        report = verify_inexact_duality(v, np.eye(8), [2, 5], x)
        assert not report.passed
        assert report.sign_gap == pytest.approx(0.3)
        assert report.sign_margin < 0.0
        assert report.inverse_margin >= 0.0
        assert report.cross_margin >= 0.0
        assert report.off_margin >= 0.0

    def test_accepts_certificate_or_bare_vector(self):
        cfg = default_config(256, 4, mu=1.0)
        T, signs, cert = run_once(DFT256, 4, cfg, seed=55)
        assert cert.success
        from_cert = verify_inexact_duality(cert, cert.matrix, T, signs)
        from_vec = verify_inexact_duality(cert.v, cert.matrix, T, signs)
        assert from_cert == from_vec

    def test_support_validation(self):
        with pytest.raises(ValueError):
            verify_inexact_duality(np.zeros(8), np.eye(8), [2, 2], np.ones(8))
        with pytest.raises(ValueError):
            verify_inexact_duality(np.zeros(8), np.eye(8), [], np.ones(8))
        with pytest.raises(ValueError):
            verify_inexact_duality(np.zeros(4), np.eye(8), [1], np.ones(8))
        x_zero_on_support = np.zeros(8)
        with pytest.raises(ValueError):
            verify_inexact_duality(np.zeros(8), np.eye(8), [1], x_zero_on_support)
