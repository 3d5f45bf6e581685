"""Spectral flow solver: exact anchors, conservation, and the energy identity."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import loglimit.flow
from loglimit.flow import (
    FlowState,
    SolverConfig,
    cfl_timestep,
    energy_identity_terms,
    enstrophy_of,
    gap_l2,
    gradient_bmo,
    gradient_l2,
    kinetic_energy,
    paired_velocities,
    random_band_velocity,
    run,
    step,
    taylor_green_velocity,
    taylor_green_vorticity,
    two_mode_velocity,
    velocity_gradient,
)
from loglimit.grid import GridSpec, VectorField, divergence
from loglimit.norms import bmo_seminorm


def tg_config(grid, nu, T, samples=20):
    return SolverConfig(grid=grid, nu=nu, horizon=T, min_samples=samples)


class TestState:
    def test_velocity_divergence_free(self, grid64):
        u = random_band_velocity(grid64, seed=1)
        state = FlowState.from_velocity(u)
        v = state.velocity
        vmax = max(np.abs(v.u1.values).max(), np.abs(v.u2.values).max())
        assert np.abs(divergence(v).values).max() <= 1e-10 * vmax

    def test_vorticity_mean_free(self, grid32):
        state = FlowState.from_velocity(taylor_green_velocity(grid32))
        assert abs(state.omega_hat[0, 0]) == 0.0

    def test_taylor_green_vorticity_consistent(self, grid32):
        state = FlowState.from_velocity(taylor_green_velocity(grid32))
        assert_allclose(state.vorticity.values, taylor_green_vorticity(grid32).values, atol=1e-12)

    def test_biot_savart_roundtrip(self, grid32):
        u = taylor_green_velocity(grid32)
        v = FlowState.from_velocity(u).velocity
        assert_allclose(v.u1.values, u.u1.values, atol=1e-12)
        assert_allclose(v.u2.values, u.u2.values, atol=1e-12)


class TestStep:
    def test_zero_field_stays_zero(self, grid32):
        state = FlowState.from_velocity(taylor_green_velocity(grid32, amplitude=0.0))
        cfg = tg_config(grid32, 0.0, 1.0)
        out = step(state, cfg, dt=0.01)
        assert np.abs(out.omega_hat).max() == 0.0

    def test_taylor_green_euler_stationary(self, grid64):
        cfg = tg_config(grid64, 0.0, 1.0)
        state = FlowState.from_velocity(taylor_green_velocity(grid64))
        w0 = state.vorticity.values
        for _ in range(25):
            state = step(state, cfg, dt=0.02)
        rel = np.linalg.norm(state.vorticity.values - w0) / np.linalg.norm(w0)
        assert rel < 1e-10

    def test_taylor_green_viscous_decay_exact(self, grid64):
        nu = 1e-2
        cfg = tg_config(grid64, nu, 1.0)
        state = FlowState.from_velocity(taylor_green_velocity(grid64))
        w0 = state.vorticity.values
        t = 0.0
        for _ in range(20):
            state = step(state, cfg, dt=0.05)
            t += 0.05
        expected = math.exp(-2 * nu * t) * w0
        rel = np.linalg.norm(state.vorticity.values - expected) / np.linalg.norm(expected)
        assert rel < 1e-10

    def test_cfl_uses_max_speed(self, grid32):
        state = FlowState.from_velocity(taylor_green_velocity(grid32))
        cfg = tg_config(grid32, 0.0, 1.0)
        assert cfl_timestep(state, cfg) == pytest.approx(0.5 * grid32.spacing / 1.0, rel=1e-10)


class TestRun:
    def test_energy_conservation_euler(self):
        grid = GridSpec(128)
        cfg = SolverConfig(grid=grid, nu=0.0, horizon=1.0, min_samples=20)
        res = run(two_mode_velocity(grid), cfg, compute_norms=False)
        e = res.series.energy
        assert abs(e[-1] - e[0]) / e[0] < 1e-6
        z = res.series.enstrophy
        assert abs(z[-1] - z[0]) / z[0] < 1e-6

    def test_viscous_energy_dissipation_rate(self, grid64):
        nu = 1e-2
        cfg = SolverConfig(grid=grid64, nu=nu, horizon=0.5, min_samples=50)
        res = run(random_band_velocity(grid64, seed=5), cfg, compute_norms=False)
        e, z, t = res.series.energy, res.series.enstrophy, res.series.times
        # dE/dt = -2 nu Z, discretely per sample interval to 1 percent
        for i in range(len(t) - 1):
            lhs = (e[i + 1] - e[i]) / (t[i + 1] - t[i])
            rhs = -2 * nu * 0.5 * (z[i] + z[i + 1])
            assert lhs == pytest.approx(rhs, rel=1e-2)

    def test_enstrophy_nonincreasing_viscous(self, grid64):
        cfg = SolverConfig(grid=grid64, nu=1e-3, horizon=0.5, min_samples=25)
        res = run(random_band_velocity(grid64, seed=43), cfg, compute_norms=False)
        z = res.series.enstrophy
        assert np.all(np.diff(z) <= 1e-12 + 1e-9 * z[:-1])

    def test_divergence_free_throughout(self, grid64):
        cfg = SolverConfig(grid=grid64, nu=1e-3, horizon=0.3, min_samples=10)
        res = run(random_band_velocity(grid64, seed=7), cfg, compute_norms=False)
        for state in res.states:
            u = state.velocity
            vmax = max(np.abs(u.u1.values).max(), np.abs(u.u2.values).max())
            assert np.abs(divergence(u).values).max() <= 1e-9 * vmax

    def test_g0_equals_sqrt_twice_enstrophy(self, grid64):
        cfg = SolverConfig(grid=grid64, nu=0.0, horizon=0.3, min_samples=10)
        res = run(random_band_velocity(grid64, seed=9), cfg, compute_norms=False)
        assert_allclose(res.series.g0, np.sqrt(2.0 * res.series.enstrophy), rtol=1e-10)

    def test_sample_times_deterministic_pairing(self, grid32):
        u = taylor_green_velocity(grid32)
        cfg_e = tg_config(grid32, 0.0, 0.5, samples=30)
        cfg_n = tg_config(grid32, 1e-2, 0.5, samples=30)
        res_e = run(u, cfg_e, compute_norms=False)
        res_n = run(u, cfg_n, compute_norms=False)
        assert np.array_equal(res_e.sample_times, res_n.sample_times)

    def test_mean_velocity_rejected(self, grid32):
        ones = np.ones(grid32.shape)
        u = VectorField.from_values(grid32, ones, 0 * ones)
        with pytest.raises(ValueError, match="zero mean"):
            run(u, tg_config(grid32, 0.0, 0.1))

    def test_blow_up_marker_on_absurd_speed(self, grid32):
        u = taylor_green_velocity(grid32, amplitude=1e9)
        cfg = SolverConfig(grid=grid32, nu=0.0, horizon=0.1)
        res = run(u, cfg, compute_norms=False)
        assert res.blow_up
        assert len(res.states) == 1  # bailed before stepping

    def test_velocity_derived_once_per_sample(self, grid32, monkeypatch):
        # the blow-up check and the series row of a sample share one velocity;
        # the one extra derivation is the initial CFL bound
        u0 = random_band_velocity(grid32, seed=3)
        derive = FlowState.velocity.fget
        calls = []

        def counting(state):
            calls.append(state.time)
            return derive(state)

        monkeypatch.setattr(FlowState, "velocity", property(counting))
        cfg = SolverConfig(grid=grid32, nu=0.0, horizon=0.2, min_samples=10)
        res = run(u0, cfg, compute_norms=False)
        assert len(res.states) == 11
        assert len(calls) <= len(res.states) + 1

    def test_velocity_gradient_derived_once_per_sample(self, grid32, monkeypatch):
        # f0 and g0 of a sample read the same four gradient components
        derive = loglimit.flow.velocity_gradient
        calls = []

        def counting(u):
            calls.append(u)
            return derive(u)

        monkeypatch.setattr(loglimit.flow, "velocity_gradient", counting)
        cfg = SolverConfig(grid=grid32, nu=0.0, horizon=0.2, min_samples=10)
        res = run(taylor_green_velocity(grid32), cfg, compute_norms=True)
        assert len(calls) == len(res.states) == 11

    def test_spectral_accuracy_under_refinement(self):
        # same initial data and the same dt on 32, 64, and a 128 reference;
        # the coarse-grid error collapses by far more than the factor a
        # fixed-order scheme would give
        T, dt = 1.0, 0.004
        results = {}
        for n in (32, 64, 128):
            grid = GridSpec(n)
            cfg = SolverConfig(grid=grid, nu=0.0, horizon=T,
                               min_samples=int(round(T / dt)))
            results[n] = run(two_mode_velocity(grid), cfg, compute_norms=False)
        ref = results[128].states[-1].omega_hat

        def coarse_error(n):
            hat = results[n].states[-1].omega_hat
            k = np.fft.fftfreq(n, d=1.0 / n)
            band = int(n / 3) - 1
            mask = (np.abs(k[:, None]) <= band) & (np.abs(k[None, :]) <= band)
            kref = np.fft.fftfreq(128, d=1.0 / 128)
            mask_ref = (np.abs(kref[:, None]) <= band) & (np.abs(kref[None, :]) <= band)
            diff = hat[mask] - ref[mask_ref]
            return np.linalg.norm(diff)

        assert coarse_error(32) / coarse_error(64) > 100.0


class TestGap:
    def test_identical_fields(self, grid32):
        u = taylor_green_velocity(grid32)
        assert gap_l2(u, u) == 0.0

    def test_taylor_green_pair_closed_form(self, grid32):
        nu, T = 1e-2, 0.5
        u = taylor_green_velocity(grid32)
        res_e = run(u, tg_config(grid32, 0.0, T, samples=25), compute_norms=False)
        res_n = run(u, tg_config(grid32, nu, T, samples=25), compute_norms=False)
        for se, sn in zip(res_e.states, res_n.states):
            expected = math.pi * math.sqrt(2.0) * (1 - math.exp(-2 * nu * sn.time))
            assert gap_l2(sn.velocity, se.velocity) == pytest.approx(expected, abs=1e-9)

    def test_orthogonal_modes_pythagoras(self, grid32):
        a = VectorField.from_values(
            grid32, np.sin(grid32.coordinates()[0]), np.zeros(grid32.shape)
        )
        b = VectorField.from_values(
            grid32, np.zeros(grid32.shape), np.sin(2 * grid32.coordinates()[1])
        )
        na, nb = gap_l2(a, VectorField.from_values(grid32, *[np.zeros(grid32.shape)] * 2)), None
        nb = gap_l2(b, VectorField.from_values(grid32, *[np.zeros(grid32.shape)] * 2))
        assert gap_l2(a, b) == pytest.approx(math.hypot(na, nb), rel=1e-12)

    def test_grid_mismatch_rejected(self):
        a = taylor_green_velocity(GridSpec(32))
        b = taylor_green_velocity(GridSpec(64))
        with pytest.raises(ValueError):
            gap_l2(a, b)


class TestPairedVelocities:
    def test_three_runs_one_tuple_per_sample(self, grid32):
        u = taylor_green_velocity(grid32)
        runs = [run(u, tg_config(grid32, nu, 0.2, samples=5), compute_norms=False)
                for nu in (0.0, 0.1, 0.01)]
        tuples = list(paired_velocities(*runs))
        assert len(tuples) == len(runs[0].states)
        for i, velocities in enumerate(tuples):
            assert len(velocities) == 3
            for r, v in zip(runs, velocities):
                assert np.array_equal(v.u1.values, r.states[i].velocity.u1.values)

    def test_three_runs_require_shared_sample_times(self, grid32):
        u = taylor_green_velocity(grid32)
        runs = [run(u, tg_config(grid32, nu, 0.2, samples=s), compute_norms=False)
                for nu, s in ((0.0, 5), (0.1, 5), (0.01, 6))]
        paired_velocities(*runs[:2])
        with pytest.raises(ValueError, match="sample times"):
            paired_velocities(*runs)


class TestEnergyIdentity:
    def test_taylor_green_residual_tiny_and_fourth_order(self, grid64):
        nu, T = 0.5, 1.0

        def residual_at(dt):
            u = taylor_green_velocity(grid64)
            samples = int(round(T / dt))
            res_e = run(u, tg_config(grid64, 0.0, T, samples=samples), compute_norms=False)
            res_n = run(u, tg_config(grid64, nu, T, samples=samples), compute_norms=False)
            terms = energy_identity_terms(res_n, res_e)
            return float(np.abs(terms.residual).max()), terms.largest_term

        r1, big1 = residual_at(0.02)
        r2, _ = residual_at(0.01)
        assert r1 <= 0.01 * big1
        assert r1 / r2 >= 8.0

    def test_advection_term_vanishes_for_taylor_green(self, grid32):
        u = taylor_green_velocity(grid32)
        res_e = run(u, tg_config(grid32, 0.0, 0.5, samples=10), compute_norms=False)
        res_n = run(u, tg_config(grid32, 0.1, 0.5, samples=10), compute_norms=False)
        terms = energy_identity_terms(res_n, res_e)
        # (w . grad uE) . w integrates to zero when w is parallel to uE
        assert np.abs(terms.advection).max() < 1e-12

    def test_requires_shared_sample_times(self, grid32):
        u = taylor_green_velocity(grid32)
        res_a = run(u, tg_config(grid32, 0.0, 0.5, samples=10), compute_norms=False)
        res_b = run(u, tg_config(grid32, 0.1, 0.5, samples=11), compute_norms=False)
        with pytest.raises(ValueError, match="sample times"):
            energy_identity_terms(res_b, res_a)

    def test_velocities_derived_once_per_sample(self, grid32, monkeypatch):
        u = taylor_green_velocity(grid32)
        res_e = run(u, tg_config(grid32, 0.0, 0.5, samples=10), compute_norms=False)
        res_n = run(u, tg_config(grid32, 0.1, 0.5, samples=10), compute_norms=False)
        derive = FlowState.velocity.fget
        calls = []

        def counting(state):
            calls.append(state.time)
            return derive(state)

        monkeypatch.setattr(FlowState, "velocity", property(counting))
        energy_identity_terms(res_n, res_e)
        assert len(calls) == 2 * len(res_e.states)


class TestInitialConditions:
    def test_taylor_green_norms(self, grid64):
        u = taylor_green_velocity(grid64)
        assert kinetic_energy(u) == pytest.approx(math.pi**2, rel=1e-12)
        assert gradient_l2(velocity_gradient(u)) == pytest.approx(2 * math.pi, rel=1e-12)
        w = FlowState.from_velocity(u).vorticity
        assert enstrophy_of(w) == pytest.approx(2 * math.pi**2, rel=1e-12)

    def test_random_band_deterministic_and_normalized(self, grid64):
        a = random_band_velocity(grid64, seed=42)
        b = random_band_velocity(grid64, seed=42)
        assert np.array_equal(a.u1.values, b.u1.values)
        assert math.sqrt(2 * kinetic_energy(a)) == pytest.approx(math.pi * math.sqrt(2), rel=1e-12)

    def test_two_mode_mean_free_div_free(self, grid64):
        u = two_mode_velocity(grid64)
        assert abs(u.u1.mean()) < 1e-13
        vmax = np.abs(u.u1.values).max()
        assert np.abs(divergence(u).values).max() < 1e-10 * vmax


class TestGradientBmo:
    @pytest.mark.parametrize("divergence_free, scans", [(True, 3), (False, 4)])
    def test_scan_count_and_value(self, grid32, monkeypatch, divergence_free, scans):
        # d1 u1 = -d2 u2 for Taylor-Green; the gradient of sin x1 sin x2 has
        # d1 u1 = +d2 u2, so its fourth component needs its own scan
        if divergence_free:
            u = taylor_green_velocity(grid32)
        else:
            x1, x2 = grid32.coordinates()
            u = VectorField.from_values(grid32, np.cos(x1) * np.sin(x2), np.sin(x1) * np.cos(x2))
        expected = sum(bmo_seminorm(c) for c in velocity_gradient(u))
        calls = []

        def counting(g):
            calls.append(g)
            return bmo_seminorm(g)

        monkeypatch.setattr(loglimit.flow, "bmo_seminorm", counting)
        assert gradient_bmo(velocity_gradient(u)) == pytest.approx(expected, rel=1e-14)
        assert len(calls) == scans
