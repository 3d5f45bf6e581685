"""Spectral flow solver: exact anchors, conservation, and the energy identity."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import loglimit.flow
import loglimit.grid
from loglimit.flow import (
    FlowState,
    SolverConfig,
    _advection_rhs,
    _gap_state,
    cfl_timestep,
    energy_identity_terms,
    gap_l2,
    gradient_bmo,
    random_band_velocity,
    require_shared_sample_times,
    run,
    step,
    sup_gap_sq_bound,
    taylor_green_velocity,
    two_mode_velocity,
)
from loglimit.grid import (GridSpec, VectorField, _biot_savart_multiplier, _derivative_multiplier,
                           divergence)
from loglimit.inviscid import initial_condition
from loglimit.norms import bmo_seminorm
from reference import (dealiased_spectrum, full_array_step, physical_identity_terms,
                       physical_sample_norms, velocity_gap_l2, velocity_gradient)


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
        x1, x2 = grid32.coordinates()
        assert_allclose(state.vorticity.values, 2.0 * np.sin(x1) * np.sin(x2), atol=1e-12)

    def test_biot_savart_roundtrip(self, grid32):
        u = taylor_green_velocity(grid32)
        v = FlowState.from_velocity(u).velocity
        assert_allclose(v.u1.values, u.u1.values, atol=1e-12)
        assert_allclose(v.u2.values, u.u2.values, atol=1e-12)

    @pytest.mark.parametrize("ic", ["taylor_green", "two_mode", "random_42"])
    @pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256])
    def test_derived_fields_match_ifft2(self, n, ic):
        # the vorticity, both velocity components and the three gradient
        # components are each numpy's ifft2 of the n x n spectrum times its
        # n x n multiplier, bit for bit: of the initial state, and of the
        # state one step later, whose spectrum fills more of the 2/3 band
        grid = GridSpec(n)
        state = FlowState.from_velocity(initial_condition(grid, ic))
        b1, b2 = (_biot_savart_multiplier(n, axis) for axis in (1, 2))
        d1, d2 = (_derivative_multiplier(n, axis) for axis in (1, 2))
        mults = (None, b1, b2, d1 * b1, d2 * b1, d1 * b2)
        for s in (state, step(state, tg_config(grid, 1e-3, 1.0))):
            u = s.velocity
            fields = (s.vorticity, u.u1, u.u2, *loglimit.flow._state_gradient(s))
            for field, mult in zip(fields, mults, strict=True):
                coeff = s.omega_hat if mult is None else mult * s.omega_hat
                want = np.real(np.fft.ifft2(coeff * n * n))
                assert field.values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [8, 16, 64, 256])
    def test_spectrum_bit_identical_to_full_array_dealiasing(self, n):
        rng = np.random.default_rng(n)
        w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        w.real[rng.random((n, n)) < 0.25] = -0.0
        w.imag[rng.random((n, n)) < 0.25] = -0.0
        w[0, 0] = complex(-0.0, -0.0)
        hat = FlowState(GridSpec(n), 0.0, w).omega_hat
        assert hat.tobytes() == dealiased_spectrum(w).tobytes()
        assert not hat.flags.writeable

    def test_state_retains_only_the_mode_box(self, grid64):
        # the 2/3-rule box at n = 64 is 41 x 41 modes of 16 bytes
        w = np.fft.fft2(np.random.default_rng(0).standard_normal(grid64.shape))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            states = [FlowState(grid64, 0.0, w) for _ in range(64)]
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(states) == 64
        assert retained <= 1.05 * 64 * 16 * 41**2

    @pytest.mark.parametrize("shape", [(32, 32), (128, 128), (64, 65)])
    def test_spectrum_of_another_shape_rejected(self, grid64, shape):
        with pytest.raises(ValueError, match="shape"):
            FlowState(grid64, 0.0, np.zeros(shape, dtype=complex))


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

    @pytest.mark.parametrize("ic", ["taylor_green", "two_mode", "random_42"])
    @pytest.mark.parametrize("nu", [0.0, 1e-3, 0.5])
    @pytest.mark.parametrize("n", [8, 16, 64, 128])
    def test_matches_full_array_stepper(self, n, nu, ic):
        grid = GridSpec(n)
        state = FlowState.from_velocity(initial_condition(grid, ic))
        cfg = tg_config(grid, nu, 1.0)
        dt = cfl_timestep(state, cfg)
        full = state.omega_hat
        for _ in range(20):
            state = step(state, cfg, dt)
            full = dealiased_spectrum(full_array_step(grid, full, nu, dt))
            assert state.omega_hat.tobytes() == full.tobytes()

    @pytest.mark.parametrize("seed", [42, 7])
    def test_runs_match_full_array_stepper_at_sweep_settings(self, grid64, seed):
        # the sweep_f0 settings: n = 64, T = 0.5, 50 steps a run; the
        # integrating factors are computed once a run and read-only
        u0 = initial_condition(grid64, f"random_{seed}")
        for nu in (0.0, 1e-1, 1e-2, 1e-3, 1e-4):
            loglimit.flow._integrating_factors.cache_clear()
            res = run(u0, tg_config(grid64, nu, 0.5, samples=50))
            assert loglimit.flow._integrating_factors.cache_info().misses == 1
            if nu > 0:
                assert not any(e.flags.writeable for e in
                               loglimit.flow._integrating_factors(64, nu, res.dt))
            full = res.states[0].omega_hat
            for state in res.states[1:]:
                full = dealiased_spectrum(full_array_step(grid64, full, nu, res.dt))
                assert state.omega_hat.tobytes() == full.tobytes()

    def test_given_velocity_saves_two_inverse_ffts(self, grid32, monkeypatch):
        # the first stage reads the velocity it is given; the step is the same
        state = FlowState.from_velocity(random_band_velocity(grid32, seed=3))
        u = state.velocity
        cfg = tg_config(grid32, 1e-2, 1.0)
        dt = cfl_timestep(state, cfg)
        band_ifft2 = loglimit.flow._band_ifft2
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return band_ifft2(*args, **kwargs)

        monkeypatch.setattr(loglimit.flow, "_band_ifft2", counting)
        plain = step(state, cfg, dt)
        assert len(calls) == 16  # 4 stages, 4 inverse FFTs each
        reused = step(state, cfg, dt, velocity=u)
        assert len(calls) == 16 + 14
        assert np.array_equal(reused._box, plain._box)

    def test_cfl_uses_max_speed(self, grid32):
        state = FlowState.from_velocity(taylor_green_velocity(grid32))
        cfg = tg_config(grid32, 0.0, 1.0)
        assert cfl_timestep(state, cfg) == pytest.approx(0.5 * grid32.spacing / 1.0, rel=1e-10)


class TestScratch:
    """The band transforms and _band_fields work in per-grid scratch
    (grid._band_scratch): no array a caller keeps lives there, and no call
    changes what an earlier one returned."""

    def test_derived_fields_outlive_later_calls(self, grid32):
        state = FlowState.from_velocity(random_band_velocity(grid32, seed=3))
        u = state.velocity
        fields = (u.u1, u.u2, state.vorticity, *loglimit.flow._state_gradient(state))
        before = [f.values.tobytes() for f in fields]
        cfg = tg_config(grid32, 1e-2, 0.2, samples=5)
        euler = run(two_mode_velocity(grid32), tg_config(grid32, 0.0, 0.2, samples=5))
        viscous = run(two_mode_velocity(grid32), cfg)
        step(euler.states[1], cfg)
        gradient_bmo(euler.states[2])
        energy_identity_terms(viscous, euler)
        assert [f.values.tobytes() for f in fields] == before
        scratch = loglimit.grid._band_scratch(32).values()
        assert not any(np.shares_memory(f.values, a) for f in fields for a in scratch)

    def test_rhs_independent_of_earlier_calls(self, grid32):
        a, b = (FlowState.from_velocity(random_band_velocity(grid32, seed=s)) for s in (3, 4))
        first = _advection_rhs(grid32, a._box)
        want = first.tobytes()
        _advection_rhs(grid32, b._box)
        assert _advection_rhs(grid32, a._box).tobytes() == want
        assert _advection_rhs(grid32, a._box, a.velocity).tobytes() == want
        assert first.tobytes() == want
        assert not any(np.shares_memory(first, s) for s in loglimit.grid._band_scratch(32).values())

    @pytest.mark.parametrize("stage, budget_kb", [("rhs", 128), ("step", 300)])
    def test_allocation_budget(self, grid64, stage, budget_kb):
        # glibc gives a freed heap top above its trim threshold, 128 KB at
        # first, back to the kernel; a right-hand side that allocates less
        # than that does not fault its temporaries in again in every stage
        state = FlowState.from_velocity(random_band_velocity(grid64, seed=42))
        cfg = tg_config(grid64, 1e-3, 0.5)
        dt = cfl_timestep(state, cfg)
        call = {"rhs": lambda: _advection_rhs(grid64, state._box),
                "step": lambda: step(state, cfg, dt)}[stage]
        call()  # the cached multipliers, integrating factors and scratch now exist
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            call()
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < budget_kb * 1024


class TestRun:
    def test_energy_conservation_euler(self):
        grid = GridSpec(128)
        cfg = SolverConfig(grid=grid, nu=0.0, horizon=1.0, min_samples=20)
        res = run(two_mode_velocity(grid), cfg)
        e = res.series.energy
        assert abs(e[-1] - e[0]) / e[0] < 1e-6
        z = res.series.enstrophy
        assert abs(z[-1] - z[0]) / z[0] < 1e-6

    def test_viscous_energy_dissipation_rate(self, grid64):
        nu = 1e-2
        cfg = SolverConfig(grid=grid64, nu=nu, horizon=0.5, min_samples=50)
        res = run(random_band_velocity(grid64, seed=5), cfg)
        e, z, t = res.series.energy, res.series.enstrophy, res.series.times
        # dE/dt = -2 nu Z, discretely per sample interval to 1 percent
        for i in range(len(t) - 1):
            lhs = (e[i + 1] - e[i]) / (t[i + 1] - t[i])
            rhs = -2 * nu * 0.5 * (z[i] + z[i + 1])
            assert lhs == pytest.approx(rhs, rel=1e-2)

    def test_enstrophy_nonincreasing_viscous(self, grid64):
        cfg = SolverConfig(grid=grid64, nu=1e-3, horizon=0.5, min_samples=25)
        res = run(random_band_velocity(grid64, seed=43), cfg)
        z = res.series.enstrophy
        assert np.all(np.diff(z) <= 1e-12 + 1e-9 * z[:-1])

    def test_divergence_free_throughout(self, grid64):
        cfg = SolverConfig(grid=grid64, nu=1e-3, horizon=0.3, min_samples=10)
        res = run(random_band_velocity(grid64, seed=7), cfg)
        for state in res.states:
            u = state.velocity
            vmax = max(np.abs(u.u1.values).max(), np.abs(u.u2.values).max())
            assert np.abs(divergence(u).values).max() <= 1e-9 * vmax

    def test_g0_equals_sqrt_twice_enstrophy(self, grid64):
        cfg = SolverConfig(grid=grid64, nu=0.0, horizon=0.3, min_samples=10)
        res = run(random_band_velocity(grid64, seed=9), cfg)
        assert_allclose(res.series.g0, np.sqrt(2.0 * res.series.enstrophy), rtol=1e-10)

    def test_sample_times_deterministic_pairing(self, grid32):
        u = taylor_green_velocity(grid32)
        cfg_e = tg_config(grid32, 0.0, 0.5, samples=30)
        cfg_n = tg_config(grid32, 1e-2, 0.5, samples=30)
        res_e = run(u, cfg_e)
        res_n = run(u, cfg_n)
        assert np.array_equal(res_e.sample_times, res_n.sample_times)

    def test_mean_velocity_rejected(self, grid32):
        ones = np.ones(grid32.shape)
        u = VectorField.from_values(grid32, ones, 0 * ones)
        with pytest.raises(ValueError, match="zero mean"):
            run(u, tg_config(grid32, 0.0, 0.1))

    def test_blow_up_marker_on_absurd_speed(self, grid32):
        u = taylor_green_velocity(grid32, amplitude=1e9)
        cfg = SolverConfig(grid=grid32, nu=0.0, horizon=0.1)
        res = run(u, cfg)
        assert res.blow_up
        assert len(res.states) == 1  # bailed before stepping

    @pytest.mark.parametrize("n, ic, samples, exceeds", [
        (16, "random_4", 1, True),  # speeds up past the initial CFL bound
        (32, "random_42", 10, False),
        (32, "taylor_green", 1, False),  # steady: the initial bound throughout
    ])
    def test_realised_cfl_recomputed_from_states(self, n, ic, samples, exceeds):
        grid = GridSpec(n)
        cfg = SolverConfig(grid=grid, nu=0.0, horizon=1.0, min_samples=samples)
        res = run(initial_condition(grid, ic), cfg)
        speeds = [max(float(np.abs(c.values).max()) for c in (u.u1, u.u2))
                  for u in (s.velocity for s in res.states)]
        assert res.max_cfl == max(res.dt * v / grid.spacing for v in speeds)
        assert (res.max_cfl > loglimit.flow.CFL) == exceeds

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
        res = run(u0, cfg)
        assert len(res.states) == 11
        assert len(calls) <= len(res.states) + 1

    @pytest.mark.parametrize("nu", [0.0, 1e-2])
    @pytest.mark.parametrize("ic", ["taylor_green", "random_42"])
    def test_steps_equal_a_plain_step_loop(self, grid32, ic, nu):
        # run hands each sample's velocity to the next step; a plain loop of
        # steps, which derive it afresh, reaches the same mode vectors
        cfg = SolverConfig(grid=grid32, nu=nu, horizon=0.2, min_samples=10)
        res = run(initial_condition(grid32, ic), cfg)
        assert len(res.states) == 11
        state = res.states[0]
        for sample in res.states[1:]:
            state = step(state, cfg, res.dt)
            assert state.time == sample.time
            assert np.array_equal(state._box, sample._box)

    @pytest.mark.parametrize("scan_f0, inverse", [(False, 0), (True, 3)])
    def test_sample_row_ffts(self, grid32, monkeypatch, scan_f0, inverse):
        # energy, enstrophy and g0 come from the mode vector and h0 from the
        # given velocity, so a sample row takes no FFT; scanning f0 with
        # gradient_bmo takes one band inverse transform per gradient component
        state = FlowState.from_velocity(random_band_velocity(grid32, seed=3))
        u = state.velocity
        calls = []

        def counted(module, name):
            fft = getattr(module, name)

            def counting(*args, **kwargs):
                calls.append(name)
                return fft(*args, **kwargs)

            return counting

        for module, name in ((np.fft, "fft2"), (np.fft, "ifft2"),
                             (loglimit.flow, "_band_fft2"), (loglimit.flow, "_band_ifft2")):
            monkeypatch.setattr(module, name, counted(module, name))
        row = loglimit.flow._sample_row(state, u)
        assert row[0] == 0.0
        if scan_f0:
            assert loglimit.flow.gradient_bmo(state) > 0.0
        assert calls == ["_band_ifft2"] * inverse

    def test_run_derives_no_gradient_or_vorticity(self, grid32, monkeypatch):
        # no vorticity field and no gradient: a run leaves f0 unscanned
        def forbidden(*args):
            raise AssertionError("run derived a vorticity field")

        state_gradient = loglimit.flow._state_gradient
        gradients = []

        def counting(state):
            gradients.append(state)
            return state_gradient(state)

        monkeypatch.setattr(loglimit.flow, "_state_gradient", counting)
        monkeypatch.setattr(FlowState, "vorticity", property(forbidden))
        cfg = SolverConfig(grid=grid32, nu=1e-2, horizon=0.2, min_samples=10)
        res = run(random_band_velocity(grid32, seed=3), cfg)
        assert len(res.states) == 11 and np.all(res.series.f0 == 0.0)
        assert gradients == []

    @pytest.mark.parametrize("ic", ["taylor_green", "two_mode", "random_42"])
    @pytest.mark.parametrize("n", [64, 128])
    def test_series_match_physical_sums(self, n, ic):
        # every sample's energy, enstrophy and g0 against grid sums of the
        # velocity, the vorticity and the four gradient components
        grid = GridSpec(n)
        cfg = SolverConfig(grid=grid, nu=1e-3, horizon=0.1, min_samples=4)
        res = run(initial_condition(grid, ic), cfg)
        assert len(res.states) >= 5
        for i, state in enumerate(res.states):
            energy, enstrophy, grad_l2 = physical_sample_norms(state.omega_hat)
            assert res.series.energy[i] == pytest.approx(energy, rel=1e-14)
            assert res.series.enstrophy[i] == pytest.approx(enstrophy, rel=1e-14)
            assert res.series.g0[i] == pytest.approx(grad_l2, rel=1e-14)

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
            results[n] = run(two_mode_velocity(grid), cfg)
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
        assert velocity_gap_l2(u, u) == 0.0
        s = FlowState.from_velocity(u)
        assert gap_l2(s, s) == 0.0

    def test_taylor_green_pair_closed_form(self, grid32):
        nu, T = 1e-2, 0.5
        u = taylor_green_velocity(grid32)
        res_e = run(u, tg_config(grid32, 0.0, T, samples=25))
        res_n = run(u, tg_config(grid32, nu, T, samples=25))
        for se, sn in zip(res_e.states, res_n.states):
            expected = math.pi * math.sqrt(2.0) * (1 - math.exp(-2 * nu * sn.time))
            assert velocity_gap_l2(sn.velocity, se.velocity) == pytest.approx(expected, abs=1e-9)
            assert gap_l2(sn, se) == pytest.approx(expected, abs=1e-9)
            assert gap_l2(se, sn) == gap_l2(sn, se)

    def test_orthogonal_modes_pythagoras(self, grid32):
        a = VectorField.from_values(
            grid32, np.sin(grid32.coordinates()[0]), np.zeros(grid32.shape)
        )
        b = VectorField.from_values(
            grid32, np.zeros(grid32.shape), np.sin(2 * grid32.coordinates()[1])
        )
        zero = VectorField.from_values(grid32, *[np.zeros(grid32.shape)] * 2)
        na, nb = velocity_gap_l2(a, zero), velocity_gap_l2(b, zero)
        assert velocity_gap_l2(a, b) == pytest.approx(math.hypot(na, nb), rel=1e-12)

    def test_grid_mismatch_rejected(self):
        a = taylor_green_velocity(GridSpec(32))
        b = taylor_green_velocity(GridSpec(64))
        with pytest.raises(ValueError):
            velocity_gap_l2(a, b)
        for gap in (gap_l2, sup_gap_sq_bound, _gap_state):
            with pytest.raises(ValueError, match="different grids"):
                gap(FlowState.from_velocity(a), FlowState.from_velocity(b))


class TestSupGapSqBound:
    """sup_gap_sq_bound lets measured_forcing skip the physical alpha only if
    the computed alpha.max() is at most the threshold: alpha of the gap
    state's velocity, as measured_forcing computes it, and alpha of the
    difference of the two states' velocities."""

    @staticmethod
    def _aligned_difference(n, rng):
        """A vorticity spectrum on the k1 = 0 line whose velocity difference
        is (sum_k c_k cos(k2 (x2 - x0)), 0), c_k = c_{-k} > 0: its max is the
        Wiener sum, attained at the grid point x0, so the bound is tight."""
        k = np.fft.fftfreq(n, d=1.0 / n)
        x0 = rng.integers(n) * 2 * np.pi / n
        hat = np.zeros((n, n), dtype=complex)
        for k2 in range(1, n // 3):
            c = rng.random()
            for j in (k2, -k2):
                b1 = 1j * k[j] / k[j] ** 2  # the Biot-Savart multiplier of u1 at (0, k2)
                hat[0, j] = c * np.exp(-1j * k[j] * x0) / b1
        return hat

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("nu", [1e-1, 0.9])
    def test_shortcut_fires_only_where_alpha_is_below_threshold(self, grid32, seed, nu):
        rng = np.random.default_rng(seed)
        threshold = max(1.0 / nu, 1.0 + 1e-9)
        diff = self._aligned_difference(32, rng)
        # a reference state 1e4 times heavier, so that the rounding of each
        # derived velocity, not of the difference, dominates alpha's error
        ref = FlowState.from_velocity(random_band_velocity(grid32, seed=seed)).omega_hat
        ref = ref * (1e4 * np.abs(diff).sum() / np.abs(ref).sum())
        b = FlowState(grid32, 0.0, ref)
        unit = FlowState(grid32, 0.0, ref + diff)
        wiener = math.sqrt(sup_gap_sq_bound(unit, b))
        # scales whose bound straddles the threshold, coarsely and in the last bits
        ratios = np.concatenate([np.geomspace(0.25, 4.0, 41), 1.0 + 1e-13 * np.arange(-200, 201)])
        fired = 0
        for r in ratios:
            a = FlowState(grid32, 0.0, ref + math.sqrt(r * threshold) / wiener * diff)
            if sup_gap_sq_bound(a, b) <= threshold:
                fired += 1
                ua, ub = a.velocity, b.velocity
                d1, d2 = ua.u1.values - ub.u1.values, ua.u2.values - ub.u2.values
                assert (d1**2 + d2**2).max() <= threshold, r
                w = _gap_state(a, b).velocity
                assert (w.u1.values**2 + w.u2.values**2).max() <= threshold, r
        assert 0 < fired < len(ratios)


class TestRequireSharedSampleTimes:
    def test_three_runs_require_shared_sample_times(self, grid32):
        u = taylor_green_velocity(grid32)
        runs = [run(u, tg_config(grid32, nu, 0.2, samples=s))
                for nu, s in ((0.0, 5), (0.1, 5), (0.01, 6))]
        require_shared_sample_times(*runs[:2])
        with pytest.raises(ValueError, match="sample times"):
            require_shared_sample_times(*runs)


class TestEnergyIdentity:
    def test_taylor_green_residual_tiny_and_fourth_order(self, grid64):
        nu, T = 0.5, 1.0

        def residual_at(dt):
            u = taylor_green_velocity(grid64)
            samples = int(round(T / dt))
            res_e = run(u, tg_config(grid64, 0.0, T, samples=samples))
            res_n = run(u, tg_config(grid64, nu, T, samples=samples))
            terms = energy_identity_terms(res_n, res_e)
            return float(np.abs(terms.residual).max()), terms.largest_term

        r1, big1 = residual_at(0.02)
        r2, _ = residual_at(0.01)
        assert r1 <= 0.01 * big1
        assert r1 / r2 >= 8.0

    def test_advection_term_vanishes_for_taylor_green(self, grid32):
        u = taylor_green_velocity(grid32)
        res_e = run(u, tg_config(grid32, 0.0, 0.5, samples=10))
        res_n = run(u, tg_config(grid32, 0.1, 0.5, samples=10))
        terms = energy_identity_terms(res_n, res_e)
        # (w . grad uE) . w integrates to zero when w is parallel to uE
        assert np.abs(terms.advection).max() < 1e-12

    def test_requires_shared_sample_times(self, grid32):
        u = taylor_green_velocity(grid32)
        res_a = run(u, tg_config(grid32, 0.0, 0.5, samples=10))
        res_b = run(u, tg_config(grid32, 0.1, 0.5, samples=11))
        with pytest.raises(ValueError, match="sample times"):
            energy_identity_terms(res_b, res_a)

    @pytest.mark.parametrize("ic", ["taylor_green", "two_mode", "random_42"])
    def test_terms_match_velocity_space_oracle(self, grid64, ic):
        u = initial_condition(grid64, ic)
        res_e = run(u, tg_config(grid64, 0.0, 0.5, samples=10))
        res_n = run(u, tg_config(grid64, 0.5, 0.5, samples=10))
        terms = energy_identity_terms(res_n, res_e)
        expected = physical_identity_terms(
            [s.velocity for s in res_n.states], [s.velocity for s in res_e.states],
            0.5, res_e.sample_times,
        )
        assert np.array_equal(terms.times, res_e.sample_times[2:-2])
        tol = 1e-12 * terms.largest_term
        for got, want in zip((terms.ddt_half_gap_sq, terms.advection, terms.viscous), expected):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= tol

    def test_velocity_derived_only_for_interior_gap_states(self, grid32, monkeypatch):
        # the end samples enter only the stencil, by Parseval; an interior
        # sample derives the gap state's velocity and no run state's
        u = taylor_green_velocity(grid32)
        res_e = run(u, tg_config(grid32, 0.0, 0.5, samples=10))
        res_n = run(u, tg_config(grid32, 0.1, 0.5, samples=10))
        derive = FlowState.velocity.fget
        calls = []

        def counting(state):
            calls.append(state)
            return derive(state)

        monkeypatch.setattr(FlowState, "velocity", property(counting))
        energy_identity_terms(res_n, res_e)
        assert len(calls) == len(res_e.states) - 4
        run_states = {id(s) for s in res_n.states + res_e.states}
        assert not any(id(s) in run_states for s in calls)
        assert [s.time for s in calls] == [s.time for s in res_n.states[2:-2]]


class TestInitialConditions:
    @staticmethod
    def initial_series(u):
        cfg = SolverConfig(grid=u.grid, nu=0.0, horizon=0.01)
        return run(u, cfg).series

    def test_taylor_green_norms(self, grid64):
        series = self.initial_series(taylor_green_velocity(grid64))
        assert series.energy[0] == pytest.approx(math.pi**2, rel=1e-12)
        assert series.g0[0] == pytest.approx(2 * math.pi, rel=1e-12)
        assert series.enstrophy[0] == pytest.approx(2 * math.pi**2, rel=1e-12)

    def test_random_band_deterministic_and_normalized(self, grid64):
        a = random_band_velocity(grid64, seed=42)
        b = random_band_velocity(grid64, seed=42)
        assert np.array_equal(a.u1.values, b.u1.values)
        energy = self.initial_series(a).energy[0]
        assert math.sqrt(2 * energy) == pytest.approx(math.pi * math.sqrt(2), rel=1e-12)

    def test_two_mode_mean_free_div_free(self, grid64):
        u = two_mode_velocity(grid64)
        assert abs(u.u1.mean()) < 1e-13
        vmax = np.abs(u.u1.values).max()
        assert np.abs(divergence(u).values).max() < 1e-10 * vmax


class TestGradientBmo:
    @pytest.mark.parametrize("ic", ["taylor_green", "random_42"])
    def test_scan_count_and_value(self, grid32, monkeypatch, ic):
        # a state's velocity is divergence-free, so d2 u2 = -d1 u1 and three
        # scans give the sum over the four components of its gradient
        state = FlowState.from_velocity(initial_condition(grid32, ic))
        expected = sum(bmo_seminorm(c) for c in velocity_gradient(state.velocity))
        calls = []

        def counting(g):
            calls.append(g)
            return bmo_seminorm(g)

        monkeypatch.setattr(loglimit.flow, "bmo_seminorm", counting)
        assert gradient_bmo(state) == pytest.approx(expected, rel=1e-14)
        assert len(calls) == 3
