"""Tests of the pluggable array-backend shim (:mod:`repro.backends`).

The contract under test has three legs:

* **registry** -- name resolution, availability probing, and the
  kwarg > scope > environment > numpy precedence order,
* **bitwise pinning** -- the ``numpy`` backend executes the exact call
  sequence of the pre-shim kernels, so explicit ``backend="numpy"``,
  no backend at all, and hand-inlined pre-shim replicas all agree to the
  byte (property-tested across random workloads),
* **fast-VF solve** -- :func:`vf_scaling_solve` agrees with ``lstsq``
  over the looped block oracle.

Optional cupy/torch backends are covered by equivalence tests that skip
(visibly, not silently) when the library is absent.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends import (
    BACKEND_NAMES,
    ArrayBackend,
    BackendUnavailableError,
    ENV_VARIABLE,
    available_backends,
    get_backend,
    resolve_backend,
    use_backend,
)
from repro.core.assembly import (
    PoleGrouping,
    partial_fraction_basis,
    vf_scaling_blocks,
    vf_scaling_blocks_reference,
    vf_scaling_solve,
)
from repro.utils.linalg import realify

BACKEND_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _vf_workload(seed: int, n_ports: int = 3, n_poles: int = 6, n_samples: int = 40):
    """A small well-conditioned fast-VF workload (phi, responses, q1)."""
    rng = np.random.default_rng(seed)
    n_pairs = n_poles // 2
    alpha = -0.5 - rng.random(n_pairs)
    beta = 1.0 + 29.0 * rng.random(n_pairs)
    poles = np.empty(2 * n_pairs, dtype=complex)
    poles[0::2] = alpha + 1j * beta
    poles[1::2] = alpha - 1j * beta
    s_points = 1j * np.linspace(0.5, 30.0, n_samples)
    n_entries = n_ports * n_ports
    responses = rng.standard_normal((n_samples, n_entries)) + 1j * rng.standard_normal(
        (n_samples, n_entries)
    )
    grouping = PoleGrouping.from_poles(poles)
    phi = partial_fraction_basis(s_points, poles, grouping)
    phi1_real = realify(np.hstack([phi, np.ones((n_samples, 1))]))
    q1, _ = np.linalg.qr(phi1_real)
    return phi, responses, q1


class TestRegistry:
    def test_numpy_backend_always_available(self):
        backend = get_backend("numpy")
        assert isinstance(backend, ArrayBackend)
        assert backend.name == "numpy"
        assert backend.is_numpy
        assert backend.xp is np
        assert "numpy" in available_backends()

    def test_backend_instances_are_cached(self):
        assert get_backend("numpy") is get_backend("numpy")

    def test_unknown_name_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown array backend"):
            get_backend("dask")

    @pytest.mark.parametrize("name", ["cupy", "torch"])
    def test_optional_backends_probe_cleanly(self, name):
        """An absent optional backend raises the clean unavailable error."""
        if name in available_backends():
            assert get_backend(name).name == name
        else:
            with pytest.raises(BackendUnavailableError, match=name):
                get_backend(name)

    def test_backend_passthrough(self):
        backend = get_backend("numpy")
        assert get_backend(backend) is backend
        assert resolve_backend(backend) is backend


class TestPrecedence:
    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv(ENV_VARIABLE, raising=False)
        assert resolve_backend(None).name == "numpy"

    def test_env_variable_is_read(self, monkeypatch):
        monkeypatch.setenv(ENV_VARIABLE, "numpy")
        assert resolve_backend(None) is get_backend("numpy")
        monkeypatch.setenv(ENV_VARIABLE, "dask")
        with pytest.raises(ValueError, match="unknown array backend"):
            resolve_backend(None)

    def test_scope_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VARIABLE, "numpy")
        scoped = dataclasses.replace(get_backend("numpy"), name="scoped")
        with use_backend(scoped):
            assert resolve_backend(None) is scoped
        assert resolve_backend(None) is get_backend("numpy")

    def test_explicit_argument_beats_scope(self):
        explicit = dataclasses.replace(get_backend("numpy"), name="explicit")
        scoped = dataclasses.replace(get_backend("numpy"), name="scoped")
        with use_backend(scoped):
            assert resolve_backend(explicit) is explicit

    def test_none_scope_is_noop(self, monkeypatch):
        monkeypatch.delenv(ENV_VARIABLE, raising=False)
        with use_backend(None) as backend:
            assert backend.name == "numpy"
            assert resolve_backend(None) is get_backend("numpy")

    def test_scopes_nest(self):
        outer = dataclasses.replace(get_backend("numpy"), name="outer")
        inner = dataclasses.replace(get_backend("numpy"), name="inner")
        with use_backend(outer):
            with use_backend(inner):
                assert resolve_backend(None) is inner
            assert resolve_backend(None) is outer


class TestNumpyBitwise:
    """The numpy backend is byte-identical to the pre-shim kernels."""

    @staticmethod
    def _blocks_preshim(phi, responses, q1):
        """The stacked fast-VF projection exactly as assembled before the shim."""
        n_samples, n_entries = responses.shape
        weighted = -responses[:, :, np.newaxis] * phi[:, np.newaxis, :]
        weighted = np.concatenate([weighted.real, weighted.imag], axis=0)
        rhs = np.concatenate([responses.real, responses.imag], axis=0)
        flat = weighted.reshape(2 * n_samples, -1)
        projected = flat - q1 @ (q1.T @ flat)
        projected = projected.reshape(2 * n_samples, n_entries, -1)
        rhs_projected = rhs - q1 @ (q1.T @ rhs)
        a_stacked = np.transpose(projected, (1, 0, 2)).reshape(
            n_entries * 2 * n_samples, -1
        )
        b_stacked = rhs_projected.T.reshape(-1)
        return a_stacked, b_stacked

    @BACKEND_SETTINGS
    @given(seed=st.integers(0, 2**16), n_ports=st.integers(1, 4))
    def test_vf_blocks_bitwise(self, seed, n_ports):
        phi, responses, q1 = _vf_workload(seed, n_ports=n_ports)
        want_a, want_b = self._blocks_preshim(phi, responses, q1)
        for backend in (None, "numpy", get_backend("numpy")):
            got_a, got_b = vf_scaling_blocks(phi, responses, q1, backend=backend)
            assert np.array_equal(got_a, want_a)
            assert np.array_equal(got_b, want_b)

    @BACKEND_SETTINGS
    @given(seed=st.integers(0, 2**16))
    def test_basis_bitwise_across_selection(self, seed):
        phi, _, _ = _vf_workload(seed)
        rng = np.random.default_rng(seed)
        poles = -rng.random(4) - 1.0
        grouping = PoleGrouping.from_poles(poles)
        s_points = 1j * np.linspace(1.0, 10.0, 16)
        default = partial_fraction_basis(s_points, poles, grouping)
        explicit = partial_fraction_basis(s_points, poles, grouping, backend="numpy")
        assert np.array_equal(default, explicit)
        assert phi.dtype == np.complex128

    @BACKEND_SETTINGS
    @given(seed=st.integers(0, 2**16))
    def test_evaluation_bitwise_across_selection(self, seed):
        from repro.systems.evaluation import evaluate_descriptor, evaluate_pointwise
        from repro.systems.random_systems import random_stable_system

        system = random_stable_system(order=8, n_ports=2, feedthrough=0.1,
                                      seed=seed % 1000)
        points = 1j * np.linspace(1.0, 1e4, 12)
        default = evaluate_descriptor(system.E, system.A, system.B, system.C,
                                      system.D, points, method="solve")
        explicit = evaluate_descriptor(system.E, system.A, system.B, system.C,
                                       system.D, points, method="solve",
                                       backend="numpy")
        scoped_backend = get_backend("numpy")
        with use_backend(scoped_backend):
            scoped = evaluate_descriptor(system.E, system.A, system.B, system.C,
                                         system.D, points, method="solve")
        assert np.array_equal(default, explicit)
        assert np.array_equal(default, scoped)
        loop = evaluate_pointwise(system.E, system.A, system.B, system.C,
                                  system.D, points)
        assert np.array_equal(default, loop)

    def test_spectral_bitwise_across_selection(self):
        from repro.systems.spectral import build_spectral_grid, impulse_from_spectrum

        rng = np.random.default_rng(7)
        grid = build_spectral_grid(1e-6, 16)
        n_freq = grid.n_fft // 2 + 1
        spectrum = rng.standard_normal((n_freq, 2, 2)) + 1j * rng.standard_normal(
            (n_freq, 2, 2)
        )
        default = impulse_from_spectrum(spectrum, grid)
        explicit = impulse_from_spectrum(spectrum, grid, backend="numpy")
        preshim = (np.fft.irfft(spectrum, n=grid.n_fft, axis=-3)
                   / grid.dt)[..., :grid.n_points, :, :]
        assert np.array_equal(default, explicit)
        assert np.array_equal(default, preshim)


class TestFastVfSolve:
    @BACKEND_SETTINGS
    @given(seed=st.integers(0, 2**16), n_ports=st.integers(2, 5))
    def test_matches_lstsq_over_looped_blocks(self, seed, n_ports):
        phi, responses, q1 = _vf_workload(seed, n_ports=n_ports)
        oracle = np.linalg.lstsq(
            *vf_scaling_blocks_reference(phi, responses, q1), rcond=None
        )[0]
        solved = vf_scaling_solve(phi, responses, q1)
        relative = np.linalg.norm(solved - oracle) / np.linalg.norm(oracle)
        assert relative <= 1e-12, f"fast-VF solve drifted {relative:.2e}"

    @staticmethod
    def _assert_matches_oracle(phi, responses, q1):
        a_ref, b_ref = vf_scaling_blocks_reference(phi, responses, q1)
        oracle = np.linalg.lstsq(a_ref, b_ref, rcond=None)[0]
        solved = vf_scaling_solve(phi, responses, q1)
        relative = np.linalg.norm(solved - oracle) / np.linalg.norm(oracle)
        assert relative <= 1e-12, f"fast-VF solve drifted {relative:.2e}"
        return a_ref, b_ref

    def test_degenerate_basis_matches_oracle(self):
        """A duplicated basis column: both give the minimum-norm LS solution."""
        phi, responses, q1 = _vf_workload(3, n_ports=2)
        phi_bad = phi.copy()
        phi_bad[:, 1] = phi_bad[:, 0]  # rank-deficient weighted blocks
        a_ref, _ = self._assert_matches_oracle(phi_bad, responses, q1)
        assert np.linalg.matrix_rank(a_ref) < a_ref.shape[1]

    def test_near_rank_deficient_basis_matches_oracle(self):
        """Clustered poles make the basis numerically rank-deficient."""
        rng = np.random.default_rng(11)
        n_samples, n_entries = 40, 4
        poles = np.array([-1.0, -1.0 - 1e-13, -2.0, -2.0 - 1e-13])
        grouping = PoleGrouping.from_poles(poles)
        s_points = 1j * np.linspace(0.5, 30.0, n_samples)
        phi = partial_fraction_basis(s_points, poles, grouping)
        responses = rng.standard_normal((n_samples, n_entries)) + (
            1j * rng.standard_normal((n_samples, n_entries))
        )
        phi1_real = realify(np.hstack([phi, np.ones((n_samples, 1))]))
        q1, _ = np.linalg.qr(phi1_real)
        self._assert_matches_oracle(phi, responses, q1)

    def test_singular_per_entry_blocks_stack_to_full_rank(self):
        """The paper's regime: 2N - n - 1 < n + 1, so each entry block is singular.

        Only the stack over entries has full column rank; the solve must
        still reproduce the looped oracle.
        """
        n_ports, n_poles, n_samples = 2, 30, 20
        phi, responses, q1 = _vf_workload(
            4, n_ports=n_ports, n_poles=n_poles, n_samples=n_samples
        )
        assert 2 * n_samples - n_poles - 1 < n_poles + 1
        a_ref, b_ref = self._assert_matches_oracle(phi, responses, q1)
        rows = 2 * n_samples
        first_block = np.column_stack([a_ref[:rows], b_ref[:rows]])
        assert np.linalg.matrix_rank(first_block) < n_poles + 1
        assert np.linalg.matrix_rank(a_ref) == n_poles


class TestResidueQrReuse:
    def test_qr_reuse_matches_lstsq(self):
        from repro.vectorfitting.fitting import _solve_residue_system

        phi, responses, _ = _vf_workload(9, n_ports=2)
        phi1_real = realify(np.hstack([phi, np.ones((phi.shape[0], 1))]))
        responses_real = realify(responses)
        q1, r1 = np.linalg.qr(phi1_real)
        via_qr = _solve_residue_system(phi1_real, responses_real, (q1, r1))
        via_lstsq = _solve_residue_system(phi1_real, responses_real, None)
        assert np.allclose(via_qr, via_lstsq, rtol=0, atol=1e-11)

    def test_wide_basis_falls_back_to_minimum_norm(self):
        """More poles than realified samples: reduced R is not square, so
        the reuse path must defer to lstsq's minimum-norm solve (this is
        the Table-1 280-pole VF configuration)."""
        from repro.vectorfitting.fitting import _solve_residue_system

        phi, responses, _ = _vf_workload(13, n_ports=2, n_poles=30, n_samples=10)
        phi1_real = realify(np.hstack([phi, np.ones((phi.shape[0], 1))]))
        responses_real = realify(responses)
        assert phi1_real.shape[0] < phi1_real.shape[1]
        q1, r1 = np.linalg.qr(phi1_real)
        guarded = _solve_residue_system(phi1_real, responses_real, (q1, r1))
        minimum_norm = np.linalg.lstsq(phi1_real, responses_real, rcond=None)[0]
        assert np.array_equal(guarded, minimum_norm)

    def test_rank_deficient_basis_falls_back_to_lstsq(self):
        phi, responses, _ = _vf_workload(9, n_ports=2)
        phi1_real = realify(np.hstack([phi, np.ones((phi.shape[0], 1))]))
        phi1_real[:, 2] = phi1_real[:, 1]  # exactly rank-deficient
        responses_real = realify(responses)
        from repro.vectorfitting.fitting import _solve_residue_system

        q1, r1 = np.linalg.qr(phi1_real)
        guarded = _solve_residue_system(phi1_real, responses_real, (q1, r1))
        minimum_norm = np.linalg.lstsq(phi1_real, responses_real, rcond=None)[0]
        assert np.array_equal(guarded, minimum_norm)


class TestEngineIntegration:
    def test_engine_validates_backend_name(self):
        from repro.batch.engine import BatchEngine

        with pytest.raises(ValueError, match="backend"):
            BatchEngine(backend="dask")

    def test_engine_config_round_trips_backend(self):
        from repro.batch.engine import BatchEngine

        engine = BatchEngine(executor="serial", backend="numpy")
        config = engine.to_config()
        assert config["backend"] == "numpy"
        rebuilt = BatchEngine.from_config(config)
        assert rebuilt.backend == "numpy"
        assert "backend" not in BatchEngine(executor="serial").to_config()

    def test_engine_from_env_reads_backend(self, monkeypatch):
        from repro.batch.engine import BatchEngine

        monkeypatch.setenv(ENV_VARIABLE, "numpy")
        assert BatchEngine.from_env().backend == "numpy"
        monkeypatch.delenv(ENV_VARIABLE)
        assert BatchEngine.from_env().backend is None

    def test_run_job_backend_is_bitwise_and_key_invariant(self, small_data):
        from repro.batch.jobs import FitJob, run_job
        from repro.batch.sharding import job_fingerprint
        from repro.serve.protocol import request_key

        job = FitJob(small_data, method="mfti")
        plain = run_job(0, job)
        selected = run_job(0, job, backend="numpy")
        assert plain.ok and selected.ok
        assert plain.error_vs_data == selected.error_vs_data
        assert np.array_equal(plain.result.system.A, selected.result.system.A)
        assert np.array_equal(plain.result.system.C, selected.result.system.C)

        # the backend is an execution detail: fingerprints and request keys
        # are functions of the job alone and must not move under a scope
        key = request_key(job)
        fingerprint = job_fingerprint(job)
        with use_backend("numpy"):
            assert request_key(job) == key
            assert job_fingerprint(job) == fingerprint

    def test_run_job_unavailable_backend_fails_the_job_not_the_batch(self, small_data):
        from repro.batch.jobs import FitJob, run_job

        missing = [name for name in BACKEND_NAMES if name not in available_backends()]
        if not missing:
            pytest.skip("every optional backend is installed here")
        record = run_job(0, FitJob(small_data, method="mfti"), backend=missing[0])
        assert not record.ok
        assert record.error_type == "BackendUnavailableError"

    def test_cli_parses_backend_flag(self):
        from repro.cli import build_parser

        parser = build_parser()
        for argv in (
            ["fit", "x.s2p", "--backend", "numpy"],
            ["batch", "--workload", "w", "--backend", "numpy"],
            ["serve", "--backend", "numpy"],
            ["shard", "run", "m.json", "--backend", "numpy"],
            ["shard", "dispatch", "--workload", "w", "--shards", "1",
             "--out-dir", "d", "--backend", "numpy"],
        ):
            assert parser.parse_args(argv).backend == "numpy"
        with pytest.raises(SystemExit):
            parser.parse_args(["batch", "--workload", "w", "--backend", "dask"])


@pytest.mark.parametrize("name", ["cupy", "torch"])
class TestOptionalBackendEquivalence:
    """Device backends agree with numpy to tolerance (skip when absent)."""

    def _backend_or_skip(self, name):
        if name not in available_backends():
            pytest.skip(f"optional array backend {name!r} is not installed")
        return get_backend(name)

    def test_vf_blocks_close(self, name):
        backend = self._backend_or_skip(name)
        phi, responses, q1 = _vf_workload(21)
        want_a, want_b = vf_scaling_blocks(phi, responses, q1)
        got_a, got_b = vf_scaling_blocks(phi, responses, q1, backend=backend)
        assert np.allclose(got_a, want_a, rtol=1e-8, atol=1e-10)
        assert np.allclose(got_b, want_b, rtol=1e-8, atol=1e-10)

    def test_evaluation_close(self, name):
        from repro.systems.evaluation import evaluate_descriptor
        from repro.systems.random_systems import random_stable_system

        backend = self._backend_or_skip(name)
        system = random_stable_system(order=8, n_ports=2, feedthrough=0.1, seed=23)
        points = 1j * np.linspace(1.0, 1e4, 12)
        want = evaluate_descriptor(system.E, system.A, system.B, system.C,
                                   system.D, points, method="solve")
        got = evaluate_descriptor(system.E, system.A, system.B, system.C,
                                  system.D, points, method="solve",
                                  backend=backend)
        assert np.allclose(got, want, rtol=1e-6, atol=1e-9)

    def test_spectral_close(self, name):
        from repro.systems.spectral import build_spectral_grid, impulse_from_spectrum

        backend = self._backend_or_skip(name)
        rng = np.random.default_rng(29)
        grid = build_spectral_grid(1e-6, 16)
        n_freq = grid.n_fft // 2 + 1
        spectrum = rng.standard_normal((n_freq, 2, 2)) + 1j * rng.standard_normal(
            (n_freq, 2, 2)
        )
        want = impulse_from_spectrum(spectrum, grid)
        got = impulse_from_spectrum(spectrum, grid, backend=backend)
        assert np.allclose(got, want, rtol=1e-8, atol=1e-12)
