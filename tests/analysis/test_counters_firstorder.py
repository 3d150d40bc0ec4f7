"""Tests for step counters and first-order model derivation."""

import itertools
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.analysis import StepCounts, derive_symbolic, fit_numeric
from repro.analysis.firstorder import nnls2
from repro.models import build_word_lm

from ..helpers import REPO_ROOT


@pytest.fixture(scope="module")
def word_lm():
    return build_word_lm(seq_len=6, vocab=300, layers=2)


@pytest.fixture(scope="module")
def counts(word_lm):
    return StepCounts(word_lm)


class TestStepCounts:
    def test_requires_training_step(self):
        m = build_word_lm(seq_len=3, vocab=50, training=False)
        with pytest.raises(ValueError):
            StepCounts(m)

    def test_decomposition_reassembles_total(self, counts, word_lm):
        from repro.symbolic import expand

        b = word_lm.batch
        reassembled = counts.flops_fixed + b * counts.flops_per_sample
        assert expand(reassembled) == expand(counts.step_flops)

    def test_bytes_decomposition(self, counts, word_lm):
        from repro.symbolic import expand

        b = word_lm.batch
        reassembled = counts.bytes_fixed + b * counts.bytes_per_sample
        assert expand(reassembled) == expand(counts.step_bytes)

    def test_eval_matches_direct_binding(self, counts):
        direct = counts.step_flops.evalf(counts.bind(32, 4))
        assert counts.eval_step_flops(32, 4) == direct

    def test_intensity_increases_with_subbatch(self, counts):
        low = counts.eval_intensity(64, 1)
        high = counts.eval_intensity(64, 64)
        assert high > low

    def test_io_bytes_linear_in_batch(self, counts, word_lm):
        from repro.symbolic import degree

        assert degree(counts.io_bytes, word_lm.batch) == 1

    def test_bind_rejects_size_for_concrete_model(self):
        m = build_word_lm(hidden=16, seq_len=3, vocab=50)
        c = StepCounts(m)
        with pytest.raises(ValueError):
            c.bind(32, 4)


class TestDeriveSymbolic:
    def test_gamma_positive_and_near_6q(self, counts):
        fo = derive_symbolic(counts)
        assert 0.8 * 36 <= fo.gamma <= 1.2 * 36  # q = 6

    def test_requires_symbolic_size(self):
        m = build_word_lm(hidden=16, seq_len=3, vocab=50)
        with pytest.raises(ValueError):
            derive_symbolic(StepCounts(m))

    def test_intensity_coefficients_consistent(self, counts):
        fo = derive_symbolic(counts)
        c1, c2 = fo.intensity_coefficients()
        assert c1 == pytest.approx(fo.lam / fo.gamma)
        assert c2 == pytest.approx(fo.mu / fo.gamma)
        assert "sqrt(p)" in fo.intensity_formula()

    def test_prediction_matches_exact_at_scale(self, counts):
        """γ·b·p approximates the exact step FLOPs at large size."""
        fo = derive_symbolic(counts)
        size, b = 4096, 8
        params = counts.eval_params(size)
        exact = counts.eval_step_flops(size, b)
        assert fo.step_flops(params, b) == pytest.approx(exact, rel=0.15)

    def test_intensity_model_matches_exact(self, counts):
        fo = derive_symbolic(counts)
        size, b = 4096, 32
        params = counts.eval_params(size)
        exact = counts.eval_intensity(size, b)
        assert fo.intensity(params, b) == pytest.approx(exact, rel=0.25)


class TestFitNumeric:
    def test_recovers_planted_constants(self):
        """Fit on synthetic data generated from known γ, λ, µ, δ, φ."""
        gamma, lam, mu, delta, phi = 480.0, 1800.0, 30000.0, 11.0, 90.0
        b = 32
        p = np.array([1e7, 3e7, 1e8, 3e8, 1e9])
        fo = fit_numeric(
            "planted",
            p,
            gamma * p,
            lam * p,
            mu * np.sqrt(p),
            delta * p + phi * b * np.sqrt(p),
            footprint_subbatch=b,
        )
        assert fo.gamma == pytest.approx(gamma, rel=1e-9)
        assert fo.lam == pytest.approx(lam, rel=1e-9)
        assert fo.mu == pytest.approx(mu, rel=1e-9)
        assert fo.delta == pytest.approx(delta, rel=1e-6)
        assert fo.phi == pytest.approx(phi, rel=1e-4)

    def test_delta_floor_enforced(self):
        """Footprints below 8 B/param cannot drive δ unphysical."""
        p = np.array([1e7, 1e8, 1e9])
        fo = fit_numeric("x", p, p, p, np.sqrt(p), 8.0 * p,
                         footprint_subbatch=1)
        assert fo.delta >= 8.0

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_numeric("x", [1e7], [1e9], [1e9], [1e5])

    def test_symbolic_and_numeric_agree_on_word_lm(self, counts):
        """The two derivation paths must agree at large scale."""
        from repro.analysis import sweep_domain

        fo_sym = derive_symbolic(counts)
        # numeric fit over the upper size range (asymptotic regime)
        sizes = [2048, 3072, 4096, 6144]
        rows = []
        for s in sizes:
            bindings = counts.bind(s, 1)
            rows.append((
                counts.params.evalf(bindings),
                counts.flops_per_sample.evalf(bindings),
                counts.bytes_fixed.evalf(bindings),
                counts.bytes_per_sample.evalf(bindings),
            ))
        fo_fit = fit_numeric(
            "word_lm",
            [r[0] for r in rows], [r[1] for r in rows],
            [r[2] for r in rows], [r[3] for r in rows],
        )
        assert fo_fit.gamma == pytest.approx(fo_sym.gamma, rel=0.2)
        assert fo_fit.lam == pytest.approx(fo_sym.lam, rel=0.2)


def _nnls_exhaustive(design, y):
    """Reference 2-variable NNLS: the unconstrained least-squares fit on
    every subset of the columns, kept when feasible, best residual
    wins (the empty subset, x = 0, is always feasible)."""
    best, best_rss = np.zeros(2), float(np.dot(y, y))
    for k in (1, 2):
        for cols in itertools.combinations(range(2), k):
            sub = np.linalg.lstsq(design[:, cols], y, rcond=None)[0]
            if np.any(sub < 0):
                continue
            x = np.zeros(2)
            x[list(cols)] = sub
            r = y - design @ x
            if float(np.dot(r, r)) < best_rss:
                best, best_rss = x, float(np.dot(r, r))
    return best, best_rss


class TestNNLS:
    def test_matches_exhaustive_reference(self):
        """1,000 seeded problems shaped like the footprint fit
        (positive, nearly collinear columns); most have an infeasible
        unconstrained solution, as four of the five registry domains
        do."""
        rng = np.random.default_rng(1909)
        infeasible = 0
        for _ in range(1000):
            n = int(rng.integers(3, 9))
            p = np.sort(10.0 ** rng.uniform(6, 10, n))
            design = np.column_stack([p, rng.uniform(1, 200) * np.sqrt(p)])
            truth = rng.normal(size=2) * np.array([10.0, 1e3])
            y = design @ truth + rng.normal(size=n) * 1e-3 * np.abs(
                design @ truth).max()
            unconstrained = np.linalg.lstsq(design, y, rcond=None)[0]
            infeasible += bool(np.any(unconstrained < 0))
            coef = nnls2(design, y)
            ref, ref_rss = _nnls_exhaustive(design, y)
            scale = np.abs(ref).max()
            np.testing.assert_allclose(coef, ref, rtol=1e-9,
                                       atol=1e-9 * scale)
            assert np.all(coef >= 0)
            r = y - design @ coef
            # no larger, up to the rounding of the residual itself
            assert float(np.dot(r, r)) <= ref_rss * (1 + 1e-12)
        assert infeasible >= 1000 // 3

    def test_registry_word_lm_fit_pinned(self):
        """The value scipy.optimize.nnls gives; the former fallback
        (clamping an unconstrained lstsq) gave φ = 4105.6."""
        from repro.analysis import sweep_domain

        fitted = sweep_domain("word_lm").fitted
        assert fitted.delta == 8.0
        assert fitted.phi == pytest.approx(2088.3145384510653, rel=1e-9)


def _run_python(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO_ROOT, "src"), REPO_ROOT])
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          cwd=REPO_ROOT, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestNoScipy:
    """numpy is the only runtime dependency: the footprint fit must
    neither import scipy nor depend on whether it is importable."""

    def test_sweep_and_table3_import_no_scipy(self):
        out = _run_python(
            "import sys\n"
            "from repro.analysis import sweep_domain\n"
            "from repro.reports import table3\n"
            "sweep_domain('word_lm')\n"
            "table3()\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] == 'scipy'))\n")
        assert out.strip() == "[]"

    def test_table3_matches_golden_with_scipy_refused(self):
        from tests.golden._compare import diff_exhibit, load_golden

        out = _run_python(
            "import json, sys\n"
            "class Refuse:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.split('.')[0] == 'scipy':\n"
            "            raise ImportError(name + ' refused')\n"
            "sys.meta_path.insert(0, Refuse())\n"
            "from repro.reports import table3\n"
            "from tests.golden._compare import snapshot_exhibit\n"
            "print(json.dumps(snapshot_exhibit(table3())))\n")
        diffs = diff_exhibit("table3", json.loads(out),
                             load_golden("table3"), rel_tol=1e-6)
        assert not diffs, "\n".join(diffs)
