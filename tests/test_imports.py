"""Cold imports: scipy stays off the import path until a Schur form is needed.

Each check runs in a fresh interpreter, so modules that other tests have
already imported cannot hide an eager import.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _run_fresh(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env)


def test_package_and_cli_import_no_scipy():
    proc = _run_fresh("""
        import sys, protower, protower.cli
        loaded = sorted(k for k in sys.modules if k.startswith("scipy"))
        assert not loaded, loaded
    """)
    assert proc.returncode == 0, proc.stderr


def test_schur_branch_imports_scipy_on_demand():
    proc = _run_fresh("""
        import sys
        import numpy as np
        from protower.core_algebra import (
            EigensolverError, PreconditionError, _diagonalize_normal)

        assert "scipy.linalg" not in sys.modules
        rng = np.random.default_rng(2005)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q, r = np.linalg.qr(g)
        a = q * (np.diag(r) / np.abs(np.diag(r)))  # Haar unitary: normal, not Hermitian
        v, d = _diagonalize_normal(a, 1e-10, 0)
        assert "scipy.linalg" in sys.modules
        assert np.abs(v.conj().T @ v - np.eye(3)).max() <= 1e-12
        residual = np.linalg.norm(a @ v - v @ np.diag(d), 2)
        assert residual <= 1e-12 * np.linalg.norm(a, 2), residual

        jordan = np.array([[1j, 1, 0], [0, 1j, 0], [0, 0, 2]], dtype=complex)
        try:
            _diagonalize_normal(jordan, 1e-10, 4)
        except PreconditionError as exc:
            assert "block 4" in str(exc), exc
        else:
            raise AssertionError("a non-normal block was diagonalized")

        import scipy.linalg

        def failing_schur(*args, **kwargs):
            raise scipy.linalg.LinAlgError("no convergence")

        scipy.linalg.schur = failing_schur
        try:
            _diagonalize_normal(a, 1e-10, 7)
        except EigensolverError as exc:
            assert "block 7" in str(exc), exc
        else:
            raise AssertionError("a failed Schur factorization went unnoticed")
    """)
    assert proc.returncode == 0, proc.stderr
