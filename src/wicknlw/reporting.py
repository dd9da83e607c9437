"""Report emission: JSON run records, CSV tables, field dumps.

Every run writes one JSON report embedding the fully resolved
configuration (auditability / reproducibility) plus CSV tables for the
numeric content.  Floats are rendered with repr-faithful precision so a
rerun with the same seed produces byte-identical files.
"""

from __future__ import annotations

import csv
import json
import os
import platform
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .experiments import observable_matrix
from .fields import ball_mask, full_from_half

__all__ = [
    "provenance",
    "write_json_report",
    "write_csv",
    "trajectory_table",
    "write_field_csv",
    "read_field_csv",
]

_FIELD_HEADER = ["n1", "n2", "re", "im"]


def provenance() -> dict:
    """Versions, platform, CPU count and BLAS threading variables (None
    when unset): the universality ladder's N = 64 products cross
    OpenBLAS's threading threshold, so its bits depend on the thread count.
    """
    return {
        "package": "wicknlw",
        "version": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_json_report(path: str | Path, payload: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
    return path


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def write_csv(path: str | Path, header: list[str], rows: list) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])
    return path


def trajectory_table(traj, ctx) -> tuple[list[str], list[list]]:
    """(t, wick energy, quadratic energy, default observables) per record."""
    header = ["t", "hamiltonian_wick", "quadratic_energy", "wick_mass",
              "wick_potential", "mode_sq_0_0", "mode_sq_1_0", "mode_sq_1_1"]
    obs = observable_matrix(traj.u, traj.v, ctx)
    # H = quadratic_energy + wick_potential, as in engine.hamiltonian_values
    h = obs[:, 5] + obs[:, 1]
    cols = np.column_stack([traj.times, h, obs[:, 5], obs[:, :5]])
    return header, cols.tolist()


def _hermitian_square(c: np.ndarray) -> np.ndarray:
    """Full coefficient square ``c`` of a field dump, checked to be Hermitian
    and to vanish outside the ball to 1e-12 of its largest value (at least
    1), then re-symmetrized exactly with exact zeros outside the ball."""
    n_max = (c.shape[-1] - 1) // 2
    tol = 1e-12 * max(float(np.max(np.abs(c))), 1.0)
    if np.max(np.abs(c - np.conj(c[::-1, ::-1]))) > tol:
        raise ValueError("coefficients are not Hermitian symmetric")
    outside = ~ball_mask(n_max)
    if np.max(np.abs(c[outside]), initial=0.0) > tol:
        raise ValueError(f"coefficients outside the ball |n| <= {n_max}")
    c = 0.5 * (c + np.conj(c[::-1, ::-1]))
    c[outside] = 0.0
    return c


def write_field_csv(half: np.ndarray, path: str | Path) -> Path:
    """Field dump of one half spectrum, mirrored to the full square: one
    row (n1, n2, re, im) per mode, n1-major."""
    full = _hermitian_square(full_from_half(half))
    n = (full.shape[-1] - 1) // 2
    rows = [[i - n, j - n, float(c.real), float(c.imag)]
            for (i, j), c in np.ndenumerate(full)]
    return write_csv(path, _FIELD_HEADER, rows)


def read_field_csv(path: str | Path) -> np.ndarray:
    """Half spectrum of a field dump that holds every mode of its square
    exactly once; checked and re-symmetrized as :func:`_hermitian_square`."""
    with open(path) as fh:
        reader = csv.reader(fh)
        if next(reader, None) != _FIELD_HEADER:
            raise ValueError(f"field dump header must be {','.join(_FIELD_HEADER)}")
        rows = [(int(r[0]), int(r[1]), float(r[2]) + 1j * float(r[3]))
                for r in reader]
    n_max = max((max(abs(r[0]), abs(r[1])) for r in rows), default=0)
    k = 2 * n_max + 1
    modes = {(n1, n2): val for n1, n2, val in rows}
    if len(modes) != len(rows) or len(rows) != k * k:
        raise ValueError("field dump must hold every mode of its cutoff-"
                         f"{n_max} square exactly once")
    c = np.zeros((k, k), dtype=complex)
    for (n1, n2), val in modes.items():
        c[n1 + n_max, n2 + n_max] = val
    return _hermitian_square(c)[:, n_max:]
