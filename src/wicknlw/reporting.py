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
from .fields import SpectralField

__all__ = [
    "provenance",
    "write_json_report",
    "write_csv",
    "trajectory_table",
    "write_field_csv",
    "read_field_csv",
]


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


def write_field_csv(field: SpectralField, path: str | Path) -> Path:
    """Debug dump, one row per stored mode: n1, n2, re, im."""
    rows = []
    n = field.n_max
    for i in range(2 * n + 1):
        for j in range(2 * n + 1):
            c = field.coeffs[i, j]
            rows.append([i - n, j - n, float(c.real), float(c.imag)])
    return write_csv(path, ["n1", "n2", "re", "im"], rows)


def read_field_csv(path: str | Path) -> SpectralField:
    with open(path) as fh:
        reader = csv.reader(fh)
        next(reader)
        entries = [(int(r[0]), int(r[1]), float(r[2]), float(r[3])) for r in reader]
    n_max = max(max(abs(e[0]), abs(e[1])) for e in entries)
    k = 2 * n_max + 1
    c = np.zeros((k, k), dtype=complex)
    for n1, n2, re, im in entries:
        c[n1 + n_max, n2 + n_max] = re + 1j * im
    return SpectralField(n_max, c)
