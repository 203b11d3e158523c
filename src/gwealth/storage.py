"""File formats for pipeline artifacts.

CSV files carry a header row, stable column order, and full-precision decimal
floats (shortest representation that round-trips).  Asset indices are global:
0 is the bond, 1..n are the risky assets; return panels cover risky assets
only.  A solved plan is stored as its policy, a compressed NPZ archive.
Readers raise ShapeError, naming the file, on content they cannot parse and
on any number that is not finite (nan, inf).
"""

from __future__ import annotations

import math
import warnings
import zipfile
import zlib
from pathlib import Path

import numpy as np

from .errors import ShapeError
from .glearner import GaussianPolicy, PolicyPrior, Trajectories, cash_installment


def _fmt(value: float) -> str:
    return repr(float(value))


def _read_table(path: Path, n_cols: int) -> np.ndarray:
    """The numeric rows below a CSV file's header, ``n_cols`` finite values
    each."""
    try:
        with warnings.catch_warnings():
            # a header-only file: reported below as a ShapeError instead
            warnings.filterwarnings("ignore", message="loadtxt: input contained no data")
            raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ShapeError(f"'{path}' is not a numeric CSV table: {exc}") from exc
    if raw.size == 0:
        raise ShapeError(f"'{path}' contains no data rows")
    if raw.shape[1] != n_cols:
        raise ShapeError(f"'{path}' has {raw.shape[1]} columns, expected {n_cols}")
    if not np.isfinite(raw).all():
        raise ShapeError(f"'{path}' has a cell that is not a finite number")
    return raw


def _dense(path: Path, idx: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``values`` (..., rows) scattered into the array that the index columns
    ``idx`` (rows, k) name, of shape values.shape[:-1] + (k index extents).
    Every index must be a non-negative integer naming one cell, once."""
    if not ((idx >= 0) & (idx == np.floor(idx))).all():
        raise ShapeError(f"'{path}' has an index that is not a non-negative integer")
    idx = idx.astype(np.int64)
    shape = tuple(int(k) + 1 for k in idx.max(axis=0))
    if idx.shape[0] != math.prod(shape):
        raise ShapeError(f"'{path}' has {idx.shape[0]} rows for {math.prod(shape)} cells")
    out = np.full(values.shape[:-1] + shape, np.nan)
    out[(..., *idx.T)] = values
    if np.isnan(out).any():
        raise ShapeError(f"'{path}' does not cover a full {' x '.join(map(str, shape))} table")
    return out


# ---------------------------------------------------------------------------
# return panels
# ---------------------------------------------------------------------------

def write_returns_csv(path: Path, panel: np.ndarray) -> None:
    """Long-format panel: path,period,asset,value with asset in 1..n_risky."""
    if panel.ndim != 3:
        raise ShapeError("return panel must be [paths x periods x assets]")
    with open(path, "w") as fh:
        fh.write("path,period,asset,value\n")
        n_paths, horizon, n_risky = panel.shape
        for p in range(n_paths):
            for t in range(horizon):
                row = panel[p, t]
                for a in range(n_risky):
                    fh.write(f"{p},{t},{a + 1},{_fmt(row[a])}\n")


def read_returns_csv(path: Path) -> np.ndarray:
    raw = _read_table(path, 4)
    return _dense(path, raw[:, :3] - [0, 0, 1], raw[:, 3])  # assets count from 1


def write_matrix_csv(path: Path, matrix: np.ndarray) -> None:
    """Square matrix in long format: row,col,value (risky-asset indexing)."""
    with open(path, "w") as fh:
        fh.write("row,col,value\n")
        n, m = matrix.shape
        for i in range(n):
            for j in range(m):
                fh.write(f"{i},{j},{_fmt(matrix[i, j])}\n")


def read_matrix_csv(path: Path) -> np.ndarray:
    raw = _read_table(path, 3)
    return _dense(path, raw[:, :2], raw[:, 2])


# ---------------------------------------------------------------------------
# trajectories and cash installments
# ---------------------------------------------------------------------------

def write_trajectories_csv(path: Path, trajs: Trajectories) -> None:
    """Rows path,period,asset,x,u for period 0..T; the final period carries
    the terminal positions with a placeholder trade of 0."""
    _, t_len, n = trajs.u.shape
    with open(path, "w") as fh:
        fh.write("path,period,asset,x,u\n")
        for p, (x, u) in enumerate(zip(trajs.x, trajs.u)):
            for t in range(t_len + 1):
                for a in range(n):
                    u_val = u[t, a] if t < t_len else 0.0
                    fh.write(f"{p},{t},{a},{_fmt(x[t, a])},{_fmt(u_val)}\n")


def read_trajectories_csv(path: Path) -> Trajectories:
    raw = _read_table(path, 5)
    x, u_all = _dense(path, raw[:, :3], raw[:, 3:].T)
    u = u_all[:, :-1]  # the last period row holds terminal positions only
    return Trajectories(x=x, u=u, cash=cash_installment(u))


def write_cash_csv(path: Path, trajs: Trajectories) -> None:
    with open(path, "w") as fh:
        fh.write("path,period,c\n")
        for p, cash in enumerate(trajs.cash):
            for t, c in enumerate(cash):
                fh.write(f"{p},{t},{_fmt(c)}\n")


# ---------------------------------------------------------------------------
# solved plans
# ---------------------------------------------------------------------------

# plan.npz members with their axes: T periods, N assets (the bond first)
_PLAN_MEMBERS = {
    "beta": "", "gamma": "", "rbar": "TN",
    "prior_u_bar": "N", "prior_v_bar": "NN", "prior_sigma_p": "NN",
    "u_tilde": "TN", "v_tilde": "TNN", "chol_tilde": "TNN", "logdet_tilde": "T",
}


def write_plan_npz(path: Path, policy: GaussianPolicy) -> None:
    """The policy's fields, the prior's with a ``prior_`` prefix; of a
    SolvedPlan only its policy is stored."""
    prior = policy.prior
    np.savez_compressed(
        path, beta=np.array(policy.beta), gamma=np.array(policy.gamma), rbar=policy.rbar,
        prior_u_bar=prior.u_bar, prior_v_bar=prior.v_bar, prior_sigma_p=prior.sigma_p,
        u_tilde=policy.u_tilde, v_tilde=policy.v_tilde, chol_tilde=policy.chol_tilde,
        logdet_tilde=policy.logdet_tilde,
    )


def read_plan_npz(path: Path) -> GaussianPolicy:
    """The policy ``write_plan_npz`` stored; a missing or misshapen member, or
    one that is not all finite floats, is a ShapeError naming it."""
    try:
        with np.load(path) as npz:
            # each NpzFile lookup decompresses the whole member: load every one once
            data = {name: npz[name] for name in npz.files}
    except (ValueError, EOFError, TypeError, zipfile.BadZipFile, zlib.error) as exc:
        raise ShapeError(f"'{path}' is not a readable NPZ archive") from exc
    extent: dict[str, int] = {}
    for name, axes in _PLAN_MEMBERS.items():
        if name not in data:
            raise ShapeError(f"'{path}' has no member '{name}'")
        member = data[name]
        shape = member.shape
        if len(shape) != len(axes) or any(extent.setdefault(a, k) != k
                                          for a, k in zip(axes, shape)):
            raise ShapeError(f"'{path}': member '{name}' has shape {shape}, "
                             f"inconsistent with axes ({', '.join(axes)}) of the others")
        if member.dtype.kind != "f" or not np.isfinite(member).all():
            raise ShapeError(f"'{path}': member '{name}' is not all finite floats")
    prior = PolicyPrior(
        u_bar=data["prior_u_bar"], v_bar=data["prior_v_bar"], sigma_p=data["prior_sigma_p"],
    )
    return GaussianPolicy(
        beta=float(data["beta"]), gamma=float(data["gamma"]), rbar=data["rbar"], prior=prior,
        u_tilde=data["u_tilde"], v_tilde=data["v_tilde"], chol_tilde=data["chol_tilde"],
        logdet_tilde=data["logdet_tilde"],
    )
