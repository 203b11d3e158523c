"""File formats for pipeline artifacts.

CSV files carry a header row, stable column order, and full-precision decimal
floats (shortest representation that round-trips).  Asset indices are global:
0 is the bond, 1..n are the risky assets; return panels cover risky assets
only.  Solved plans are stored as compressed NPZ archives.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ShapeError
from .glearner import (
    FCoeffs, GaussianPolicy, PolicyPrior, QCoeffs, SolvedPlan, Trajectory, cash_installment,
)


def _fmt(value: float) -> str:
    return repr(float(value))


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
    raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if raw.size == 0:
        raise ShapeError(f"'{path}' contains no data rows")
    p_idx = raw[:, 0].astype(int)
    t_idx = raw[:, 1].astype(int)
    a_idx = raw[:, 2].astype(int) - 1
    panel = np.full((p_idx.max() + 1, t_idx.max() + 1, a_idx.max() + 1), np.nan)
    panel[p_idx, t_idx, a_idx] = raw[:, 3]
    if np.isnan(panel).any():
        raise ShapeError(f"'{path}' does not cover a full paths x periods x assets panel")
    return panel


def write_matrix_csv(path: Path, matrix: np.ndarray) -> None:
    """Square matrix in long format: row,col,value (risky-asset indexing)."""
    with open(path, "w") as fh:
        fh.write("row,col,value\n")
        n, m = matrix.shape
        for i in range(n):
            for j in range(m):
                fh.write(f"{i},{j},{_fmt(matrix[i, j])}\n")


def read_matrix_csv(path: Path) -> np.ndarray:
    raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    i_idx = raw[:, 0].astype(int)
    j_idx = raw[:, 1].astype(int)
    out = np.full((i_idx.max() + 1, j_idx.max() + 1), np.nan)
    out[i_idx, j_idx] = raw[:, 2]
    if np.isnan(out).any():
        raise ShapeError(f"'{path}' does not cover a full matrix")
    return out


# ---------------------------------------------------------------------------
# trajectories and cash installments
# ---------------------------------------------------------------------------

def write_trajectories_csv(path: Path, trajs: list[Trajectory]) -> None:
    """Rows path,period,asset,x,u for period 0..T; the final period carries
    the terminal positions with a placeholder trade of 0."""
    with open(path, "w") as fh:
        fh.write("path,period,asset,x,u\n")
        for p, traj in enumerate(trajs):
            t_len, n = traj.u.shape
            for t in range(t_len + 1):
                for a in range(n):
                    u_val = traj.u[t, a] if t < t_len else 0.0
                    fh.write(f"{p},{t},{a},{_fmt(traj.x[t, a])},{_fmt(u_val)}\n")


def read_trajectories_csv(path: Path) -> list[Trajectory]:
    raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    p_idx = raw[:, 0].astype(int)
    t_idx = raw[:, 1].astype(int)
    a_idx = raw[:, 2].astype(int)
    n_paths = p_idx.max() + 1
    t_len = t_idx.max()  # last period row holds terminal positions only
    n = a_idx.max() + 1
    x_all = np.full((n_paths, t_len + 1, n), np.nan)
    u_all = np.full((n_paths, t_len + 1, n), np.nan)
    x_all[p_idx, t_idx, a_idx] = raw[:, 3]
    u_all[p_idx, t_idx, a_idx] = raw[:, 4]
    if np.isnan(x_all).any():
        raise ShapeError(f"'{path}' does not cover a full trajectory panel")
    u = u_all[:, :t_len]
    cash = cash_installment(u)
    return [Trajectory(x=x_all[p], u=u[p], cash=cash[p]) for p in range(n_paths)]


def write_cash_csv(path: Path, trajs: list[Trajectory]) -> None:
    with open(path, "w") as fh:
        fh.write("path,period,c\n")
        for p, traj in enumerate(trajs):
            for t in range(traj.horizon):
                fh.write(f"{p},{t},{_fmt(traj.cash[t])}\n")


# ---------------------------------------------------------------------------
# solved plans
# ---------------------------------------------------------------------------

def write_plan_npz(path: Path, plan: SolvedPlan) -> None:
    pol = plan.policy
    arrays = {
        "beta": np.array(plan.beta),
        "gamma": np.array(plan.gamma),
        "rbar": plan.rbar,
        "prior_u_bar": pol.prior.u_bar,
        "prior_v_bar": pol.prior.v_bar,
        "prior_sigma_p": pol.prior.sigma_p,
        "u_tilde": pol.u_tilde,
        "v_tilde": pol.v_tilde,
        "sigma_tilde": pol.sigma_tilde,
        "chol_tilde": pol.chol_tilde,
        "logdet_tilde": pol.logdet_tilde,
    }
    for tag, coeffs in (("f", plan.f), ("fs", plan.f_soft)):
        arrays[f"{tag}_xx"] = np.stack([c.f_xx for c in coeffs])
        arrays[f"{tag}_x"] = np.stack([c.f_x for c in coeffs])
        arrays[f"{tag}_0"] = np.array([c.f_0 for c in coeffs])
    arrays["q_xx"] = np.stack([q.q_xx for q in plan.q])
    arrays["q_ux"] = np.stack([q.q_ux for q in plan.q])
    arrays["q_uu"] = np.stack([q.q_uu for q in plan.q])
    arrays["q_x"] = np.stack([q.q_x for q in plan.q])
    arrays["q_u"] = np.stack([q.q_u for q in plan.q])
    arrays["q_0"] = np.array([q.q_0 for q in plan.q])
    arrays["sigma_bar"] = np.stack([q.sigma_bar for q in plan.q])
    np.savez_compressed(path, **arrays)


def read_plan_npz(path: Path) -> SolvedPlan:
    with np.load(path) as npz:
        # each NpzFile lookup decompresses the whole member: load every one once
        data = {name: npz[name] for name in npz.files}
        t_len = data["rbar"].shape[0]
        prior = PolicyPrior(
            u_bar=data["prior_u_bar"], v_bar=data["prior_v_bar"],
            sigma_p=data["prior_sigma_p"],
        )
        policy = GaussianPolicy(
            prior=prior, u_tilde=data["u_tilde"], v_tilde=data["v_tilde"],
            sigma_tilde=data["sigma_tilde"], chol_tilde=data["chol_tilde"],
            logdet_tilde=data["logdet_tilde"],
        )
        f = [
            FCoeffs(f_xx=data["f_xx"][t], f_x=data["f_x"][t], f_0=float(data["f_0"][t]))
            for t in range(t_len)
        ]
        f_soft = [
            FCoeffs(f_xx=data["fs_xx"][t], f_x=data["fs_x"][t], f_0=float(data["fs_0"][t]))
            for t in range(t_len)
        ]
        q = [
            QCoeffs(
                q_xx=data["q_xx"][t], q_ux=data["q_ux"][t], q_uu=data["q_uu"][t],
                q_x=data["q_x"][t], q_u=data["q_u"][t], q_0=float(data["q_0"][t]),
                sigma_bar=data["sigma_bar"][t],
            )
            for t in range(t_len)
        ]
        rbar = data["rbar"]
        return SolvedPlan(
            beta=float(data["beta"]), gamma=float(data["gamma"]),
            rbar=rbar, a=1.0 + rbar, q=q, f=f, f_soft=f_soft, policy=policy,
        )
