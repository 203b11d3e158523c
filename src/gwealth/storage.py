"""File formats for pipeline artifacts; every CSV table is written here.

CSV files carry a header row, stable column order, and full-precision decimal
floats (shortest representation that round-trips).  All but the loss slices
are long-format tables, written by one writer and read by one dense-table
reader.  Asset indices are global: 0 is the bond, 1..n are the risky assets;
return panels cover risky assets only.  A solved plan, the policy the solver
returns, is stored as an uncompressed NPZ archive (compressing saves 30% at
N=100 but writes 30 times slower).  Readers raise ShapeError, naming the file,
on content they cannot parse and on any number that is not finite (nan, inf).
"""

from __future__ import annotations

import math
import warnings
import zipfile
import zlib
from itertools import product
from pathlib import Path

import numpy as np

from .errors import ShapeError
from .glearner import GaussianPolicy, Trajectories, cash_installment


def _write_long(path: Path, header: str, rows, first: int = 0) -> None:
    """A long-format table: for each (label, block) of ``rows``, with block a
    (*dims, k) array, one line per cell of dims in row-major order holding
    the label, the cell's index columns (the last counting from ``first``)
    and its k values in their shortest round-trip decimal form."""
    prefixes = None  # the index columns, the same for every block
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for label, block in rows:
            block = np.asarray(block, dtype=float)
            if prefixes is None:
                ranges = [range(d) for d in block.shape[:-1]]
                ranges[-1] = range(first, first + block.shape[-2])
                prefixes = [",".join(map(str, cell)) for cell in product(*ranges)]
            if not prefixes:  # an extent of 0: no cells, no lines
                continue
            lead = f"{label},"
            cols = [map(repr, block[..., j].ravel().tolist()) for j in range(block.shape[-1])]
            fh.write(lead + ("\n" + lead).join(map(",".join, zip(prefixes, *cols))) + "\n")


def _read_long(path: Path, header: str, n_values: int, first: int = 0) -> np.ndarray:
    """The table ``_write_long`` writes under ``header``, with n_values value
    columns, as an (n_values, *extents) array: each index column a
    non-negative integer (the last from ``first``), each cell of the extents
    named exactly once, every value finite."""
    n_index = header.count(",") + 1 - n_values
    try:
        with warnings.catch_warnings():
            # a header-only file: reported below as a ShapeError instead
            warnings.filterwarnings("ignore", message="loadtxt: input contained no data")
            raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ShapeError(f"'{path}' is not a numeric CSV table: {exc}") from exc
    if raw.size == 0:
        raise ShapeError(f"'{path}' contains no data rows")
    if raw.shape[1] != n_index + n_values:
        raise ShapeError(f"'{path}' has {raw.shape[1]} columns, expected {n_index + n_values}")
    if not np.isfinite(raw).all():
        raise ShapeError(f"'{path}' has a cell that is not a finite number")
    idx = raw[:, :n_index]
    idx[:, -1] -= first
    if not ((idx >= 0) & (idx == np.floor(idx))).all():
        raise ShapeError(f"'{path}' has an index that is not a non-negative integer")
    if (idx >= raw.shape[0]).any():  # a dense table of R rows has no extent above R
        raise ShapeError(f"'{path}' has an index past the extent of a table of "
                         f"{raw.shape[0]} rows")
    idx = idx.astype(np.int64)
    shape = tuple(int(k) + 1 for k in idx.max(axis=0))
    if idx.shape[0] != math.prod(shape):
        raise ShapeError(f"'{path}' has {idx.shape[0]} rows for {math.prod(shape)} cells")
    out = np.full((n_values,) + shape, np.nan)
    out[(slice(None), *idx.T)] = raw[:, n_index:].T
    if np.isnan(out).any():
        raise ShapeError(f"'{path}' does not cover a full {' x '.join(map(str, shape))} table")
    return out


# the headers of the tables a later stage reads back
_RETURNS = "path,period,asset,value"
_MATRIX = "row,col,value"
_TRAJECTORIES = "path,period,asset,x,u"


# ---------------------------------------------------------------------------
# return panels and matrices
# ---------------------------------------------------------------------------

def write_returns_csv(path: Path, panel: np.ndarray) -> None:
    """Long-format panel: path,period,asset,value with asset in 1..n_risky."""
    if panel.ndim != 3:
        raise ShapeError("return panel must be [paths x periods x assets]")
    _write_long(path, _RETURNS, enumerate(panel[..., None]), first=1)


def read_returns_csv(path: Path) -> np.ndarray:
    return _read_long(path, _RETURNS, 1, first=1)[0]


def write_matrix_csv(path: Path, matrix: np.ndarray) -> None:
    """Square matrix in long format: row,col,value (risky-asset indexing)."""
    _write_long(path, _MATRIX, enumerate(matrix[..., None]))


def read_matrix_csv(path: Path) -> np.ndarray:
    return _read_long(path, _MATRIX, 1)[0]


# ---------------------------------------------------------------------------
# trajectories, cash installments and reports
# ---------------------------------------------------------------------------

def write_trajectories_csv(path: Path, trajs: Trajectories) -> None:
    """Rows path,period,asset,x,u for period 0..T; the final period carries
    the terminal positions with a placeholder trade of 0."""
    pad = np.zeros((1, trajs.u.shape[2]))
    _write_long(path, _TRAJECTORIES,
                ((p, np.stack([x, np.concatenate([u, pad])], axis=-1))
                 for p, (x, u) in enumerate(zip(trajs.x, trajs.u))))


def read_trajectories_csv(path: Path) -> Trajectories:
    x, u_all = _read_long(path, _TRAJECTORIES, 2)
    u = u_all[:, :-1]  # the last period row holds terminal positions only
    return Trajectories(x=x, u=u, cash=cash_installment(u))


def write_cash_csv(path: Path, trajs: Trajectories) -> None:
    _write_long(path, "path,period,c", enumerate(trajs.cash[..., None]))


def write_performance_csv(path: Path, mean_returns: dict[str, np.ndarray]) -> None:
    """Rows strategy,period,mean_return, the strategies in name order."""
    _write_long(path, "strategy,period,mean_return",
                ((name, mean_returns[name][:, None]) for name in sorted(mean_returns)))


def write_slices_csv(path: Path, slices: dict[str, tuple[np.ndarray, np.ndarray]]) -> None:
    """Rows parameter,value,nll of each one-dimensional likelihood scan
    {parameter: (grid, nll values)}, in the order given."""
    with open(path, "w") as fh:
        fh.write("parameter,value,nll\n")
        for name, (grid, vals) in slices.items():
            for g, v in zip(grid.tolist(), vals.tolist()):
                fh.write(f"{name},{g!r},{v!r}\n")


# ---------------------------------------------------------------------------
# solved plans
# ---------------------------------------------------------------------------

# plan.npz members, the fields of a GaussianPolicy, with their axes: T periods,
# N assets (the bond first)
_PLAN_MEMBERS = {"rbar": "TN", "u_tilde": "TN", "v_tilde": "TNN", "chol_tilde": "TNN"}


def write_plan_npz(path: Path, policy: GaussianPolicy) -> None:
    """The policy's fields, one member each."""
    np.savez(path, **{name: getattr(policy, name) for name in _PLAN_MEMBERS})


def read_plan_npz(path: Path) -> GaussianPolicy:
    """The policy ``write_plan_npz`` stored; a missing or misshapen member, one
    that is not all finite floats, or a ``chol_tilde`` that is not a stack of
    lower Cholesky factors is a ShapeError naming it.  A compressed archive,
    as earlier versions wrote, reads the same."""
    try:
        with np.load(path) as npz:
            # each NpzFile lookup reads (and, in a compressed archive, inflates)
            # the whole member: load every one once
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
    chol = data["chol_tilde"]
    if np.triu(chol, 1).any() or not (np.diagonal(chol, axis1=1, axis2=2) > 0.0).all():
        raise ShapeError(f"'{path}': member 'chol_tilde' is not a stack of lower Cholesky "
                         "factors (zero above a positive diagonal)")
    return GaussianPolicy(**{name: data[name] for name in _PLAN_MEMBERS})
