"""In-memory span tracer that wraps gwealth's public functions from outside.

Nothing in ``src/`` is instrumented.  ``Tracer.install`` replaces every public
function of the traced modules with a wrapper in every gwealth module
namespace that holds it, so names imported with ``from .x import y`` (cli's
``simulate``, girl's ``solve_plan``, metrics' ``target_portfolio``) are
wrapped where they are looked up.  ``uninstall`` puts the originals back.

Each wrapped call records a span (name, start, end, parent) in memory; hot
helpers called once per path and period are only counted.  ``numpy.linalg``
factorizations and solves are counted so that the number made inside one
``solve_plan`` can be reported.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import types
from pathlib import Path

import numpy as np

TRACED_MODULES = ("market", "rewards", "glearner", "girl", "metrics", "storage", "cli")

# called once per path, period or likelihood evaluation: counted, no span
COUNT_ONLY = {
    "rewards.target_portfolio", "rewards.pad_covariance", "rewards.reward_value",
    "glearner.cash_installment", "glearner.policy_mean", "glearner.sample_action",
    "glearner.g_value", "glearner.free_energy",
    "girl.action_log_prob", "girl.transition_log_prob",
    "girl.pack_reward", "girl.unpack_reward",
    "metrics.investment_returns",
}

LINALG_FUNCS = ("cholesky", "solve", "inv", "eigvalsh", "eigh", "eig", "det", "slogdet",
                "lstsq", "qr", "svd", "pinv")

MB = 1024.0 * 1024.0

CLI_STAGES = ("simulate", "solve", "rollout", "fit", "report")


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[dict] = []   # name, start, end, parent (index or None)
        self.counts: dict[str, int] = {}
        self.bytes_written = 0
        self.bytes_read = 0
        self.linalg_calls = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        pkg = sys.modules["gwealth"]
        namespaces = [pkg] + [m for name, m in sorted(sys.modules.items())
                              if name.startswith("gwealth.") and isinstance(m, types.ModuleType)]
        wrappers = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"gwealth.{short}"]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or obj.__module__ != mod.__name__):
                    continue
                wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._saved.append((ns, attr, obj))
                    setattr(ns, attr, wrapper)
        for attr in LINALG_FUNCS:
            original = getattr(np.linalg, attr)
            self._saved.append((np.linalg, attr, original))
            setattr(np.linalg, attr, self._count_linalg(original))

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._saved):
            setattr(ns, attr, obj)
        self._saved.clear()

    def _count_linalg(self, func):
        @functools.wraps(func)
        def counted(*args, **kwargs):
            self.linalg_calls += 1
            return func(*args, **kwargs)
        return counted

    def _wrap(self, name: str, func):
        counts = self.counts
        if name in COUNT_ONLY:
            @functools.wraps(func)
            def counted(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return func(*args, **kwargs)
            return counted

        layer, _, fname = name.partition(".")
        storage_write = layer == "storage" and fname.startswith("write_")
        storage_read = layer == "storage" and fname.startswith("read_")
        spans = self.spans
        stack = self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            span = {"name": name, "parent": stack[-1] if stack else None,
                    "linalg": self.linalg_calls}
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            span["start"] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                span["linalg"] = self.linalg_calls - span["linalg"]
            if storage_read:
                self.bytes_read += os.path.getsize(args[0])
            elif storage_write:
                self.bytes_written += os.path.getsize(args[0])
            if name == "girl.fit":
                span["iterations"] = int(result.iterations)
            elif name == "glearner.rollout":
                span["paths"] = int(args[1].n_paths)
            return result

        return traced

    # -- reduction ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def write(self, path: Path, **extra) -> None:
        """Write the spans, with self times and counts, and ``extra`` as one
        JSON document."""
        selfs = self.self_times()
        spans = [dict(s, self=selfs[i]) for i, s in enumerate(self.spans)]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(dict(extra, spans=spans, counts=self.counts), fh)


def layer_metrics(tr: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of ``ops`` traced operations, averaged per operation.

    A layer that a workload does not exercise reads 0.
    """
    def per_op(v):
        return v / ops

    def secs(*names):
        return per_op(sum(tr.total(n) for n in names))

    def calls(name):
        return per_op(tr.counts.get(name, 0))

    selfs = tr.self_times()

    def self_s(name):
        return per_op(sum(selfs[i] for i, s in enumerate(tr.spans) if s["name"] == name))

    solves = [s for s in tr.spans if s["name"] == "glearner.solve_plan"]
    fits = [i for i, s in enumerate(tr.spans) if s["name"] == "girl.fit"]
    fit_iters = sum(tr.spans[i]["iterations"] for i in fits)
    fit_solves = sum(1 for s in solves if _inside(tr.spans, s, set(fits)))
    rollouts = [s for s in tr.spans if s["name"] == "glearner.rollout"]
    rollout_s = sum(s["end"] - s["start"] for s in rollouts)
    rollout_paths = sum(s["paths"] for s in rollouts)

    return {
        **{f"cli.{c}_s": (secs(f"cli.cmd_{c}"), "s") for c in CLI_STAGES},
        # cmd_repro outside the stages it chains: the solve and rollout under
        # the fitted reward
        "cli.imitation_s": (secs("cli.cmd_repro") - secs(*(f"cli.cmd_{c}" for c in CLI_STAGES)),
                            "s"),
        "storage.write_returns_csv_s": (secs("storage.write_returns_csv"), "s"),
        "storage.read_returns_csv_s": (secs("storage.read_returns_csv"), "s"),
        "storage.write_trajectories_csv_s": (secs("storage.write_trajectories_csv"), "s"),
        "storage.read_trajectories_csv_s": (secs("storage.read_trajectories_csv"), "s"),
        "storage.write_cash_csv_s": (secs("storage.write_cash_csv"), "s"),
        "storage.matrix_csv_s": (secs("storage.write_matrix_csv", "storage.read_matrix_csv"), "s"),
        "storage.write_plan_npz_s": (secs("storage.write_plan_npz"), "s"),
        "storage.read_plan_npz_s": (secs("storage.read_plan_npz"), "s"),
        "storage.csv_reads": (calls("storage.read_returns_csv") + calls("storage.read_matrix_csv")
                              + calls("storage.read_trajectories_csv"), "count"),
        "storage.bytes_written_mb": (per_op(tr.bytes_written / MB), "MB"),
        "storage.bytes_read_mb": (per_op(tr.bytes_read / MB), "MB"),
        "market.simulate_s": (secs("market.simulate"), "s"),
        "market.residual_covariance_s": (secs("market.residual_covariance"), "s"),
        "rewards.build_coeffs_s": (secs("rewards.build_coeffs"), "s"),
        "rewards.build_coeffs_calls": (calls("rewards.build_coeffs"), "count"),
        "rewards.target_portfolio_calls": (calls("rewards.target_portfolio"), "count"),
        "glearner.solve_plan_s": (secs("glearner.solve_plan"), "s"),
        "glearner.solve_plan_calls": (calls("glearner.solve_plan"), "count"),
        "glearner.backward_pass_s": (secs("glearner.backward_pass"), "s"),
        "glearner.linalg_calls_per_solve": (
            sum(s["linalg"] for s in solves) / len(solves) if solves else 0.0, "count"),
        "glearner.rollout_s": (per_op(rollout_s), "s"),
        "glearner.rollout_paths_per_s": (
            rollout_paths / rollout_s if rollout_s > 0 else 0.0, "1/s"),
        "girl.fit_s": (secs("girl.fit"), "s"),
        "girl.fit_iterations": (per_op(fit_iters), "count"),
        "girl.nll_evals": (calls("girl.nll_from_stats"), "count"),
        "girl.solves_per_iteration": (fit_solves / fit_iters if fit_iters else 0.0, "count"),
        "girl.nll_self_s": (self_s("girl.nll_from_stats"), "s"),
        "girl.prepare_stats_s": (secs("girl.prepare_stats"), "s"),
        "girl.loss_slices_s": (secs("girl.loss_slices"), "s"),
        "metrics.performance_summary_s": (secs("metrics.performance_summary"), "s"),
        "metrics.equal_weight_baseline_s": (secs("metrics.equal_weight_baseline"), "s"),
    }


def _inside(spans: list[dict], span: dict, ancestors: set[int]) -> bool:
    parent = span["parent"]
    while parent is not None:
        if parent in ancestors:
            return True
        parent = spans[parent]["parent"]
    return False
