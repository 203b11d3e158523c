"""Per-layer timing of the solver's inner kernels and the storage round trips,
parent source tree against change.

Times, at N=100 and N=20 assets and T=30 periods:

- ``backward_pass``: one solve of the plan on a prebuilt reward basis;
- ``solve_nll``: the fit's cost per trial, one solve scored against the
  pooled data moments step by step into the rows of a fresh policy
  (``girl._nll``);
- ``plan_score``: the exact gradient of that likelihood and its Fisher
  information over the solved policy (``girl._plan_score``);
- ``prepare_stats``: the pooled data moments of the rollout's trajectories
  (``girl.prepare_stats``);
- ``loss_slices``: the 4 x 21 one-dimensional likelihood scans around the
  true reward (``girl.loss_slices``), on as many threads as the process has
  CPUs in its affinity set;
- ``assemble_coeffs``: every period's reward coefficients from one
  ``RewardBasis``;
- ``write_returns_csv`` and ``read_returns_csv``: the realized-return panel
  of the market (200 paths) to and from a CSV file in a temporary directory;
- ``write_trajectories_csv`` and ``read_trajectories_csv``: the rollout's
  200 trajectories likewise;
- ``write_plan_npz``: the solved plan to an NPZ file likewise.

The market is the one the benchmark's ``fit`` workload builds for seed 1,
with 200 rollout paths for the data moments; the reward is the benchmark's
true one.

At the shape of the benchmark's ``montecarlo`` workload (20,000 paths, N=10
assets, T=30, the plan solved on a 4,000-path calibration market of the same
seed) it also times that workload's operation layer by layer: ``simulate``,
``rollout`` (from a fresh rollout generator each call),
``equal_weight_baseline`` and ``performance_summary`` (of the plan's
trajectories, with the shortfall term).  Each tree simulates from its own
spec and rolls out its own plan, but the rollout, the baseline and the
summary of both trees read one market and one set of trajectories, the
change's, since these panels take about 0.2 GB.

PARENT_SRC and CHANGE_SRC are directories holding a ``gwealth`` package
that has ``girl._nll`` and ``girl._plan_score`` (every tree since the one
likelihood driver); both are imported into the same process under their own
names, and each of the 25 repeats times every layer once per tree,
alternating which tree goes first, so that a drift of the machine's speed
touches both trees and all layers alike.  A layer's figure is the median
over the repeats, with the quartiles.

    python3 tools/bench_layers.py PARENT_SRC CHANGE_SRC     # e.g. ../parent/src src

The result is written to ``BENCH_layers.json`` (``--out``) with the machine,
core count, the CPUs of the process's affinity set, numpy and BLAS versions
and BLAS threads.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported, as perfbench/run.py does

import argparse
import dataclasses
import importlib
import importlib.util
import json
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

SIZES = (100, 20)
HORIZON = 30
N_PATHS = 200
REPEATS = 25
SEED = 1
MC_ASSETS, MC_PATHS, MC_CALIB_PATHS = 10, 20_000, 4_000  # the montecarlo workload's shape
TRUTH = dict(lam=0.001, eta=1.01, rho=0.4, omega=0.15)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "machine": platform.machine(),
        "cpu": _cpu_model(),
        "cores": os.cpu_count(),
        "cpu_affinity": (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                         else None),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def _load(alias: str, src: Path):
    """Import the gwealth package under ``src`` as the top-level package
    ``alias``; its relative imports then resolve inside that copy."""
    init = src / "gwealth" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"bench_layers: no gwealth package under {src}")
    spec = importlib.util.spec_from_file_location(
        alias, init, submodule_search_locations=[str(init.parent)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[alias] = pkg
    spec.loader.exec_module(pkg)
    return pkg


def _layers(alias: str, n_assets: int, workdir: Path) -> dict:
    """The timed callables of one tree at one size, on inputs built once;
    the storage layers write and read their files in ``workdir``."""
    girl, glearner, market, rewards, storage = (
        importlib.import_module(f"{alias}.{name}")
        for name in ("girl", "glearner", "market", "rewards", "storage"))
    truth = rewards.RewardParams(**TRUTH)
    spec = market.MarketSpec(n_risky=n_assets - 1, horizon=HORIZON, n_paths=N_PATHS, seed=SEED)
    paths = market.simulate(spec)
    sigma = market.residual_covariance(paths)
    rbar = np.concatenate([np.full((spec.horizon, 1), spec.r_f * spec.dt),
                           market.mean_expected_returns(paths)], axis=1)
    bench = rewards.exponential_benchmark(1000.0, 0.5, spec.horizon, spec.dt)
    prior = glearner.default_prior(n_assets, 10.0)
    cfg = glearner.SolverConfig()
    basis = rewards.reward_basis(rbar, sigma, bench)
    plan = glearner.backward_pass(basis.coeffs(truth), prior, cfg, basis.rbar)
    trajs = glearner.rollout(plan, paths, np.full(n_assets, 1000.0 / n_assets), _rollout_rng())
    stats = girl.prepare_stats(trajs, rbar, sigma)
    theta = girl.GirlParams(reward=truth, sigma_r=sigma, sigma_p=prior.sigma_p,
                            u_bar=np.zeros(n_assets), beta=cfg.beta, gamma=cfg.gamma,
                            benchmark=bench)

    returns_csv = workdir / f"{alias}-{n_assets}-returns.csv"
    trajs_csv = workdir / f"{alias}-{n_assets}-trajectories.csv"
    plan_npz = workdir / f"{alias}-{n_assets}-plan.npz"

    def assemble():
        at = basis.coeffs(truth)
        for t in range(HORIZON):
            at(t)

    return {
        "backward_pass": lambda: glearner.backward_pass(basis.coeffs(truth), prior, cfg,
                                                        basis.rbar),
        "solve_nll": lambda: girl._nll(theta, basis, prior, stats,
                                       glearner._policy_rows(basis.rbar)[1]),
        "plan_score": lambda: girl._plan_score(theta, basis, plan, stats),
        "prepare_stats": lambda: girl.prepare_stats(trajs, rbar, sigma),
        "loss_slices": lambda: girl.loss_slices(theta, trajs, rbar),
        "assemble_coeffs": assemble,
        # each write precedes its read in every round, so the read finds the file
        "write_returns_csv": lambda: storage.write_returns_csv(returns_csv, paths.realized),
        "read_returns_csv": lambda: storage.read_returns_csv(returns_csv),
        "write_trajectories_csv": lambda: storage.write_trajectories_csv(trajs_csv, trajs),
        "read_trajectories_csv": lambda: storage.read_trajectories_csv(trajs_csv),
        "write_plan_npz": lambda: storage.write_plan_npz(plan_npz, plan),
    }


def _rollout_rng() -> np.random.Generator:
    # the stream the benchmark's workloads and `gwealth repro` roll out from
    return np.random.default_rng(np.random.SeedSequence(entropy=SEED, spawn_key=(1,)))


def _montecarlo_plan(alias: str):
    """The montecarlo workload's spec, x0, benchmark and plan, solved by one tree."""
    glearner, market, rewards = (importlib.import_module(f"{alias}.{name}")
                                 for name in ("glearner", "market", "rewards"))
    spec = market.MarketSpec(n_risky=MC_ASSETS - 1, horizon=HORIZON, n_paths=MC_PATHS,
                             seed=SEED)
    calib = market.simulate(dataclasses.replace(spec, n_paths=MC_CALIB_PATHS))
    rbar = np.concatenate([np.full((spec.horizon, 1), spec.r_f * spec.dt),
                           market.mean_expected_returns(calib)], axis=1)
    bench = rewards.exponential_benchmark(1000.0, 0.5, spec.horizon, spec.dt)
    plan = glearner.solve_plan(rewards.RewardParams(**TRUTH), rbar,
                               market.residual_covariance(calib), bench,
                               glearner.default_prior(MC_ASSETS, 10.0), glearner.SolverConfig())
    return spec, np.full(MC_ASSETS, 1000.0 / MC_ASSETS), bench, plan


def _montecarlo_layers(alias: str, inputs, paths, trajs) -> dict:
    """The timed steps of the montecarlo operation in one tree, the rollout,
    baseline and summary on the shared ``paths`` and ``trajs``."""
    glearner, market, metrics, rewards = (
        importlib.import_module(f"{alias}.{name}")
        for name in ("glearner", "market", "metrics", "rewards"))
    spec, x0, bench, plan = inputs
    truth = rewards.RewardParams(**TRUTH)
    return {
        "simulate": lambda: market.simulate(spec),
        "rollout": lambda: glearner.rollout(plan, paths, x0, _rollout_rng()),
        "equal_weight_baseline": lambda: metrics.equal_weight_baseline(paths, x0, spec.r_f,
                                                                       spec.dt),
        "performance_summary": lambda: metrics.performance_summary(
            trajs, spec.r_f, spec.dt, params=truth, benchmark=bench),
    }


def _time(layers: dict) -> dict:
    """{layer: {tree: quartiles (ms)}} over REPEATS alternating rounds of
    ``layers`` = {tree: {layer: callable}}, after one warm-up call each."""
    for fns in layers.values():  # warm-up: caches and lazy set-up
        for fn in fns.values():
            fn()
    labels = list(layers)
    names = list(layers[labels[0]])
    times = {name: {label: [] for label in labels} for name in names}
    for rep in range(REPEATS):
        order = labels if rep % 2 == 0 else labels[::-1]
        for name in names:
            for label in order:
                start = time.perf_counter()
                layers[label][name]()
                times[name][label].append(1e3 * (time.perf_counter() - start))
    return {name: {label: dict(zip(("q1", "median", "q3"),
                                   np.percentile(per_label[label], [25, 50, 75])
                                   .round(4).tolist()))
                   for label in labels}
            for name, per_label in times.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the parent's directory holding gwealth")
    parser.add_argument("change", type=Path, help="the change's directory holding gwealth")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_layers.json")
    args = parser.parse_args(argv)
    sources = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    aliases = {label: _load(f"gwealth_bench_{label}", src).__name__
               for label, src in sources.items()}

    result = {"environment": _environment(), "seed": SEED, "repeats": REPEATS,
              "horizon": HORIZON, "paths": N_PATHS, "unit": "ms",
              "sources": list(sources), "sizes": {}}
    with tempfile.TemporaryDirectory(prefix="bench_layers-") as workdir:
        for n_assets in SIZES:
            result["sizes"][f"N={n_assets}"] = _time(
                {label: _layers(alias, n_assets, Path(workdir))
                 for label, alias in aliases.items()})

    plans = {label: _montecarlo_plan(alias) for label, alias in aliases.items()}
    spec, x0, _, plan = plans["change"]
    market, glearner = (importlib.import_module(f"{aliases['change']}.{name}")
                        for name in ("market", "glearner"))
    paths = market.simulate(spec)
    trajs = glearner.rollout(plan, paths, x0, _rollout_rng())
    result["sizes"][f"montecarlo N={MC_ASSETS} M={MC_PATHS}"] = _time(
        {label: _montecarlo_layers(alias, plans[label], paths, trajs)
         for label, alias in aliases.items()})

    record = {"harness": "python3 tools/bench_layers.py PARENT_SRC CHANGE_SRC", **result}
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    for size, layers in result["sizes"].items():
        for name, per_label in layers.items():
            print(f"{size:>6} {name:<22} " + "  ".join(
                f"{label} {q['median']:8.3f} [{q['q1']:.3f}, {q['q3']:.3f}]"
                for label, q in per_label.items()) + " ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
