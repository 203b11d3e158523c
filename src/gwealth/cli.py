"""Command-line pipeline: simulate | solve | rollout | fit | report | repro.

Every stage reads a JSON config (defaults match the reference experiment) and
exchanges artifacts through CSV/NPZ files in the configured output directory,
so stages can be re-run independently.  ``repro`` chains all stages from one
seed.  Set GWEALTH_LOG=debug|info|warning for log verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, load_config
from .errors import ConfigError, GWealthError
from .girl import (
    GirlParams,
    default_slice_grids,
    fit,
    loss_slices,
    scaled_start,
)
from .glearner import default_prior, rollout, solve_plan
from .market import ReturnCovariance, ReturnPaths, residual_covariance, simulate
from .metrics import equal_weight_baseline, performance_summary
from .rewards import RewardParams, exponential_benchmark
from . import storage

logger = logging.getLogger("gwealth")

F_EXPECTED = "returns_expected.csv"
F_REALIZED = "returns_realized.csv"
F_SIGMA = "sigma_r.csv"
F_PLAN = "plan.npz"
F_PLAN_GIRL = "plan_girl.npz"
F_TRAJ = "trajectories.csv"
F_CASH = "cash.csv"
F_TRAJ_GIRL = "trajectories_girl.csv"
F_CASH_GIRL = "cash_girl.csv"
F_GIRL_REPORT = "girl_report.json"
F_SLICES = "loss_slices.csv"
F_PERF = "performance.csv"
F_SUMMARY = "summary.json"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"gwealth: error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _setup_logging() -> None:
    level = os.environ.get("GWEALTH_LOG", "warning").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _require(outdir: Path, name: str, hint: str) -> Path:
    path = outdir / name
    if not path.exists():
        raise ConfigError(f"missing input: '{path}' ({hint})")
    return path


def _track(written: list, path: Path):
    written.append(path)
    return path


def _rollout_rng(cfg: ExperimentConfig, stream: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=cfg.io.seed, spawn_key=(stream,))
    )


def _bond_column(cfg: ExperimentConfig, horizon: int) -> np.ndarray:
    return np.full((horizon, 1), cfg.rf_period)


def _load_market_inputs(cfg: ExperimentConfig, outdir: Path):
    expected = storage.read_returns_csv(
        _require(outdir, F_EXPECTED, "run `gwealth simulate` first")
    )
    sigma = ReturnCovariance(
        sigma_r=storage.read_matrix_csv(
            _require(outdir, F_SIGMA, "run `gwealth simulate` first")
        )
    )
    rbar_path = np.concatenate(
        [_bond_column(cfg, expected.shape[1]), expected.mean(axis=0)], axis=1
    )
    return expected, sigma, rbar_path


def _girl_params(cfg: ExperimentConfig, sigma: ReturnCovariance,
                 reward: RewardParams, horizon: int) -> GirlParams:
    n = cfg.market.n_risky + 1
    return GirlParams(
        reward=reward,
        sigma_r=sigma,
        sigma_p=cfg.solver.sigma_p_scale**2 * np.eye(n),
        u_bar=np.zeros(n),
        beta=cfg.solver.beta,
        gamma=cfg.solver.gamma,
        benchmark=exponential_benchmark(
            cfg.reward.initial_wealth, cfg.reward.benchmark_rate, horizon, cfg.market.dt
        ),
    )


def _x0(cfg: ExperimentConfig) -> np.ndarray:
    n = cfg.market.n_risky + 1
    return np.full(n, cfg.reward.initial_wealth / n)


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def cmd_simulate(cfg: ExperimentConfig, written: list) -> None:
    outdir = cfg.outdir
    outdir.mkdir(parents=True, exist_ok=True)
    logger.info("simulating %d paths x %d periods x %d assets",
                cfg.market.n_paths, cfg.market.horizon, cfg.market.n_risky)
    paths = simulate(cfg.market)
    storage.write_returns_csv(_track(written, outdir / F_EXPECTED), paths.expected)
    storage.write_returns_csv(_track(written, outdir / F_REALIZED), paths.realized)
    # may fail on short samples; the partially written panels are then removed
    sigma = residual_covariance(paths)
    storage.write_matrix_csv(_track(written, outdir / F_SIGMA), sigma.sigma_r)


def cmd_solve(cfg: ExperimentConfig, written: list) -> None:
    outdir = cfg.outdir
    _, sigma, rbar_path = _load_market_inputs(cfg, outdir)
    horizon = rbar_path.shape[0]
    reward = cfg.reward.params()
    bench = exponential_benchmark(
        cfg.reward.initial_wealth, cfg.reward.benchmark_rate, horizon, cfg.market.dt
    )
    prior = default_prior(rbar_path.shape[1], cfg.solver.sigma_p_scale)
    logger.info("solving plan for %d periods, %d assets", horizon, rbar_path.shape[1])
    plan = solve_plan(reward, rbar_path, sigma, bench, prior, cfg.solver.config())
    storage.write_plan_npz(_track(written, outdir / F_PLAN), plan)


def _rollout_stage(cfg: ExperimentConfig, written: list, plan_file: str,
                   traj_file: str, cash_file: str, stream: int) -> None:
    outdir = cfg.outdir
    policy = storage.read_plan_npz(_require(outdir, plan_file, "run `gwealth solve` first"))
    realized = storage.read_returns_csv(
        _require(outdir, F_REALIZED, "run `gwealth simulate` first")
    )
    paths = ReturnPaths(expected=realized, realized=realized,
                        market=np.zeros(realized.shape[:2]))
    trajs = rollout(policy, paths, _x0(cfg), _rollout_rng(cfg, stream))
    storage.write_trajectories_csv(_track(written, outdir / traj_file), trajs)
    storage.write_cash_csv(_track(written, outdir / cash_file), trajs)


def cmd_rollout(cfg: ExperimentConfig, written: list) -> None:
    _rollout_stage(cfg, written, F_PLAN, F_TRAJ, F_CASH, stream=1)


def cmd_fit(cfg: ExperimentConfig, written: list) -> None:
    outdir = cfg.outdir
    trajs = storage.read_trajectories_csv(
        _require(outdir, F_TRAJ, "run `gwealth rollout` first")
    )
    _, sigma, rbar_path = _load_market_inputs(cfg, outdir)
    truth = cfg.reward.params()
    theta0 = _girl_params(cfg, sigma, scaled_start(truth, cfg.girl.theta0_scale),
                          rbar_path.shape[0])
    logger.info("fitting reward parameters from %d trajectories", len(trajs))
    report = fit(trajs, rbar_path, theta0, cfg.girl.fit_config())
    logger.info("fit stopped (%s) after %d iterations, Newton decrement %.3g nats",
                report.stop_reason, report.iterations, report.decrement)
    fitted = report.params.reward
    payload = {
        "theta": {
            "lam": fitted.lam, "eta": fitted.eta,
            "rho": fitted.rho, "omega": float(fitted.omega),
        },
        "loss_path": [float(v) for v in report.loss_path],
        "iterations": report.iterations,
        "converged": report.converged,
        "stop_reason": report.stop_reason,
        "newton_decrement": report.decrement,
    }
    path = _track(written, outdir / F_GIRL_REPORT)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    slices = loss_slices(report.params.with_reward(truth), trajs, rbar_path,
                         default_slice_grids(truth))
    with open(_track(written, outdir / F_SLICES), "w") as fh:
        fh.write("parameter,value,nll\n")
        for name in ("lam", "eta", "rho", "omega"):
            grid, vals = slices[name]
            for g, v in zip(grid, vals):
                fh.write(f"{name},{storage._fmt(g)},{storage._fmt(v)}\n")


def cmd_report(cfg: ExperimentConfig, written: list) -> None:
    outdir = cfg.outdir
    realized = storage.read_returns_csv(
        _require(outdir, F_REALIZED, "run `gwealth simulate` first")
    )
    paths = ReturnPaths(expected=realized, realized=realized,
                        market=np.zeros(realized.shape[:2]))
    horizon = realized.shape[1]
    reward = cfg.reward.params()
    bench = exponential_benchmark(
        cfg.reward.initial_wealth, cfg.reward.benchmark_rate, horizon, cfg.market.dt
    )
    strategies = {
        "equal_weight": equal_weight_baseline(
            paths, _x0(cfg), cfg.market.r_f, cfg.market.dt
        ),
    }
    traj_path = outdir / F_TRAJ
    if traj_path.exists():
        strategies["glearner"] = storage.read_trajectories_csv(traj_path)
    girl_path = outdir / F_TRAJ_GIRL
    if girl_path.exists():
        strategies["girl"] = storage.read_trajectories_csv(girl_path)
    if "glearner" not in strategies:
        raise ConfigError(f"missing input: '{traj_path}' (run `gwealth rollout` first)")

    summaries = {
        name: performance_summary(trajs, cfg.market.r_f, cfg.market.dt,
                                  params=reward, benchmark=bench)
        for name, trajs in strategies.items()
    }
    with open(_track(written, outdir / F_PERF), "w") as fh:
        fh.write("strategy,period,mean_return\n")
        for name in sorted(summaries):
            for t, val in enumerate(summaries[name].mean_returns):
                fh.write(f"{name},{t},{storage._fmt(val)}\n")
    payload = {
        "sharpe": {name: s.sharpe for name, s in sorted(summaries.items())},
        "terminal_wealth": {
            name: s.terminal_wealth_stats for name, s in sorted(summaries.items())
        },
    }
    path = _track(written, outdir / F_SUMMARY)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_repro(cfg: ExperimentConfig, written: list) -> None:
    """Full chain: simulate -> solve -> rollout -> fit -> imitation rollout
    -> report, all from the configured seed."""
    cmd_simulate(cfg, written)
    cmd_solve(cfg, written)
    cmd_rollout(cfg, written)
    cmd_fit(cfg, written)

    # solve and roll out under the fitted parameters for imitation comparison
    outdir = cfg.outdir
    report = json.loads((outdir / F_GIRL_REPORT).read_text())
    theta_hat = report["theta"]
    fitted = RewardParams(
        lam=theta_hat["lam"], eta=theta_hat["eta"],
        rho=theta_hat["rho"], omega=theta_hat["omega"],
    )
    _, sigma, rbar_path = _load_market_inputs(cfg, outdir)
    bench = exponential_benchmark(
        cfg.reward.initial_wealth, cfg.reward.benchmark_rate,
        rbar_path.shape[0], cfg.market.dt,
    )
    prior = default_prior(rbar_path.shape[1], cfg.solver.sigma_p_scale)
    plan_hat = solve_plan(fitted, rbar_path, sigma, bench, prior, cfg.solver.config())
    storage.write_plan_npz(_track(written, outdir / F_PLAN_GIRL), plan_hat)
    # same RNG stream as the reference rollout: common random numbers make the
    # imitation comparison sharper
    _rollout_stage(cfg, written, F_PLAN_GIRL, F_TRAJ_GIRL, F_CASH_GIRL, stream=1)

    cmd_report(cfg, written)


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="gwealth", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, doc in (
        ("simulate", cmd_simulate, "simulate return panels and the residual covariance"),
        ("solve", cmd_solve, "solve the planning problem and store the policy"),
        ("rollout", cmd_rollout, "simulate the stored policy along realized paths"),
        ("fit", cmd_fit, "recover reward parameters from stored trajectories"),
        ("report", cmd_report, "compute performance metrics per strategy"),
        ("repro", cmd_repro, "run the whole pipeline from one seed"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override io.seed")
        p.add_argument("--outdir", type=str, default=None, help="override io.outdir")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    written: list[Path] = []
    try:
        cfg = load_config(args.config, seed=args.seed, outdir=args.outdir)
        cfg.outdir.mkdir(parents=True, exist_ok=True)
        args.func(cfg, written)
        return 0
    except ConfigError as exc:
        _cleanup(written)
        print(f"gwealth: error: {exc}", file=sys.stderr)
        return 2
    except (GWealthError, OSError) as exc:
        _cleanup(written)
        print(f"gwealth: error: {exc}", file=sys.stderr)
        return 1


def _cleanup(written: list[Path]) -> None:
    for path in written:
        try:
            path.unlink(missing_ok=True)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
