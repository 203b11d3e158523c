"""Command-line pipeline: simulate | solve | rollout | fit | report | repro.

Every stage reads a JSON config (defaults match the reference experiment)
and writes its artifacts as CSV/NPZ/JSON files in the configured output
directory.  Run on its own, a stage reads its inputs from the files of earlier
commands, so stages can be re-run independently; ``repro`` chains all stages
from one seed and passes each artifact to the next stage in memory.
Set GWEALTH_LOG=debug|info|warning for log verbosity.
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
from .errors import ConfigError, GWealthError, ShapeError
from .girl import FIT_START, GirlParams, fit, loss_slices
from .glearner import PolicyPrior, Trajectories, default_prior, rollout, solve_plan
from .market import ReturnCovariance, ReturnPaths, residual_covariance, simulate
from .metrics import equal_weight_baseline, performance_summary
from .rewards import BenchmarkPath, RewardParams, exponential_benchmark
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


SIMULATE_FIRST = "run `gwealth simulate` first"
ROLLOUT_FIRST = "run `gwealth rollout` first"


class _Run:
    """The artifacts of one command.  ``save`` writes a file, records it for
    removal if the command fails, and keeps the object in ``saved``;
    ``load`` returns the object an earlier stage of the same command saved,
    or else reads the file from ``io.outdir``.  Under ``repro`` every
    artifact is thus written once and parsed never, while a stage run on its
    own reads its inputs from the files of earlier commands."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.written: list[Path] = []
        self.saved: dict[str, object] = {}

    def save(self, name: str, writer, obj) -> None:
        path = self.cfg.outdir / name
        self.written.append(path)
        writer(path, obj)
        self.saved[name] = obj

    def load(self, name: str, reader, hint: str | None):
        """The artifact ``name``; a missing file is an error naming ``hint``,
        or None when ``hint`` is None (an optional input)."""
        if name in self.saved:
            return self.saved[name]
        path = self.cfg.outdir / name
        if path.exists():
            return reader(path)
        if hint is None:
            return None
        raise ConfigError(f"missing input: '{path}' ({hint})")


def _write_json(path: Path, payload: dict) -> None:
    # JSON has no NaN or Infinity: a non-finite number raises ValueError
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _rollout_rng(cfg: ExperimentConfig) -> np.random.Generator:
    # both rollouts draw the same stream: common random numbers make the
    # imitation comparison sharper
    return np.random.default_rng(np.random.SeedSequence(entropy=cfg.io.seed, spawn_key=(1,)))


def _benchmark(cfg: ExperimentConfig) -> BenchmarkPath:
    return exponential_benchmark(
        cfg.reward.initial_wealth, cfg.reward.benchmark_rate, cfg.market.horizon, cfg.market.dt
    )


def _check_size(cfg: ExperimentConfig, name: str, size: tuple, stage: str = "simulate") -> None:
    """Every stage sizes the problem from ``cfg.market``: a file whose (paths, periods,
    risky assets) ``size`` differs from it, on an axis that is not None, is an error."""
    for axis, key, got in zip(("paths", "periods", "risky assets"),
                              ("n_paths", "horizon", "n_risky"), size):
        want = getattr(cfg.market, key)
        if got is not None and got != want:
            raise ShapeError(f"'{cfg.outdir / name}' covers {got} {axis} but the config has "
                             f"market.{key} = {want}; re-run `gwealth {stage}`")


def _load_trajectories(run: _Run, name: str, hint: str | None, stage: str) -> Trajectories | None:
    """The trajectory file ``name`` (None if it is optional and missing), sized by the config."""
    trajs = run.load(name, storage.read_trajectories_csv, hint)
    if trajs is not None:
        m, t_len, n = trajs.u.shape
        _check_size(run.cfg, name, (m, t_len, n - 1), stage)
    return trajs


def _market_inputs(run: _Run) -> tuple[ReturnCovariance, np.ndarray]:
    """Sigma_r and the (T, N) expected-return path of the solver and the
    likelihood: the bond's period rate, then the cross-path mean of the
    expected-return panel."""
    expected = run.load(F_EXPECTED, storage.read_returns_csv, SIMULATE_FIRST)
    _check_size(run.cfg, F_EXPECTED, expected.shape)
    sigma = ReturnCovariance(run.load(F_SIGMA, storage.read_matrix_csv, SIMULATE_FIRST))
    _check_size(run.cfg, F_SIGMA, (None, None, sigma.n_risky))
    bond = np.full((expected.shape[1], 1), run.cfg.rf_period)
    return sigma, np.concatenate([bond, expected.mean(axis=0)], axis=1)


def _realized_paths(run: _Run) -> ReturnPaths:
    realized = run.load(F_REALIZED, storage.read_returns_csv, SIMULATE_FIRST)
    _check_size(run.cfg, F_REALIZED, realized.shape)
    return ReturnPaths(expected=realized, realized=realized,
                       market=np.zeros(realized.shape[:2]))


def _prior(cfg: ExperimentConfig) -> PolicyPrior:
    """The policy prior of the solve stages and of the likelihood."""
    return default_prior(cfg.market.n_risky + 1, cfg.solver.sigma_p_scale)


def _girl_params(cfg: ExperimentConfig, sigma: ReturnCovariance,
                 reward: RewardParams) -> GirlParams:
    prior = _prior(cfg)
    return GirlParams(reward=reward, sigma_r=sigma, sigma_p=prior.sigma_p, u_bar=prior.u_bar,
                      beta=cfg.solver.beta, gamma=cfg.solver.gamma,
                      benchmark=_benchmark(cfg))


def _x0(cfg: ExperimentConfig) -> np.ndarray:
    n = cfg.market.n_risky + 1
    return np.full(n, cfg.reward.initial_wealth / n)


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def cmd_simulate(run: _Run) -> None:
    market = run.cfg.market
    logger.info("simulating %d paths x %d periods x %d assets",
                market.n_paths, market.horizon, market.n_risky)
    paths = simulate(market)
    run.save(F_EXPECTED, storage.write_returns_csv, paths.expected)
    run.save(F_REALIZED, storage.write_returns_csv, paths.realized)
    # may fail on short samples; the partially written panels are then removed
    sigma = residual_covariance(paths)
    run.save(F_SIGMA, storage.write_matrix_csv, sigma.sigma_r)


def _solve_stage(run: _Run, reward: RewardParams, plan_file: str) -> None:
    cfg = run.cfg
    sigma, rbar_path = _market_inputs(run)
    logger.info("solving plan for %d periods, %d assets", *rbar_path.shape)
    policy = solve_plan(reward, rbar_path, sigma, _benchmark(cfg), _prior(cfg), cfg.solver)
    run.save(plan_file, storage.write_plan_npz, policy)


def cmd_solve(run: _Run) -> None:
    _solve_stage(run, run.cfg.reward.params(), F_PLAN)


def _rollout_stage(run: _Run, plan_file: str, traj_file: str, cash_file: str) -> None:
    policy = run.load(plan_file, storage.read_plan_npz, "run `gwealth solve` first")
    trajs = rollout(policy, _realized_paths(run), _x0(run.cfg), _rollout_rng(run.cfg))
    run.save(traj_file, storage.write_trajectories_csv, trajs)
    run.save(cash_file, storage.write_cash_csv, trajs)


def cmd_rollout(run: _Run) -> None:
    _rollout_stage(run, F_PLAN, F_TRAJ, F_CASH)


def cmd_fit(run: _Run) -> None:
    cfg = run.cfg
    sigma, rbar_path = _market_inputs(run)
    trajs = _load_trajectories(run, F_TRAJ, ROLLOUT_FIRST, "rollout")
    theta0 = _girl_params(cfg, sigma, FIT_START)
    logger.info("fitting reward parameters from %d trajectories", len(trajs))
    report = fit(trajs, rbar_path, theta0, cfg.girl)
    logger.info("fit stopped (%s) after %d iterations and %d solves, Newton decrement "
                "%.3g nats", report.stop_reason, report.iterations, report.solves,
                report.decrement)
    fitted = report.params.reward
    payload = {
        "theta": {
            "lam": fitted.lam, "eta": fitted.eta,
            "rho": fitted.rho, "omega": float(fitted.omega),
        },
        "loss_path": [float(v) for v in report.loss_path],
        "iterations": report.iterations,
        "solves": report.solves,
        "converged": report.converged,
        "stop_reason": report.stop_reason,
        "newton_decrement": report.decrement if np.isfinite(report.decrement) else None,
    }
    run.save(F_GIRL_REPORT, _write_json, payload)
    slices = loss_slices(report.params.with_reward(cfg.reward.params()), trajs, rbar_path)
    run.save(F_SLICES, storage.write_slices_csv, slices)


def cmd_report(run: _Run) -> None:
    cfg = run.cfg
    paths = _realized_paths(run)
    strategies = {
        "glearner": _load_trajectories(run, F_TRAJ, ROLLOUT_FIRST, "rollout"),
        "equal_weight": equal_weight_baseline(
            paths, _x0(cfg), cfg.market.r_f, cfg.market.dt
        ),
    }
    girl = _load_trajectories(run, F_TRAJ_GIRL, None, "repro")
    if girl is not None:
        strategies["girl"] = girl

    reward = cfg.reward.params()
    bench = _benchmark(cfg)
    summaries = {
        name: performance_summary(trajs, cfg.market.r_f, cfg.market.dt,
                                  params=reward, benchmark=bench)
        for name, trajs in strategies.items()
    }
    run.save(F_PERF, storage.write_performance_csv,
             {name: s.mean_returns for name, s in summaries.items()})
    run.save(F_SUMMARY, _write_json, {
        "sharpe": {name: s.sharpe for name, s in sorted(summaries.items())},
        "terminal_wealth": {
            name: s.terminal_wealth_stats for name, s in sorted(summaries.items())
        },
    })


def cmd_repro(run: _Run) -> None:
    """Full chain: simulate -> solve -> rollout -> fit -> imitation solve and
    rollout -> report, all from the configured seed.  Each stage writes its
    artifacts once and hands them to the next stage in memory."""
    cmd_simulate(run)
    cmd_solve(run)
    cmd_rollout(run)
    cmd_fit(run)
    # solve and roll out under the fitted parameters for imitation comparison
    fitted = RewardParams(**run.saved[F_GIRL_REPORT]["theta"])
    _solve_stage(run, fitted, F_PLAN_GIRL)
    _rollout_stage(run, F_PLAN_GIRL, F_TRAJ_GIRL, F_CASH_GIRL)
    cmd_report(run)


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
    run = None
    try:
        cfg = load_config(args.config, seed=args.seed, outdir=args.outdir)
        cfg.outdir.mkdir(parents=True, exist_ok=True)
        run = _Run(cfg)
        args.func(run)
        return 0
    except (GWealthError, OSError) as exc:
        if run is not None:
            _cleanup(run.written)
        print(f"gwealth: error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


def _cleanup(written: list[Path]) -> None:
    for path in written:
        try:
            path.unlink(missing_ok=True)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
