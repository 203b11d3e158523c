"""The benchmark's workloads: how each makes its inputs, runs its operation
and checks the outputs.

Every workload is a closed batch job: ``setup`` makes the inputs from the
seed, ``run`` is the one timed operation, and ``checks`` compares the outputs
with computations made apart from gwealth, or with properties the method
must have.  ``checks`` returns ``{check name: None if it holds, else a
message}``; ``corruptions`` (used by the self-test) maps each check name to a
function ``(inputs, outputs) -> (inputs, outputs)`` that breaks a copy of
them in the way that check must catch (repro's edit the files of a copied
output directory in place).

gwealth is reached through module attributes at call time (``market.simulate``
rather than a name bound at import), so the tracer's wrappers are the ones
called.
"""

from __future__ import annotations

import copy
import csv
import json
import math
import shutil
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from gwealth import cli, config, girl, glearner, market, metrics, rewards

TRUTH = rewards.RewardParams(lam=0.001, eta=1.01, rho=0.4, omega=0.15)
START_SCALE = 2.0
# |fitted - truth| the fit must reach within its budget on every seed: half the
# starting distance for lam, rho and omega, and criterion 1's tolerance for eta,
# whose start (1.02) is already inside it.  Criterion 1's own tolerances (lam
# 2e-4, rho 0.05, omega 0.01) are not reached within a fixed budget on every
# market, so they are reported in CHANGES.md rather than checked.
RECOVERY = {"lam": 5e-4, "eta": 0.12, "rho": 0.2, "omega": 0.075}
INITIAL_WEALTH = 1000.0
BENCH_RATE = 0.5
SIGMA_P_SCALE = 10.0
N_SE = 5.0  # Monte-Carlo checks allow this many standard errors


@dataclass(frozen=True)
class Shape:
    n_risky: int
    horizon: int
    n_paths: int
    max_iters: int = 0       # fit budget (Adam iterations)
    calib_paths: int = 0     # montecarlo: paths of the market the plan is solved on
    setup_repeats: int = 3   # set-ups per run; setup_s is their median


SHAPES = {
    "repro": {"reference": Shape(99, 30, 100, max_iters=2, setup_repeats=10001),
              "mini": Shape(4, 8, 60, max_iters=2, setup_repeats=3)},
    "fit": {"reference": Shape(19, 30, 1000, max_iters=250, setup_repeats=9),
            "mini": Shape(3, 6, 400, max_iters=150, setup_repeats=1)},
    "montecarlo": {"reference": Shape(9, 30, 20000, calib_paths=4000, setup_repeats=25),
                   "mini": Shape(3, 8, 2000, calib_paths=1000, setup_repeats=1)},
}


def _rollout_rng(seed: int) -> np.random.Generator:
    # the stream `gwealth repro` uses for the reference rollout
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))


def _rbar(spec: market.MarketSpec, paths: market.ReturnPaths) -> np.ndarray:
    return np.concatenate([np.full((spec.horizon, 1), spec.r_f * spec.dt),
                           market.mean_expected_returns(paths)], axis=1)


def _benchmark(spec: market.MarketSpec) -> rewards.BenchmarkPath:
    return rewards.exponential_benchmark(INITIAL_WEALTH, BENCH_RATE, spec.horizon, spec.dt)


def _x0(n_assets: int) -> np.ndarray:
    return np.full(n_assets, INITIAL_WEALTH / n_assets)


def _failed(ok: bool, message: str) -> str | None:
    return None if ok else message


# ---------------------------------------------------------------------------
# independent recomputations shared by the checks (numpy only)
# ---------------------------------------------------------------------------

def _dynamics_error(x: np.ndarray, u: np.ndarray, realized: np.ndarray,
                    bond_rate: float) -> float:
    """Largest relative violation of x[t+1] = (1 + r_t) * (x_t + u_t)."""
    gross = np.concatenate(
        [np.full(realized.shape[:2] + (1,), 1.0 + bond_rate), 1.0 + realized], axis=2)
    pred = gross * (x[:, :-1] + u)
    return float(np.max(np.abs(x[:, 1:] - pred) / np.maximum(np.abs(pred), 1.0)))


def _budget_error(u: np.ndarray, cash: np.ndarray) -> float:
    """Largest violation of c_t = sum(u_t), relative to sum(|u_t|)."""
    return float(np.max(np.abs(cash - u.sum(axis=2)) / np.maximum(np.abs(u).sum(axis=2), 1.0)))


def _sharpe(x: np.ndarray, u: np.ndarray, bond_rate: float, dt: float) -> float:
    """Annualized Sharpe of time-weighted returns pooled over paths and periods."""
    wealth = x.sum(axis=2)
    base = wealth[:, :-1] + u.sum(axis=2)
    excess = ((wealth[:, 1:] - base) / base).ravel() - bond_rate
    return float(excess.mean() / excess.std(ddof=1) * math.sqrt(1.0 / dt))


def _close(a: float, b: float, rtol: float = 1e-9) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def _stack(trajs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return (np.stack([t.x for t in trajs]), np.stack([t.u for t in trajs]),
            np.stack([t.cash for t in trajs]))


# ---------------------------------------------------------------------------
# repro: the whole `gwealth repro` chain through its files
# ---------------------------------------------------------------------------

@dataclass
class ReproInputs:
    config_text: str
    config_path: Path
    cfg: config.ExperimentConfig


class Repro:
    """`gwealth repro` at the reference market shape with a short fit budget."""

    def __init__(self, shape: Shape, workdir: Path):
        self.shape = shape
        self.workdir = workdir

    def setup(self, seed: int) -> ReproInputs:
        s = self.shape
        raw = {
            "market": {"n_risky": s.n_risky, "horizon": s.horizon, "n_paths": s.n_paths},
            "girl": {"max_iters": s.max_iters},
            "io": {"outdir": str(self.workdir / "out"), "seed": seed},
        }
        # made and validated in memory: file-system latency on a shared disk
        # varies far more than this work, so the file is written by `run`
        text = json.dumps(raw, indent=2) + "\n"
        return ReproInputs(config_text=text, config_path=self.workdir / "config.json",
                           cfg=config.config_from_dict(json.loads(text)))

    def run(self, inp: ReproInputs) -> Path:
        self.workdir.mkdir(parents=True, exist_ok=True)
        inp.config_path.write_text(inp.config_text)
        code = cli.main(["repro", "--config", str(inp.config_path)])
        if code != 0:
            raise RuntimeError(f"gwealth repro exited with code {code}")
        return inp.cfg.outdir

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def checks(self, inp: ReproInputs, outdir: Path) -> dict[str, str | None]:
        cfg = inp.cfg
        dt = cfg.market.dt
        bond = cfg.market.r_f * dt
        expected = _read_panel(outdir / cli.F_EXPECTED, 3)[..., 0]
        realized = _read_panel(outdir / cli.F_REALIZED, 3)[..., 0]
        sigma = _read_panel(outdir / cli.F_SIGMA, 2)[..., 0]
        out: dict[str, str | None] = {}

        dyn, bud, runs = [], [], {}
        for tag, traj_f, cash_f in (("glearner", cli.F_TRAJ, cli.F_CASH),
                                    ("girl", cli.F_TRAJ_GIRL, cli.F_CASH_GIRL)):
            xu = _read_panel(outdir / traj_f, 3)
            x, u = xu[..., 0], xu[:, :-1, :, 1]
            cash = _read_panel(outdir / cash_f, 2)[..., 0]
            runs[tag] = (x, u, cash)
            dyn.append(_dynamics_error(x, u, realized, bond))
            bud.append(_budget_error(u, cash))
        out["trajectory_dynamics"] = _failed(
            max(dyn) <= 1e-12, f"x[t+1] != (1 + r_t)(x_t + u_t): relative error {max(dyn):.3g}")
        out["cash_budget"] = _failed(
            max(bud) <= 1e-12, f"cash != row sums of u: relative error {max(bud):.3g}")

        resid = (realized - expected).reshape(-1, expected.shape[2])
        centred = resid - resid.mean(axis=0)
        sample = centred.T @ centred / (resid.shape[0] - 1)
        err = float(np.max(np.abs(sigma - sample)))
        out["sigma_r_sample_cov"] = _failed(
            err <= 1e-6 * float(np.max(np.abs(sample))),
            f"sigma_r.csv differs from the residual sample covariance by {err:.3g}")

        n_assets = expected.shape[2] + 1
        gross = np.concatenate(
            [np.full(realized.shape[:2] + (1,), 1.0 + bond), 1.0 + realized], axis=2)
        x_eq = _x0(n_assets) * np.concatenate(
            [np.ones(gross.shape[:1] + (1, n_assets)), np.cumprod(gross, axis=1)], axis=1)
        runs["equal_weight"] = (x_eq, np.zeros(realized.shape[:2] + (n_assets,)), None)
        summary = json.loads((outdir / cli.F_SUMMARY).read_text())
        bad = []
        for tag, (x, u, _) in runs.items():
            if not _close(summary["sharpe"][tag], _sharpe(x, u, bond, dt)):
                bad.append(f"{tag} Sharpe {summary['sharpe'][tag]!r}")
            if not _close(summary["terminal_wealth"][tag]["mean"], float(x[:, -1].sum(axis=1).mean())):
                bad.append(f"{tag} terminal wealth")
        out["summary_sharpe"] = _failed(not bad, "summary.json disagrees: " + ", ".join(bad))

        slices = _read_slices(outdir / cli.F_SLICES)
        off = {name: int(np.argmin(v)) - len(v) // 2 for name, v in slices.items()}
        out["loss_slices_centre"] = _failed(
            len(off) == 4 and all(abs(d) <= 1 for d in off.values()),
            f"slice minima off the grid centre: {off}")

        mean_cash = runs["glearner"][2].mean(axis=0)
        out["installments_nonneg"] = _failed(
            bool((mean_cash >= 0.0).all()),
            f"{int((mean_cash < 0).sum())} periods with a negative mean installment")
        return out

    @staticmethod
    def corruptions() -> dict:
        def edit(name, change):
            def corrupt(inp, outdir: Path):
                rows = [r.split(",") for r in (outdir / name).read_text().splitlines()]
                change(rows)
                (outdir / name).write_text("\n".join(",".join(r) for r in rows) + "\n")
                return inp, outdir
            return corrupt

        def bump(row, col):
            def change(rows):
                rows[row][col] = repr(float(rows[row][col]) * 1.001 + 1e-3)
            return change

        def last_rho_lowest(rows):
            rho = [r for r in rows[1:] if r[0] == "rho"]
            max(rho, key=lambda r: _float(r[1]))[2] = repr(-1e30)

        def first_period_withdrawal(rows):
            for r in rows[1:]:
                if r[1] == "0":
                    r[2] = repr(-1e9)

        def sharpe(inp, outdir: Path):
            s = json.loads((outdir / cli.F_SUMMARY).read_text())
            s["sharpe"]["glearner"] *= 1.001
            (outdir / cli.F_SUMMARY).write_text(json.dumps(s))
            return inp, outdir

        return {
            "trajectory_dynamics": edit(cli.F_TRAJ, bump(40, 3)),
            "cash_budget": edit(cli.F_CASH_GIRL, bump(5, 2)),
            "sigma_r_sample_cov": edit(cli.F_SIGMA, bump(2, 2)),
            "summary_sharpe": sharpe,
            "loss_slices_centre": edit(cli.F_SLICES, last_rho_lowest),
            "installments_nonneg": edit(cli.F_CASH, first_period_withdrawal),
        }


def _read_panel(path: Path, n_index: int) -> np.ndarray:
    """Parse a dense long-format CSV whose index columns count up in row-major
    order; returns the value columns reshaped to the index extents."""
    raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    idx = raw[:, :n_index].astype(np.int64)
    idx -= idx.min(axis=0)
    dims = tuple(int(d) + 1 for d in idx.max(axis=0))
    order = np.stack(np.unravel_index(np.arange(raw.shape[0]), dims), axis=1)
    if raw.shape[0] != math.prod(dims) or not np.array_equal(idx, order):
        raise ValueError(f"'{path}' is not a dense row-major panel")
    return raw[:, n_index:].reshape(dims + (raw.shape[1] - n_index,))


def _float(text: str) -> float:
    # under numpy 2, `gwealth fit` writes numpy scalars as "np.float64(...)"
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def _read_slices(path: Path) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    out: dict[str, list] = {}
    for r in rows:
        out.setdefault(r["parameter"], []).append((_float(r["value"]), _float(r["nll"])))
    return {k: np.array([v for _, v in sorted(pairs)]) for k, pairs in out.items()}


# ---------------------------------------------------------------------------
# fit: girl.fit on in-memory trajectories, to criterion-1 accuracy
# ---------------------------------------------------------------------------

@dataclass
class FitInputs:
    trajs: list
    rbar: np.ndarray
    theta0: girl.GirlParams
    cfg: girl.FitConfig


class Fit:
    """Reward inference from a planner's trajectories, from twice the truth."""

    def __init__(self, shape: Shape, workdir: Path):
        self.shape = shape

    def setup(self, seed: int) -> FitInputs:
        s = self.shape
        spec = market.MarketSpec(n_risky=s.n_risky, horizon=s.horizon, n_paths=s.n_paths,
                                 seed=seed)
        paths = market.simulate(spec)
        sigma = market.residual_covariance(paths)
        rbar = _rbar(spec, paths)
        bench = _benchmark(spec)
        prior = glearner.default_prior(s.n_risky + 1, SIGMA_P_SCALE)
        plan = glearner.solve_plan(TRUTH, rbar, sigma, bench, prior, glearner.SolverConfig())
        trajs = glearner.rollout(plan, paths, _x0(s.n_risky + 1), _rollout_rng(seed))
        theta0 = girl.GirlParams(
            reward=girl.scaled_start(TRUTH, START_SCALE), sigma_r=sigma, sigma_p=prior.sigma_p,
            u_bar=np.zeros(s.n_risky + 1), beta=1000.0, gamma=0.95, benchmark=bench,
        )
        return FitInputs(trajs=trajs, rbar=rbar, theta0=theta0,
                         cfg=girl.FitConfig(max_iters=s.max_iters))

    def run(self, inp: FitInputs) -> girl.FitReport:
        return girl.fit(inp.trajs, inp.rbar, inp.theta0, inp.cfg)

    def cleanup(self) -> None:
        pass

    def checks(self, inp: FitInputs, report: girl.FitReport) -> dict[str, str | None]:
        fitted = report.params.reward
        errs = {k: abs(float(getattr(fitted, k)) - float(getattr(TRUTH, k))) for k in RECOVERY}
        out = {"theta_recovered": _failed(
            all(errs[k] <= tol for k, tol in RECOVERY.items()),
            "fitted reward too far from the generating one: " + ", ".join(
                f"{k} err {errs[k]:.3g} (limit {tol:g})" for k, tol in RECOVERY.items()))}
        stats = girl.prepare_stats(inp.trajs, inp.rbar, inp.theta0.sigma_r)
        nll_hat = girl.nll_from_stats(report.params, stats, inp.rbar)
        nll_0 = girl.nll_from_stats(inp.theta0, stats, inp.rbar)
        out["nll_decreased"] = _failed(
            nll_hat < nll_0, f"NLL at the fit {nll_hat!r} not below the start {nll_0!r}")
        best = float(np.min(report.loss_path))
        out["best_of_path"] = _failed(
            _close(nll_hat, best, 1e-12),
            f"NLL at the fit {nll_hat!r} is not the lowest loss seen {best!r}")
        return out

    @staticmethod
    def corruptions() -> dict:
        def omega_off(inp, report):
            omega = float(TRUTH.omega) + 2.0 * RECOVERY["omega"]
            return inp, replace(report, params=report.params.with_reward(
                replace(report.params.reward, omega=omega)))

        def worse_loss_path(inp, report):
            return inp, replace(report, loss_path=report.loss_path - 1.0)

        def start_returned(inp, report):
            return inp, replace(report, params=inp.theta0)

        return {"theta_recovered": omega_off,
                "nll_decreased": start_returned,
                "best_of_path": worse_loss_path}


# ---------------------------------------------------------------------------
# montecarlo: scenario analysis of a solved plan, in memory
# ---------------------------------------------------------------------------

@dataclass
class McInputs:
    spec: market.MarketSpec
    calib: market.ReturnPaths
    sigma: market.ReturnCovariance
    plan: glearner.SolvedPlan
    bench: rewards.BenchmarkPath
    x0: np.ndarray
    seed: int


@dataclass
class McOutputs:
    paths: market.ReturnPaths
    trajs: list
    baseline: list
    plan_summary: metrics.PerformanceSummary
    baseline_summary: metrics.PerformanceSummary


class MonteCarlo:
    """A plan solved on a calibration sample, rolled out over many scenarios."""

    def __init__(self, shape: Shape, workdir: Path):
        self.shape = shape

    def setup(self, seed: int) -> McInputs:
        s = self.shape
        spec = market.MarketSpec(n_risky=s.n_risky, horizon=s.horizon, n_paths=s.n_paths,
                                 seed=seed)
        calib = market.simulate(replace(spec, n_paths=s.calib_paths))
        sigma = market.residual_covariance(calib)
        bench = _benchmark(spec)
        prior = glearner.default_prior(s.n_risky + 1, SIGMA_P_SCALE)
        plan = glearner.solve_plan(TRUTH, _rbar(spec, calib), sigma, bench, prior,
                                   glearner.SolverConfig())
        return McInputs(spec=spec, calib=calib, sigma=sigma, plan=plan, bench=bench,
                        x0=_x0(s.n_risky + 1), seed=seed)

    def run(self, inp: McInputs) -> McOutputs:
        spec = inp.spec
        paths = market.simulate(spec)
        trajs = glearner.rollout(inp.plan, paths, inp.x0, _rollout_rng(inp.seed))
        baseline = metrics.equal_weight_baseline(paths, inp.x0, spec.r_f, spec.dt)
        return McOutputs(
            paths=paths, trajs=trajs, baseline=baseline,
            plan_summary=metrics.performance_summary(
                trajs, spec.r_f, spec.dt, params=TRUTH, benchmark=inp.bench),
            baseline_summary=metrics.performance_summary(
                baseline, spec.r_f, spec.dt, params=TRUTH, benchmark=inp.bench),
        )

    def cleanup(self) -> None:
        pass

    def checks(self, inp: McInputs, out: McOutputs) -> dict[str, str | None]:
        spec = inp.spec
        dt, bond = spec.dt, spec.r_f * spec.dt
        paths = out.paths
        res: dict[str, str | None] = {}

        r = paths.realized.reshape(-1, paths.n_risky)
        mean_theory = paths.alpha + paths.beta * spec.mu_m * dt
        z = np.abs(r.mean(axis=0) - mean_theory) / (r.std(axis=0, ddof=1) / math.sqrt(r.shape[0]))
        res["return_means"] = _failed(
            bool(z.max() <= N_SE),
            f"asset mean returns {z.max():.2f} standard errors from alpha + beta mu_m dt")

        beta = inp.calib.beta
        cov = (np.outer(beta, beta) * spec.sigma_m**2 * dt
               + np.diag(spec.sigma_i**2 * (1.0 - beta**2) * dt))
        n = inp.calib.n_paths * inp.calib.horizon
        se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / n)
        zc = float(np.max(np.abs(inp.sigma.sigma_r - cov) / se))
        res["residual_covariance"] = _failed(
            zc <= N_SE, f"residual covariance {zc:.2f} standard errors from the factor model")

        x, u, cash = _stack(out.trajs)
        dyn = _dynamics_error(x, u, paths.realized, bond)
        bud = _budget_error(u, cash)
        res["trajectory_dynamics"] = _failed(
            dyn <= 1e-12 and bud <= 1e-12,
            f"dynamics error {dyn:.3g}, budget error {bud:.3g}")

        gross = np.concatenate(
            [np.full(paths.realized.shape[:2] + (1,), 1.0 + bond), 1.0 + paths.realized], axis=2)
        terminal = (inp.x0 * np.prod(gross, axis=1)).sum(axis=1)
        got = np.array([t.x[-1].sum() for t in out.baseline])
        err = float(np.max(np.abs(got - terminal) / terminal))
        res["baseline_terminal"] = _failed(
            err <= 1e-12, f"equal-weight terminal wealth off x0 * prod(1 + r) by {err:.3g}")

        bad = []
        for tag, trajs, summ in (("plan", out.trajs, out.plan_summary),
                                 ("baseline", out.baseline, out.baseline_summary)):
            xs, us, _ = _stack(trajs)
            wealth = xs.sum(axis=2)
            target = ((1.0 - TRUTH.rho) * inp.bench.b
                      + TRUTH.rho * TRUTH.eta * wealth[:, :-1])
            shortfall = np.maximum(target - wealth[:, 1:], 0.0).mean(axis=0)
            if not _close(summ.sharpe, _sharpe(xs, us, bond, dt)):
                bad.append(f"{tag} Sharpe")
            if not _close(summ.terminal_wealth_stats["mean"], float(wealth[:, -1].mean())):
                bad.append(f"{tag} terminal mean")
            if not np.allclose(summ.shortfall, shortfall, rtol=1e-9, atol=1e-9):
                bad.append(f"{tag} shortfall")
        res["summaries"] = _failed(not bad, "performance summaries disagree: " + ", ".join(bad))
        return res

    @staticmethod
    def corruptions() -> dict:
        def realized(inp, out):
            panel = out.paths.realized.copy()
            panel[:, :, 0] += 0.05
            return inp, replace(out, paths=replace(out.paths, realized=panel))

        def covariance(inp, out):
            s = inp.sigma.sigma_r.copy()
            s[0, 0] *= 1.5
            return replace(inp, sigma=market.ReturnCovariance(sigma_r=s)), out

        def trajectory(inp, out):
            trajs = copy.deepcopy(out.trajs)
            trajs[3].x[5, 2] += 1.0
            return inp, replace(out, trajs=trajs)

        def baseline(inp, out):
            base = copy.deepcopy(out.baseline)
            base[0].x[-1, 1] *= 1.01
            return inp, replace(out, baseline=base)

        def summary(inp, out):
            return inp, replace(out, plan_summary=replace(
                out.plan_summary, sharpe=out.plan_summary.sharpe * 1.001))

        return {"return_means": realized, "residual_covariance": covariance,
                "trajectory_dynamics": trajectory, "baseline_terminal": baseline,
                "summaries": summary}


WORKLOADS = {"repro": Repro, "fit": Fit, "montecarlo": MonteCarlo}


def make(name: str, scale: str, workdir: Path):
    return WORKLOADS[name](SHAPES[name][scale], workdir)
