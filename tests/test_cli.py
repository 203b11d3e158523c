"""CLI and file-format tests on a miniature configuration."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from gwealth.cli import main
from gwealth.config import GirlSection, config_from_dict, load_config
from gwealth.errors import ConfigError
from gwealth.girl import FitConfig
from gwealth.glearner import Trajectory, solve_plan
from gwealth.storage import (
    read_matrix_csv,
    read_returns_csv,
    read_trajectories_csv,
    read_plan_npz,
    write_matrix_csv,
    write_plan_npz,
    write_returns_csv,
    write_trajectories_csv,
)

from conftest import random_problem


def tiny_config(outdir: Path, **girl_overrides) -> dict:
    girl = {"max_iters": 3, "learning_rate": 0.05}
    girl.update(girl_overrides)
    return {
        "market": {
            "n_risky": 3, "n_paths": 25, "horizon": 4,
            "sigma_i": 0.04, "sigma_m": 0.2,
        },
        "reward": {"lam": 0.01, "eta": 1.01, "rho": 0.4, "omega": 0.15,
                   "initial_wealth": 100.0},
        "solver": {"beta": 100.0, "sigma_p_scale": 3.0},
        "girl": girl,
        "io": {"outdir": str(outdir), "seed": 3},
    }


def write_config(tmp_path: Path, data: dict) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


class TestConfig:
    def test_defaults_match_reference_experiment(self):
        cfg = config_from_dict({})
        assert cfg.market.n_risky == 99
        assert cfg.market.n_paths == 1000
        assert cfg.solver.beta == 1000.0
        assert cfg.reward.lam == 0.001
        assert cfg.girl.learning_rate == 0.1

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"marquet": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"reward": {"lambda_": 0.1}})

    def test_invalid_value_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"reward": {"rho": 1.7}})

    def test_io_seed_flows_into_market(self):
        cfg = config_from_dict({"io": {"seed": 99}})
        assert cfg.market.seed == 99

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")

    def test_load_config_non_object_root(self, tmp_path):
        with pytest.raises(ConfigError, match="object"):
            load_config(write_config(tmp_path, [1, 2]))

    @pytest.mark.parametrize("key, value", [
        ("max_inner_iters", 100), ("inner_tol", 1e-9), ("omega_in_quu", False),
    ])
    def test_removed_solver_keys_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            config_from_dict({"solver": {key: value}})

    def test_girl_section_defaults_match_fit_config(self):
        assert GirlSection().fit_config() == FitConfig()

    @pytest.mark.parametrize("section, key, value", [
        ("solver", "beta", "x"), ("reward", "lam", True), ("reward", "rho", None),
        ("market", "n_paths", 2.5), ("market", "n_risky", True), ("market", "horizon", "30"),
        ("market", "exact_gbm", 1), ("market", "alpha_range", ["a", 0.1]),
        ("market", "beta_range", [False, 0.5]), ("girl", "max_iters", 10.0),
        ("io", "seed", "7"), ("io", "outdir", 5),
        ("market", "dt", float("nan")), ("reward", "initial_wealth", float("inf")),
    ])
    def test_wrong_type_rejected(self, section, key, value):
        with pytest.raises(ConfigError, match=f"{section}.{key}"):
            config_from_dict({section: {key: value}})

    def test_int_accepted_for_float(self):
        cfg = config_from_dict({"solver": {"beta": 10}, "market": {"price_range": [20, 120]}})
        assert cfg.solver.beta == 10.0 and type(cfg.solver.beta) is float
        assert cfg.market.price_range == (20.0, 120.0)


class TestStorageRoundTrip:
    def test_returns_panel(self, tmp_path, rng):
        panel = rng.normal(0.01, 0.05, size=(4, 3, 2))
        path = tmp_path / "r.csv"
        write_returns_csv(path, panel)
        assert np.array_equal(read_returns_csv(path), panel)
        header = path.read_text().splitlines()[0]
        assert header == "path,period,asset,value"

    def test_matrix(self, tmp_path, rng):
        m = rng.normal(size=(5, 5))
        m = m @ m.T
        path = tmp_path / "m.csv"
        write_matrix_csv(path, m)
        assert np.array_equal(read_matrix_csv(path), m)

    def test_trajectories(self, tmp_path, rng):
        trajs = []
        for _ in range(3):
            u = rng.normal(size=(4, 2))
            x = np.abs(rng.normal(10.0, 2.0, size=(5, 2)))
            cash = np.array([float(np.sum(u[t])) for t in range(4)])
            trajs.append(Trajectory(x=x, u=u, cash=cash))
        path = tmp_path / "t.csv"
        write_trajectories_csv(path, trajs)
        back = read_trajectories_csv(path)
        assert len(back) == 3
        for a, b in zip(trajs, back):
            assert np.array_equal(a.x, b.x)
            assert np.array_equal(a.u, b.u)
            assert np.array_equal(a.cash, b.cash)
        # views into one panel per field, no per-path copies
        for field in ("x", "u", "cash"):
            bases = {id(getattr(b, field).base) for b in back}
            assert len(bases) == 1 and getattr(back[0], field).base is not None

    def test_plan(self, tmp_path, rng):
        plan = solve_plan(*random_problem(rng, n=3, t_len=4))
        path = tmp_path / "plan.npz"
        write_plan_npz(path, plan)
        assert_same_arrays(read_plan_npz(path), plan, "plan")


def assert_same_arrays(got, want, where: str) -> None:
    """Every array and number reachable through dataclass fields and lists
    of ``want`` equals the one at the same place in ``got``, bit for bit."""
    if dataclasses.is_dataclass(want):
        for f in dataclasses.fields(want):
            assert_same_arrays(getattr(got, f.name), getattr(want, f.name), f"{where}.{f.name}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for t, (g, w) in enumerate(zip(got, want)):
            assert_same_arrays(g, w, f"{where}[{t}]")
    else:
        assert np.shape(got) == np.shape(want), where
        assert np.array_equal(got, want), where


class TestCliStages:
    def test_simulate_exit_zero_and_files(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_config(tmp_path / "out"))
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        for name in ("returns_expected.csv", "returns_realized.csv", "sigma_r.csv"):
            assert (tmp_path / "out" / name).exists()

    def test_full_pipeline_stage_by_stage(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_config(tmp_path / "out"))
        for cmd in ("simulate", "solve", "rollout", "fit", "report"):
            assert main([cmd, "--config", str(cfg_path)]) == 0, cmd
        out = tmp_path / "out"
        plan = read_plan_npz(out / "plan.npz")
        assert plan.horizon == 4 and plan.n_assets == 4
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["sharpe"]) == {"equal_weight", "glearner"}
        report = json.loads((out / "girl_report.json").read_text())
        assert set(report["theta"]) == {"lam", "eta", "rho", "omega"}
        assert report["iterations"] <= 3
        slices = (out / "loss_slices.csv").read_text().splitlines()
        assert slices[0] == "parameter,value,nll"
        assert len(slices) == 1 + 4 * 21
        # past the leading name column every field is a plain decimal number
        for name in ("loss_slices.csv", "performance.csv"):
            for row in (out / name).read_text().splitlines()[1:]:
                for field in row.split(",")[1:]:
                    float(field)

    def test_fit_without_trajectories_is_missing_input(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, tiny_config(tmp_path / "empty"))
        code = main(["fit", "--config", str(cfg_path)])
        assert code == 2
        assert "missing input" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_json_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text('{"solver": {"beta": 10.0,}')
        assert main(["simulate", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "error" in err and "JSON" in err

    def test_wrong_typed_config_value(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"solver": {"beta": "x"}})
        assert main(["simulate", "--config", str(cfg_path)]) == 2
        assert "solver.beta" in capsys.readouterr().err

    def test_invalid_config_key(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"reward": {"nope": 1}})
        assert main(["simulate", "--config", str(cfg_path)]) == 2
        assert "nope" in capsys.readouterr().err

    def test_partial_outputs_removed_on_failure(self, tmp_path, capsys):
        # covariance estimation fails on short samples after the panels were
        # written; the command must clean them up
        data = tiny_config(tmp_path / "out")
        data["market"].update({"n_risky": 30, "n_paths": 5, "horizon": 4})
        cfg_path = write_config(tmp_path, data)
        code = main(["simulate", "--config", str(cfg_path)])
        assert code == 1
        assert not (tmp_path / "out" / "returns_expected.csv").exists()
        assert not (tmp_path / "out" / "returns_realized.csv").exists()

    def test_plan_npz_roundtrip(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_config(tmp_path / "out"))
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        assert main(["solve", "--config", str(cfg_path)]) == 0
        plan = read_plan_npz(tmp_path / "out" / "plan.npz")
        assert np.isfinite(plan.policy.u_tilde).all()
        assert len(plan.q) == plan.horizon == 4


class TestRepro:
    def test_repro_runs_and_is_deterministic(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cfg_a = write_config(tmp_path, tiny_config(out_a))
        assert main(["repro", "--config", str(cfg_a)]) == 0
        assert main(["repro", "--config", str(cfg_a), "--outdir", str(out_b)]) == 0
        names = [
            "returns_expected.csv", "returns_realized.csv", "sigma_r.csv",
            "trajectories.csv", "cash.csv", "trajectories_girl.csv",
            "cash_girl.csv", "girl_report.json", "loss_slices.csv",
            "performance.csv", "summary.json",
        ]
        for name in names:
            a = (out_a / name).read_bytes()
            b = (out_b / name).read_bytes()
            assert a == b, f"{name} differs between identical repro runs"

    def test_repro_seed_flag_changes_outputs(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cfg = write_config(tmp_path, tiny_config(out_a))
        assert main(["repro", "--config", str(cfg)]) == 0
        assert main(["repro", "--config", str(cfg), "--seed", "11",
                     "--outdir", str(out_b)]) == 0
        assert (out_a / "cash.csv").read_bytes() != (out_b / "cash.csv").read_bytes()
