"""CLI and file-format tests on a miniature configuration."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

import gwealth
from gwealth import cli, storage
from gwealth.cli import main
from gwealth.config import config_from_dict, load_config
from gwealth.errors import ConfigError, ShapeError
from gwealth.girl import (
    FIT_START, FitConfig, nll_from_stats, pack_reward, prepare_stats, unpack_reward,
)
from gwealth.glearner import (
    GaussianPolicy, Trajectories, Trajectory, backward_pass, rollout, solve_plan,
)
from gwealth.rewards import reward_basis
from gwealth.storage import (
    read_matrix_csv,
    read_returns_csv,
    read_trajectories_csv,
    read_plan_npz,
    write_cash_csv,
    write_matrix_csv,
    write_performance_csv,
    write_plan_npz,
    write_returns_csv,
    write_slices_csv,
    write_trajectories_csv,
)

from conftest import batch, random_problem
from test_glearner import market_plan


def tiny_config(outdir: Path, **girl_overrides) -> dict:
    girl = {"max_iters": 3}
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
        assert cfg.girl.max_iters == 1000

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

    @pytest.mark.parametrize("key, value", [
        ("learning_rate", 0.1), ("adam_beta1", 0.9), ("adam_beta2", 0.999),
        ("adam_eps", 1e-8), ("fd_step", 1e-5), ("theta0_scale", 2.0), ("stop_tol", 1e-4),
    ])
    def test_removed_girl_keys_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            config_from_dict({"girl": {key: value}})

    def test_girl_section_defaults_match_fit_config(self):
        girl = config_from_dict({}).girl
        assert isinstance(girl, FitConfig)
        for f in dataclasses.fields(FitConfig):
            assert getattr(girl, f.name) == getattr(FitConfig(), f.name), f.name

    @pytest.mark.parametrize("section, key, value", [
        ("solver", "beta", "x"), ("reward", "lam", True), ("reward", "rho", None),
        ("market", "n_paths", 2.5), ("market", "n_risky", True), ("market", "horizon", "30"),
        ("market", "oracle_c", [0.2]), ("market", "alpha_range", ["a", 0.1]),
        ("market", "beta_range", [False, 0.5]), ("girl", "max_iters", 10.0),
        ("io", "seed", "7"), ("io", "outdir", 5),
        ("market", "dt", float("nan")), ("reward", "initial_wealth", float("inf")),
    ])
    def test_wrong_type_rejected(self, section, key, value):
        with pytest.raises(ConfigError, match=f"{section}.{key}"):
            config_from_dict({section: {key: value}})

    @pytest.mark.parametrize("section, key, value", [
        ("solver", "sigma_p_scale", -3.0), ("solver", "sigma_p_scale", 0.0),
        # girl.theta0_scale is gone: every value of it is an unknown key
        ("girl", "theta0_scale", -1.0), ("girl", "theta0_scale", 0.0),
        ("girl", "theta0_scale", 1.0),
        # girl.stop_tol is the constant girl.STOP_TOL: every value of it is an unknown key
        ("girl", "max_iters", 0), ("girl", "stop_tol", 0.0), ("reward", "initial_wealth", 0.0),
        ("reward", "initial_wealth", -100.0),
    ])
    def test_out_of_range_rejected(self, section, key, value):
        with pytest.raises(ConfigError, match=key):
            config_from_dict({section: {key: value}})

    def test_int_accepted_for_float(self):
        cfg = config_from_dict({"solver": {"beta": 10}, "market": {"alpha_range": [-1, 2]}})
        assert cfg.solver.beta == 10.0 and type(cfg.solver.beta) is float
        assert cfg.market.alpha_range == (-1.0, 2.0)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range_is_a_config_error(self, tmp_path, capsys, seed):
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict({"io": {"seed": seed}})
        assert main(["simulate", "--seed", str(seed), "--outdir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("gwealth: error:") and "seed" in err
        assert "Traceback" not in err
        assert config_from_dict({"io": {"seed": 2**64 - 1}}).market.seed == 2**64 - 1

    def test_market_seed_rejected(self):
        # io.seed is the only seed; market.seed overrode it for the simulation alone
        with pytest.raises(ConfigError, match="unknown key.*seed"):
            config_from_dict({"market": {"seed": 3}, "io": {"seed": 5}})

    @pytest.mark.parametrize("section, key, value", [
        ("market", "exact_gbm", 1), ("girl", "stop_tol", 1e-4),
    ])
    def test_removed_key_exits_2(self, tmp_path, capsys, section, key, value):
        # each had one value in use: the arithmetic market increments and girl.STOP_TOL
        cfg_path = write_config(tmp_path, {section: {key: value},
                                           "io": {"outdir": str(tmp_path / "out")}})
        assert main(["simulate", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"gwealth: error: unknown key(s) in section '{section}': {key}")
        assert not (tmp_path / "out").exists()

    def test_removed_market_key_rejected(self):
        # price_range drew initial prices that nothing read: an unknown key (exit 2)
        with pytest.raises(ConfigError, match="unknown key.*price_range"):
            config_from_dict({"market": {"price_range": [20, 120]}})

    def test_public_names_resolve(self):
        namespace = {}
        exec("from gwealth import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == sorted(gwealth.__all__)
        for name in gwealth.__all__:
            assert namespace[name] is getattr(gwealth, name)


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
            trajs.append(Trajectory(x=x, u=u))
        path = tmp_path / "t.csv"
        write_trajectories_csv(path, batch(trajs))
        back = read_trajectories_csv(path)
        assert len(back) == 3
        for a, b in zip(trajs, back):
            assert np.array_equal(a.x, b.x)
            assert np.array_equal(a.u, b.u)
            assert np.array_equal(a.cash, b.cash)
        # views into one panel per field, no per-path copies
        for field in ("x", "u"):
            bases = {id(getattr(b, field).base) for b in back}
            assert len(bases) == 1 and getattr(back[0], field).base is not None

    def test_plan(self, tmp_path, rng):
        plan = solve_plan(*random_problem(rng, n=3, t_len=4))
        path = tmp_path / "plan.npz"
        write_plan_npz(path, plan)
        back = read_plan_npz(path)
        assert type(back) is GaussianPolicy
        policy = GaussianPolicy(**{f.name: getattr(plan, f.name)
                                   for f in dataclasses.fields(GaussianPolicy)})
        assert_same_arrays(back, policy, "plan")
        with np.load(path) as npz:
            assert sorted(npz.files) == sorted(["rbar", "u_tilde", "v_tilde", "chol_tilde"])
        assert list(storage._PLAN_MEMBERS) == [f.name for f in dataclasses.fields(GaussianPolicy)]
        with zipfile.ZipFile(path) as archive:
            assert {m.compress_type for m in archive.infolist()} == {zipfile.ZIP_STORED}

    def test_compressed_plan_of_earlier_versions_reads_the_same(self, tmp_path, rng):
        plan = solve_plan(*random_problem(rng, n=3, t_len=4))
        stored, compressed = tmp_path / "plan.npz", tmp_path / "compressed.npz"
        write_plan_npz(stored, plan)
        np.savez_compressed(compressed, **{name: getattr(plan, name)
                                           for name in storage._PLAN_MEMBERS})
        assert_same_arrays(read_plan_npz(compressed), read_plan_npz(stored), "plan")

    @pytest.mark.parametrize("n_risky", [2, 19])
    def test_rollout_of_stored_plan_is_bit_identical(self, tmp_path, n_risky):
        plan, paths = market_plan(n_risky, n_paths=30)
        path = tmp_path / "plan.npz"
        write_plan_npz(path, plan)
        x0 = np.full(n_risky + 1, 1000.0 / (n_risky + 1))
        want = rollout(plan, paths, x0, np.random.default_rng(5))
        got = rollout(read_plan_npz(path), paths, x0, np.random.default_rng(5))
        for g, w in zip(got, want, strict=True):
            for field in ("x", "u", "cash"):
                assert np.array_equal(getattr(g, field), getattr(w, field)), field


THIRD = 1.0 / 3.0

# a tiny batch of two paths, two periods and two assets (the bond first); its
# trades sum to installments of -1.5, 1/3, 0 and 1e-300
GOLDEN_TRAJS = Trajectories(
    x=np.array([[[10.0, THIRD], [11.0, -0.0], [12.0, 1e-300]],
                [[5.0, 2.0], [4.0, 2.5], [3.0, 0.5]]]),
    u=np.array([[[1e-300, -1.5], [THIRD, -0.0]], [[0.25, -0.25], [1e-300, 0.0]]]),
)


class TestFileContract:
    """The exact text of every CSV table: header, row order, index columns
    and shortest round-trip floats, signed zeros and tiny exponents
    included."""

    @staticmethod
    def written(tmp_path: Path, writer, obj) -> str:
        path = tmp_path / "t.csv"
        writer(path, obj)
        return path.read_text()

    def test_returns(self, tmp_path):
        panel = np.array([[[0.5, -0.0], [1e-300, THIRD]], [[-2.5, 1.0], [0.1, 3e5]]])
        assert self.written(tmp_path, write_returns_csv, panel) == (
            "path,period,asset,value\n"
            "0,0,1,0.5\n0,0,2,-0.0\n0,1,1,1e-300\n0,1,2,0.3333333333333333\n"
            "1,0,1,-2.5\n1,0,2,1.0\n1,1,1,0.1\n1,1,2,300000.0\n"
        )
        # a panel without cells is the header alone
        empty = np.empty((2, 3, 0))
        assert self.written(tmp_path, write_returns_csv, empty) == "path,period,asset,value\n"

    def test_matrix(self, tmp_path):
        matrix = np.array([[THIRD, -0.0], [1e-300, 2.0]])
        assert self.written(tmp_path, write_matrix_csv, matrix) == (
            "row,col,value\n0,0,0.3333333333333333\n0,1,-0.0\n1,0,1e-300\n1,1,2.0\n"
        )

    def test_trajectories(self, tmp_path):
        # the last period holds the terminal positions with a trade of 0
        assert self.written(tmp_path, write_trajectories_csv, GOLDEN_TRAJS) == (
            "path,period,asset,x,u\n"
            "0,0,0,10.0,1e-300\n0,0,1,0.3333333333333333,-1.5\n"
            "0,1,0,11.0,0.3333333333333333\n0,1,1,-0.0,-0.0\n"
            "0,2,0,12.0,0.0\n0,2,1,1e-300,0.0\n"
            "1,0,0,5.0,0.25\n1,0,1,2.0,-0.25\n"
            "1,1,0,4.0,1e-300\n1,1,1,2.5,0.0\n"
            "1,2,0,3.0,0.0\n1,2,1,0.5,0.0\n"
        )

    def test_cash(self, tmp_path):
        # the installments are the trades' sums; a sum is never -0.0 (it starts
        # from +0.0), so the signed zero is pinned by the other tables
        assert self.written(tmp_path, write_cash_csv, GOLDEN_TRAJS) == (
            "path,period,c\n0,0,-1.5\n0,1,0.3333333333333333\n1,0,0.0\n1,1,1e-300\n"
        )

    def test_performance(self, tmp_path):
        # strategies in name order, whatever order they come in
        mean_returns = {"girl": np.array([THIRD, -0.0]), "equal_weight": np.array([1e-300, 0.5])}
        assert self.written(tmp_path, write_performance_csv, mean_returns) == (
            "strategy,period,mean_return\n"
            "equal_weight,0,1e-300\nequal_weight,1,0.5\n"
            "girl,0,0.3333333333333333\ngirl,1,-0.0\n"
        )

    def test_loss_slices(self, tmp_path):
        # parameters in the order given, no index column
        slices = {"lam": (np.array([0.5, THIRD]), np.array([1e-300, -0.0])),
                  "eta": (np.array([1.0]), np.array([2.5]))}
        assert self.written(tmp_path, write_slices_csv, slices) == (
            "parameter,value,nll\nlam,0.5,1e-300\nlam,0.3333333333333333,-0.0\neta,1.0,2.5\n"
        )

    def test_panels_read_back_bit_for_bit(self, tmp_path):
        write_trajectories_csv(tmp_path / "t.csv", GOLDEN_TRAJS)
        back = read_trajectories_csv(tmp_path / "t.csv")
        for field in ("x", "u"):
            got, want = getattr(back, field), getattr(GOLDEN_TRAJS, field)
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got),
                                                                np.signbit(want)), field


READERS = {
    "returns": (read_returns_csv, "path,period,asset,value", ["0,0,1,0.5", "0,0,2,0.25"]),
    "matrix": (read_matrix_csv, "row,col,value", ["0,0,1.0", "0,1,0.5", "1,0,0.5", "1,1,2.0"]),
    "trajectories": (read_trajectories_csv, "path,period,asset,x,u",
                     ["0,0,0,10.0,1.0", "0,0,1,5.0,-1.0", "0,1,0,11.0,0.0", "0,1,1,4.0,0.0"]),
}


class TestCsvIndexValidation:
    """Index columns must name each cell of the table exactly once."""

    @staticmethod
    def write(path: Path, reader: str, last_row=None, extra_row=None) -> Path:
        _, header, rows = READERS[reader]
        rows = list(rows)
        if last_row is not None:
            rows[-1] = last_row
        if extra_row is not None:
            rows.append(extra_row)
        path.write_text("\n".join([header, *rows]) + "\n")
        return path

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_valid_table_reads(self, tmp_path, reader):
        READERS[reader][0](self.write(tmp_path / "t.csv", reader))

    @pytest.mark.parametrize("reader, row", [
        ("returns", "0,-1,2,0.25"), ("returns", "0,0,0,0.25"),
        ("matrix", "-1,-1,5.0"), ("trajectories", "0,1,-1,4.0,0.0"),
    ])
    def test_negative_index_rejected(self, tmp_path, reader, row):
        path = self.write(tmp_path / "t.csv", reader, last_row=row)
        with pytest.raises(ShapeError, match="t.csv.*non-negative integer"):
            READERS[reader][0](path)

    @pytest.mark.parametrize("reader, row", [
        ("returns", "1e20,0,2,0.25"), ("returns", "0,0,9223372036854775808,0.25"),
        ("matrix", "1e20,1,2.0"), ("matrix", "1,9223372036854775808,2.0"),
        ("trajectories", "0,1,1e20,4.0,0.0"), ("trajectories", "9223372036854775808,1,1,4.0,0.0"),
    ])
    def test_index_past_the_row_count_rejected(self, tmp_path, reader, row):
        # 1e20 and 2**63 lie beyond int64: bounded by the row count before any cast
        path = self.write(tmp_path / "t.csv", reader, last_row=row)
        with pytest.raises(ShapeError, match="t.csv.*past the extent of a table of"):
            READERS[reader][0](path)

    @pytest.mark.parametrize("reader, row", [
        ("returns", "0,0,1.5,0.25"), ("matrix", "1,0.7,2.0"),
        ("trajectories", "0,1,0.5,4.0,0.0"),
    ])
    def test_fractional_index_rejected(self, tmp_path, reader, row):
        path = self.write(tmp_path / "t.csv", reader, last_row=row)
        with pytest.raises(ShapeError, match="t.csv.*non-negative integer"):
            READERS[reader][0](path)

    @pytest.mark.parametrize("reader, row", [
        ("returns", "0,0,2,9.0"), ("matrix", "1,1,5.0"), ("trajectories", "0,1,1,9.0,0.0"),
    ])
    def test_duplicate_row_rejected(self, tmp_path, reader, row):
        path = self.write(tmp_path / "t.csv", reader, extra_row=row)
        with pytest.raises(ShapeError, match="t.csv.*rows for"):
            READERS[reader][0](path)

    def test_negative_index_no_longer_wraps(self, tmp_path):
        # a 2 x 2 matrix plus a row at (-1, -1) used to overwrite entry [1, 1]
        path = self.write(tmp_path / "sigma_r.csv", "matrix", extra_row="-1,-1,5.0")
        with pytest.raises(ShapeError, match="sigma_r.csv"):
            read_matrix_csv(path)


def assert_same_arrays(got, want, where: str) -> None:
    """Every array and number reachable through the dataclass fields of
    ``want`` equals the one at the same place in ``got``, bit for bit."""
    if dataclasses.is_dataclass(want):
        for f in dataclasses.fields(want):
            assert_same_arrays(getattr(got, f.name), getattr(want, f.name), f"{where}.{f.name}")
    else:
        assert np.shape(got) == np.shape(want), where
        assert np.array_equal(got, want), where


def edit_plan(change):
    """A corruption that rewrites an NPZ file after ``change`` edited its
    {name: array} members in place."""
    def corrupt(path: Path) -> None:
        with np.load(path) as npz:
            members = {name: npz[name] for name in npz.files}
        change(members)
        np.savez_compressed(path, **members)
    return corrupt


def overwrite(content: bytes):
    return lambda path: path.write_bytes(content)


def set_cell(row: int, col: int, text: str):
    """A corruption that replaces one field of a CSV file (row 0 the header)."""
    def corrupt(path: Path) -> None:
        lines = path.read_text().splitlines()
        fields = lines[row].split(",")
        fields[col] = text
        lines[row] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
    return corrupt


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
        assert report["solves"] >= report["iterations"] + 1
        assert report["stop_reason"] in ("converged", "budget", "damping")
        assert report["newton_decrement"] > 0.0
        slices = (out / "loss_slices.csv").read_text().splitlines()
        assert slices[0] == "parameter,value,nll"
        assert len(slices) == 1 + 4 * 21
        # past the leading name column every field is a plain decimal number
        for name in ("loss_slices.csv", "performance.csv"):
            for row in (out / name).read_text().splitlines()[1:]:
                for field in row.split(",")[1:]:
                    float(field)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_json_artifacts_reject_non_finite_numbers(self, tmp_path, value):
        # JSON has no NaN or Infinity: writing one raises, and writes nothing
        path = tmp_path / "payload.json"
        with pytest.raises(ValueError):
            cli._write_json(path, {"loss_path": [1.0, value]})
        assert not path.exists()

    def test_non_finite_decrement_is_written_as_null(self, tmp_path, monkeypatch):
        # the decrement is inf when the information never became positive
        # definite; the report stays strict JSON
        cfg_path = write_config(tmp_path, tiny_config(tmp_path / "out"))
        for cmd in ("simulate", "solve", "rollout"):
            assert main([cmd, "--config", str(cfg_path)]) == 0, cmd
        real_fit = cli.fit
        monkeypatch.setattr(cli, "fit", lambda *args: dataclasses.replace(
            real_fit(*args), decrement=float("inf")))
        assert main(["fit", "--config", str(cfg_path)]) == 0

        def reject(constant):
            raise AssertionError(f"{constant} in girl_report.json")

        text = (tmp_path / "out" / "girl_report.json").read_text()
        assert json.loads(text, parse_constant=reject)["newton_decrement"] is None

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
        assert np.isfinite(plan.u_tilde).all()
        assert len(plan.u_tilde) == plan.horizon == 4

    @pytest.mark.parametrize("command, name, corrupt, needle", [
        ("rollout", "plan.npz", edit_plan(lambda m: m.pop("u_tilde")), "u_tilde"),
        ("rollout", "plan.npz", overwrite(b"not an archive\n"), "plan.npz"),
        ("solve", "sigma_r.csv", overwrite(b"row,col,value\nabc\n"), "sigma_r.csv"),
        ("rollout", "plan.npz", edit_plan(lambda m: m.update(v_tilde=m["v_tilde"][:, :2])),
         "v_tilde"),
        ("solve", "sigma_r.csv", overwrite(b"row,col,value\n0,0\n"), "sigma_r.csv"),
        ("rollout", "plan.npz", edit_plan(lambda m: m["v_tilde"].__setitem__((1, 2, 0), np.nan)),
         "v_tilde"),
        ("rollout", "plan.npz",
         edit_plan(lambda m: m.update(chol_tilde=np.swapaxes(m["chol_tilde"], 1, 2))),
         "chol_tilde"),
        ("rollout", "plan.npz", edit_plan(lambda m: m["chol_tilde"][2].__imul__(-1.0)),
         "chol_tilde"),
        ("solve", "returns_expected.csv", set_cell(7, 0, "1e20"), "past the extent"),
    ], ids=["plan_without_u_tilde", "plan_not_a_zip", "sigma_r_not_numeric",
            "plan_member_shape", "sigma_r_two_columns", "plan_member_nan",
            "plan_chol_upper_triangular", "plan_chol_negative_diagonal",
            "expected_return_index_past_int64"])
    def test_malformed_artifact_is_a_clean_error(self, tmp_path, capsys,
                                                 command, name, corrupt, needle):
        cfg_path = write_config(tmp_path, tiny_config(tmp_path / "out"))
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        assert main(["solve", "--config", str(cfg_path)]) == 0
        corrupt(tmp_path / "out" / name)
        capsys.readouterr()
        assert main([command, "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("gwealth: error:")
        assert "Traceback" not in err
        assert needle in err and name in err

    @pytest.mark.parametrize("command, name, corrupt", [
        ("solve", "returns_expected.csv", set_cell(7, 3, "inf")),
        ("solve", "returns_expected.csv", set_cell(7, 3, "nan")),
        ("report", "trajectories.csv", set_cell(9, 3, "inf")),
    ], ids=["expected_return_inf", "expected_return_nan", "trajectory_x_inf"])
    def test_non_finite_csv_cell_is_a_clean_error(self, tmp_path, capsys, command, name,
                                                  corrupt):
        cfg_path = write_config(tmp_path, tiny_config(tmp_path / "out"))
        for cmd in ("simulate", "solve", "rollout"):
            assert main([cmd, "--config", str(cfg_path)]) == 0, cmd
        (tmp_path / "out" / "plan.npz").unlink()
        corrupt(tmp_path / "out" / name)
        capsys.readouterr()
        assert main([command, "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("gwealth: error:")
        assert "Traceback" not in err
        assert name in err and "not a finite number" in err
        assert not (tmp_path / "out" / "plan.npz").exists()
        assert not (tmp_path / "out" / "summary.json").exists()

    @pytest.mark.parametrize("key, value", [("horizon", 3), ("n_risky", 2)])
    def test_fit_on_mismatched_inputs_is_a_clean_error(self, tmp_path, capsys, key, value):
        # trajectories of one market shape, return panels of another
        data = tiny_config(tmp_path / "out")
        cfg_path = write_config(tmp_path, data)
        for cmd in ("simulate", "solve", "rollout"):
            assert main([cmd, "--config", str(cfg_path)]) == 0, cmd
        data["market"][key] = value
        write_config(tmp_path, data)
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        assert main(["fit", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("gwealth: error:")
        assert "Traceback" not in err and "trajectories.csv' covers" in err
        assert not (tmp_path / "out" / "girl_report.json").exists()

    @pytest.mark.parametrize("key, value, stages, name", [
        ("n_risky", 5, ("simulate",), "trajectories.csv"),
        ("horizon", 6, ("simulate",), "trajectories.csv"),
        ("n_risky", 5, ("simulate", "solve", "rollout"), "trajectories_girl.csv"),
    ], ids=["width", "horizon", "girl_width"])
    def test_report_on_trajectories_of_another_market_is_a_clean_error(
            self, tmp_path, capsys, key, value, stages, name):
        # repro on one market, then the stages on another into the same
        # outdir: report must not summarise the old market's trajectories
        data = tiny_config(tmp_path / "out")
        cfg_path = write_config(tmp_path, data)
        assert main(["repro", "--config", str(cfg_path)]) == 0
        data["market"][key] = value
        write_config(tmp_path, data)
        for cmd in stages:
            assert main([cmd, "--config", str(cfg_path)]) == 0, cmd
        (tmp_path / "out" / "summary.json").unlink()
        (tmp_path / "out" / "performance.csv").unlink()
        capsys.readouterr()
        assert main(["report", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("gwealth: error:") and "Traceback" not in err
        assert f"{name}' covers" in err
        assert not (tmp_path / "out" / "summary.json").exists()
        assert not (tmp_path / "out" / "performance.csv").exists()

    def test_fit_starts_from_the_fixed_start(self, tmp_path):
        # the first loss of the report is the loss at girl.FIT_START (as the
        # fit's coordinates carry it), whatever the configured reward
        cfg_path = write_config(tmp_path, tiny_config(tmp_path / "out"))
        for cmd in ("simulate", "solve", "rollout", "fit"):
            assert main([cmd, "--config", str(cfg_path)]) == 0, cmd
        cfg = load_config(cfg_path)
        run = cli._Run(cfg)
        sigma, rbar = cli._market_inputs(run)
        trajs = read_trajectories_csv(cfg.outdir / "trajectories.csv")
        start = cli._girl_params(cfg, sigma, unpack_reward(pack_reward(FIT_START)))
        want = nll_from_stats(start, prepare_stats(trajs, rbar, sigma), rbar)
        report = json.loads((cfg.outdir / "girl_report.json").read_text())
        assert report["loss_path"][0] == want

    @pytest.mark.parametrize("n_risky", [2, 4])
    @pytest.mark.parametrize("command", ["solve", "rollout", "fit", "report"])
    def test_stage_on_panels_of_another_width_is_a_clean_error(self, tmp_path, capsys,
                                                               command, n_risky):
        # every stage sizes the problem from market.n_risky and checks the
        # panels it reads against it
        data = tiny_config(tmp_path / "out")
        cfg_path = write_config(tmp_path, data)
        for cmd in ("simulate", "solve", "rollout"):
            assert main([cmd, "--config", str(cfg_path)]) == 0, cmd
        data["market"]["n_risky"] = n_risky
        write_config(tmp_path, data)
        capsys.readouterr()
        assert main([command, "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("gwealth: error:")
        assert "Traceback" not in err
        assert "covers 3 risky assets" in err and f"market.n_risky = {n_risky}" in err

    @pytest.mark.parametrize("key, value, axis", [
        ("horizon", 3, "4 periods"), ("horizon", 5, "4 periods"), ("n_paths", 7, "25 paths"),
    ])
    @pytest.mark.parametrize("command, name", [
        ("solve", "returns_expected.csv"), ("rollout", "returns_realized.csv"),
        ("fit", "returns_expected.csv"), ("report", "returns_realized.csv"),
    ])
    def test_stage_on_files_of_another_size_is_a_clean_error(self, tmp_path, capsys, command,
                                                             name, key, value, axis):
        # the config, not the files, sizes every stage: files of another horizon
        # or path count are an error naming the file, the axis and the key
        data = tiny_config(tmp_path / "out")
        cfg_path = write_config(tmp_path, data)
        for cmd in ("simulate", "solve", "rollout"):
            assert main([cmd, "--config", str(cfg_path)]) == 0, cmd
        data["market"][key] = value
        write_config(tmp_path, data)
        before = sorted(p.name for p in (tmp_path / "out").iterdir())
        capsys.readouterr()
        assert main([command, "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("gwealth: error:") and "Traceback" not in err
        assert f"{name}' covers {axis} but the config has market.{key} = {value}" in err
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == before

    def test_likelihood_prior_is_the_solve_prior(self, tmp_path):
        # the plan file of `gwealth solve` is, bit for bit, the plan solved from
        # the likelihood's prior under the configured solver
        cfg_path = write_config(tmp_path, tiny_config(tmp_path / "out"))
        for cmd in ("simulate", "solve"):
            assert main([cmd, "--config", str(cfg_path)]) == 0, cmd
        cfg = load_config(cfg_path)
        sigma, rbar = cli._market_inputs(cli._Run(cfg))  # read back from the files
        theta = cli._girl_params(cfg, sigma, cfg.reward.params())
        basis = reward_basis(rbar, sigma, theta.benchmark)
        want = backward_pass(basis.coeffs(cfg.reward.params()), theta.prior(), cfg.solver,
                             basis.rbar)
        with np.load(cfg.outdir / "plan.npz") as npz:
            assert sorted(npz.files) == sorted(storage._PLAN_MEMBERS)
            for name in npz.files:
                assert np.array_equal(npz[name], getattr(want, name)), name

    @pytest.mark.parametrize("section, key, value, command, needle", [
        ("reward", "benchmark_rate", 1e4, "solve", "benchmark"),
        ("reward", "initial_wealth", 1e200, "solve", "benchmark"),
        ("solver", "sigma_p_scale", 1e200, "solve", "sigma_p_scale"),
        ("solver", "beta", 1e300, "fit", "beta"),
        ("reward", "initial_wealth", 1e150, "fit", "Newton decrement overflows at iteration 1"),
    ], ids=["benchmark_not_finite", "benchmark_square_overflows", "prior_variance_overflows",
            "beta_square_overflows", "newton_decrement_overflows"])
    def test_overflowing_value_is_a_clean_error(self, tmp_path, capsys, section, key, value,
                                                command, needle):
        # a value whose arithmetic leaves the float range fails its stage with a
        # typed error and writes nothing (a RuntimeWarning fails the test)
        data = tiny_config(tmp_path / "out")
        data["market"].update({"n_risky": 2, "horizon": 8})
        data[section][key] = value
        cfg_path = write_config(tmp_path, data)
        stages = ["simulate", "solve", "rollout", "fit"]
        for cmd in stages[:stages.index(command)]:
            assert main([cmd, "--config", str(cfg_path)]) == 0, cmd
        before = sorted(p.name for p in (tmp_path / "out").iterdir())
        capsys.readouterr()
        assert main([command, "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("gwealth: error:")
        assert "Traceback" not in err and needle in err
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == before  # no plan file

    @pytest.mark.parametrize("command, reward, needle", [
        ("solve", {"lam": 1e300, "initial_wealth": 1e12, "benchmark_rate": 50.0},
         "coefficients under lam=1e+300, eta=1.01, rho=0.4, omega=0.15 and a largest "
         "benchmark value of 1.00177e+50 leave the float range"),
        ("repro", {"lam": 1e300, "initial_wealth": 1e12, "benchmark_rate": 50.0},
         "coefficients under lam=1e+300"),
        ("repro", {"initial_wealth": 1e150, "eta": 1e150},
         "the trajectories' pooled moments"),
    ], ids=["coefficients_overflow_solve", "coefficients_overflow_repro",
            "moments_overflow_repro"])
    def test_overflow_names_what_overflowed(self, tmp_path, capsys, command, reward, needle):
        # the error names the quantity past the float range, not the fit's start or
        # a symptom further down, and no plan or report is left (a RuntimeWarning
        # fails the test)
        data = tiny_config(tmp_path / "out")
        data["market"]["horizon"] = 8
        data["reward"].update(reward)
        cfg_path = write_config(tmp_path, data)
        if command == "solve":
            assert main(["simulate", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        assert main([command, "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("gwealth: error:")
        assert "Traceback" not in err and needle in err
        assert not (tmp_path / "out" / "plan.npz").exists()
        assert not (tmp_path / "out" / "girl_report.json").exists()

    @pytest.mark.parametrize("market, reward, solver, needle", [
        ({"n_risky": 3, "horizon": 8, "n_paths": 60}, {}, {"beta": 1e307},
         "non-finite objective at the starting parameters lam=0.01, eta=1.05, rho=0.5, "
         "omega=1 under beta=1e+307"),
        ({"n_risky": 2, "horizon": 2, "n_paths": 30}, {},
         {"beta": 2.893227010089277e-277, "sigma_p_scale": 2.4757018781690732e+92,
          "gamma": 0.0862},
         "non-finite likelihood gradient or information"),
        ({"n_risky": 3, "horizon": 4, "n_paths": 23},
         {"initial_wealth": 3.1622776601683795, "benchmark_rate": -25.270995110948984,
          "rho": 0.5, "eta": 4.219944136209016e+152, "lam": 1.0, "omega": 3.1622776601683795},
         {"beta": 1.0, "gamma": 5e-324, "sigma_p_scale": 1.0},
         "the rollout's trades or positions leave the float range"),
        ({"n_risky": 1, "horizon": 3, "n_paths": 19}, {}, {"sigma_p_scale": 1e-159},
         "the inverse of the prior covariance (smallest variance 9.99999e-319) leaves"),
        ({"n_risky": 3, "horizon": 2, "n_paths": 39},
         {"lam": 1.0, "initial_wealth": 8.044276934246039e+101, "rho": 0.0,
          "eta": 1.2883630204565698e+84, "omega": 1.2883630204565698e+84,
          "benchmark_rate": 14.46323362702634},
         {"beta": 8.044276934246039e+101, "gamma": 5e-324, "sigma_p_scale": 1.0},
         "non-finite loss under reward parameters lam=1, eta=1.28836e+84, rho=0.02"),
    ], ids=["huge_beta_fit", "tiny_beta_huge_prior_score", "rollout_positions_overflow",
            "prior_inverse_overflow", "damped_step_overflow"])
    def test_repro_past_the_float_range_is_a_clean_error(self, tmp_path, capsys, market,
                                                         reward, solver, needle):
        # the fit's solves and score, the rollout and the prior's inverse run past
        # the float range without a RuntimeWarning (which fails the test) and end in
        # a typed error naming the cause; the output directory is left empty
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path, {"market": market, "reward": reward,
                                           "solver": solver, "girl": {"max_iters": 3},
                                           "io": {"outdir": str(out), "seed": 3}})
        capsys.readouterr()
        assert main(["repro", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("gwealth: error:")
        assert "Traceback" not in err and needle in err
        assert list(out.iterdir()) == []

    def test_solve_at_the_edge_of_the_float_range_is_finite(self, tmp_path):
        # a lam of 1e300 leaves every policy term in range: the solve exits 0
        # and writes a finite plan (a RuntimeWarning fails the test)
        cfg_path = write_config(tmp_path, {
            "market": {"n_risky": 2, "horizon": 8}, "solver": {"beta": 100.0},
            "reward": {"lam": 1e300}, "io": {"outdir": str(tmp_path / "out")}})
        for cmd in ("simulate", "solve"):
            assert main([cmd, "--config", str(cfg_path)]) == 0, cmd
        with np.load(tmp_path / "out" / "plan.npz") as npz:
            for name in npz.files:
                assert np.all(np.isfinite(npz[name])), name

    def test_header_only_csv_is_a_clean_error(self, tmp_path):
        # a child process: stderr as a user sees it, without pytest's warning capture
        cfg_path = write_config(tmp_path, tiny_config(tmp_path / "out"))
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        assert main(["solve", "--config", str(cfg_path)]) == 0
        (tmp_path / "out" / "returns_realized.csv").write_text("path,period,asset,value\n")
        env = dict(os.environ, PYTHONPATH=str(Path(gwealth.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "gwealth.cli", "rollout", "--config", str(cfg_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("gwealth: error:")
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        assert "returns_realized.csv" in proc.stderr


class TestRepro:
    def test_repro_runs_and_is_deterministic(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cfg_a = write_config(tmp_path, tiny_config(out_a))
        assert main(["repro", "--config", str(cfg_a)]) == 0
        assert main(["repro", "--config", str(cfg_a), "--outdir", str(out_b)]) == 0
        names = [
            "returns_expected.csv", "returns_realized.csv", "sigma_r.csv",
            "plan.npz", "plan_girl.npz", "trajectories.csv", "cash.csv",
            "trajectories_girl.csv", "cash_girl.csv", "girl_report.json",
            "loss_slices.csv", "performance.csv", "summary.json",
        ]
        assert sorted(p.name for p in out_a.iterdir()) == sorted(names)
        for name in names:
            a = (out_a / name).read_bytes()
            b = (out_b / name).read_bytes()
            assert a == b, f"{name} differs between identical repro runs"

    def test_repro_in_memory_equals_stage_by_stage(self, tmp_path):
        # repro hands each artifact to the next stage in memory; the same
        # stages run one at a time read them back from the files
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cfg = write_config(tmp_path, tiny_config(out_a))
        assert main(["repro", "--config", str(cfg)]) == 0
        for cmd in ("simulate", "solve", "rollout", "fit"):
            assert main([cmd, "--config", str(cfg), "--outdir", str(out_b)]) == 0, cmd
        shutil.copy(out_a / "trajectories_girl.csv", out_b)
        assert main(["report", "--config", str(cfg), "--outdir", str(out_b)]) == 0
        names = sorted(p.name for p in out_b.iterdir())
        assert len(names) == 11 and "summary.json" in names and "performance.csv" in names
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_repro_out_of_range_config_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, tiny_config(out, max_iters=0))
        assert main(["repro", "--config", str(cfg)]) == 2
        assert "max_iters" in capsys.readouterr().err
        assert not out.exists()

    def test_repro_fit_start_outside_the_domain_is_a_clean_error(self, tmp_path):
        # the fit starts from girl.FIT_START, inside its domain whatever the
        # reward: with reward.eta 0.05 repro runs, and the eta slice of the
        # loss is centred on 0.05 with every point positive
        out = tmp_path / "out"
        data = tiny_config(out)
        data["reward"]["eta"] = 0.05
        assert main(["repro", "--config", str(write_config(tmp_path, data))]) == 0
        assert len(list(out.iterdir())) == 13
        rows = [r.split(",") for r in (out / "loss_slices.csv").read_text().splitlines()[1:]]
        eta = np.array([float(v) for name, v, _ in rows if name == "eta"])
        assert eta.min() > 0.0
        np.testing.assert_allclose(eta, np.linspace(0.025, 0.075, 21), rtol=1e-12)

    def test_repro_seed_flag_changes_outputs(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cfg = write_config(tmp_path, tiny_config(out_a))
        assert main(["repro", "--config", str(cfg)]) == 0
        assert main(["repro", "--config", str(cfg), "--seed", "11",
                     "--outdir", str(out_b)]) == 0
        assert (out_a / "cash.csv").read_bytes() != (out_b / "cash.csv").read_bytes()
