"""Property test: ``gwealth repro`` fails closed on every accepted config.

Tiny markets under extreme but accepted reward, solver and rate values: a run
either exits 0 and leaves every CSV and NPZ member finite, or exits 1 or 2
with a typed ``gwealth: error:`` and no file in its output directory.  A
RuntimeWarning is an error under the suite's warning filter, so a run that
warns before its typed error fails too.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from gwealth.cli import main

# fixed before the first run, to keep the test within a few seconds
EXAMPLES = 120


def wide(lo: float = -300.0, hi: float = 300.0):
    """Positive numbers spread over decades: 10 ** e for e in [lo, hi]."""
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


CONFIGS = st.fixed_dictionaries({
    "market": st.fixed_dictionaries({
        "n_risky": st.integers(1, 3), "horizon": st.integers(1, 4),
        "n_paths": st.integers(1, 40),
    }),
    "reward": st.fixed_dictionaries({
        "lam": wide(), "eta": wide(), "omega": wide(), "initial_wealth": wide(),
        "rho": st.floats(0.0, 1.0), "benchmark_rate": st.floats(-50.0, 50.0),
    }),
    "solver": st.fixed_dictionaries({
        "beta": wide(), "sigma_p_scale": wide(),
        "gamma": st.floats(0.0, 1.0, exclude_min=True),
    }),
    "girl": st.fixed_dictionaries({"max_iters": st.integers(1, 3)}),
})


def assert_finite_outputs(outdir: Path) -> None:
    """Every number of every CSV table and NPZ member in ``outdir`` is finite;
    a field that is not a number (a name column) is skipped."""
    for path in outdir.iterdir():
        if path.suffix == ".csv":
            for row in path.read_text().splitlines()[1:]:
                for field in row.split(","):
                    try:
                        value = float(field)
                    except ValueError:
                        continue
                    assert math.isfinite(value), (path.name, row)
        elif path.suffix == ".npz":
            with np.load(path) as npz:
                for name in npz.files:
                    assert np.isfinite(npz[name]).all(), (path.name, name)


@settings(max_examples=EXAMPLES, derandomize=True, database=None, deadline=None)
@given(data=CONFIGS)
def test_repro_exits_cleanly_on_accepted_configs(data):
    with tempfile.TemporaryDirectory() as tmp:
        outdir = Path(tmp) / "out"
        cfg_path = Path(tmp) / "config.json"
        cfg_path.write_text(json.dumps({**data, "io": {"outdir": str(outdir), "seed": 3}}))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["repro", "--config", str(cfg_path)])
        if code == 0:
            assert len(list(outdir.iterdir())) == 13
            assert_finite_outputs(outdir)
        else:
            assert code in (1, 2), code
            assert err.getvalue().startswith("gwealth: error:"), err.getvalue()
            assert "Traceback" not in err.getvalue()
            assert not outdir.exists() or not list(outdir.iterdir())
