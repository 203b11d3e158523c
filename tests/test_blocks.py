"""Path blocks of the Monte-Carlo kernels (``market._by_blocks``): outputs that
do not depend on the block size, every draw and every public call on the
caller, and one worker thread that does not outlive the call."""

import sys
import threading
import types
from concurrent.futures import Future

import numpy as np
import pytest

import gwealth
from gwealth import glearner, market, metrics
from gwealth.glearner import rollout, solve_plan
from gwealth.errors import ShapeError
from gwealth.market import MarketSpec, ReturnPaths, _by_blocks, simulate
from gwealth.metrics import equal_weight_baseline

from conftest import random_problem
from oracles import equal_weight_loop, rollout_loop, simulate_loop

B = 4  # the block size the tests patch in
N_PATHS = [1, B - 1, B, B + 1, 2 * B + 3]
N_RISKY, HORIZON = 3, 5
X0 = np.array([40.0, 20.0, 25.0, 15.0])


def small_spec(n_paths):
    return MarketSpec(n_risky=N_RISKY, horizon=HORIZON, n_paths=n_paths, seed=5)


def small_plan():
    return solve_plan(*random_problem(np.random.default_rng(3), n=N_RISKY + 1, t_len=HORIZON))


class InlinePool:
    """A synchronous stand-in for the worker pool: each submitted call runs at
    once on the caller, its result or exception kept in a done future."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


def assert_same_bits(got, want, fields):
    for name in fields:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


PANELS = ("expected", "realized", "market", "alpha", "beta")
BATCH = ("x", "u", "cash")


class TestBlockBoundaries:
    @pytest.mark.parametrize("inline", [False, True])
    @pytest.mark.parametrize("n_paths", N_PATHS)
    def test_simulate(self, monkeypatch, n_paths, inline):
        spec = small_spec(n_paths)
        whole = simulate(spec)
        monkeypatch.setattr(market, "BLOCK", B)
        if inline:  # every block's work on the caller, in block order
            monkeypatch.setattr(market, "ThreadPoolExecutor", InlinePool)
        blocked = simulate(spec)
        assert_same_bits(blocked, whole, PANELS)
        want = simulate_loop(spec)
        for name in ("expected", "realized", "market"):
            g, w = getattr(blocked, name), getattr(want, name)
            assert np.abs(g - w).max() <= 1e-14 * np.abs(w).max(), name

    @pytest.mark.parametrize("n_paths", N_PATHS)
    def test_rollout(self, monkeypatch, n_paths):
        plan, paths = small_plan(), simulate(small_spec(n_paths))
        whole = rollout(plan, paths, X0, np.random.default_rng(42))
        monkeypatch.setattr(market, "BLOCK", B)
        blocked = rollout(plan, paths, X0, np.random.default_rng(42))
        assert_same_bits(blocked, whole, BATCH)
        want = rollout_loop(plan, paths, X0, np.random.default_rng(42))
        scale = max(np.abs(t.x).max() for t in want)
        for g, w in zip(blocked, want, strict=True):
            assert np.abs(g.x - w.x).max() <= 1e-12 * scale
            assert np.abs(g.u - w.u).max() <= 1e-12 * scale

    @pytest.mark.parametrize("n_paths", N_PATHS)
    def test_equal_weight_baseline(self, monkeypatch, n_paths):
        paths = simulate(small_spec(n_paths))
        whole = equal_weight_baseline(paths, X0, 0.02, 0.25)
        monkeypatch.setattr(market, "BLOCK", B)
        blocked = equal_weight_baseline(paths, X0, 0.02, 0.25)
        assert_same_bits(blocked, whole, BATCH)
        for g, w in zip(blocked, equal_weight_loop(paths, X0, 0.02, 0.25), strict=True):
            assert_same_bits(g, w, BATCH)

    def test_rollout_of_no_paths_is_a_shape_error(self):
        empty = np.empty((0, HORIZON, N_RISKY))
        paths = ReturnPaths(expected=empty, realized=empty, market=np.empty((0, HORIZON)))
        with pytest.raises(ShapeError, match="at least one path"):
            rollout(small_plan(), paths, X0, np.random.default_rng(42))

    def test_inline_work_gives_the_worker_bits(self, monkeypatch):
        monkeypatch.setattr(market, "BLOCK", B)
        plan, m = small_plan(), 2 * B + 3

        def kernels():
            paths = simulate(small_spec(m))
            return paths, rollout(plan, paths, X0, np.random.default_rng(42))

        worker = kernels()
        monkeypatch.setattr(market, "ThreadPoolExecutor", InlinePool)
        inline = kernels()
        for got, want, fields in zip(inline, worker, (PANELS, BATCH), strict=True):
            assert_same_bits(got, want, fields)


def record_threads(monkeypatch, modules):
    """Wrap every public function of ``modules`` in each gwealth namespace
    that holds it; returns the list of (name, thread) of every call."""
    calls = []
    wrappers = {}
    for mod in modules:
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                    or obj.__module__ != mod.__name__):
                continue

            def recorded(*args, _name=f"{mod.__name__}.{attr}", _func=obj, **kwargs):
                calls.append((_name, threading.current_thread()))
                return _func(*args, **kwargs)

            wrappers[id(obj)] = recorded
    namespaces = [gwealth] + [m for name, m in sys.modules.items()
                              if name.startswith("gwealth.") and isinstance(m, types.ModuleType)]
    for ns in namespaces:
        for attr, obj in list(vars(ns).items()):
            if id(obj) in wrappers:
                monkeypatch.setattr(ns, attr, wrappers[id(obj)])
    return calls


class TestThreads:
    def test_public_functions_run_on_the_caller(self, monkeypatch):
        monkeypatch.setattr(market, "BLOCK", B)
        plan = small_plan()
        before = threading.active_count()
        calls = record_threads(monkeypatch, (market, glearner, metrics))
        paths = market.simulate(small_spec(2 * B + 3))
        glearner.rollout(plan, paths, X0, np.random.default_rng(42)).cash  # summed on read
        metrics.equal_weight_baseline(paths, X0, 0.02, 0.25)
        names = {name for name, _ in calls}
        assert {"gwealth.market.simulate", "gwealth.glearner.rollout",
                "gwealth.glearner.cash_installment",
                "gwealth.metrics.equal_weight_baseline"} <= names
        caller = threading.current_thread()
        assert all(thread is caller for _, thread in calls), calls
        assert threading.active_count() == before

    @pytest.mark.parametrize("n_paths, blocks", [
        (B, [(0, B)]),
        (2 * B + 3, [(0, 3), (3, 7), (7, 11)]),  # three even blocks of at most B
    ])
    def test_draws_on_the_caller_work_on_one_worker(self, monkeypatch, n_paths, blocks):
        # every block but the last is worked on one worker thread, the last on the caller
        monkeypatch.setattr(market, "BLOCK", B)
        before = threading.active_count()
        draws, works = [], []
        _by_blocks(n_paths, lambda a, b: draws.append((a, b, threading.current_thread())),
                   lambda a, b: works.append((a, b, threading.current_thread(),
                                              threading.active_count())))
        assert [(a, b) for a, b, _ in draws] == blocks
        assert [(a, b) for a, b, *_ in works] == blocks
        caller = threading.current_thread()
        assert all(thread is caller for *_, thread in draws)
        *early, (_, _, last_thread, running) = works
        assert last_thread is caller
        assert len({thread for _, _, thread, _ in early}) <= 1
        assert all(thread is not caller for _, _, thread, _ in early)
        if not early:  # a single block starts no thread
            assert running == before
        assert threading.active_count() == before

    def test_even_blocks(self, monkeypatch):
        # blocks of at most B paths that cover the paths in order, one path only when M is 1
        monkeypatch.setattr(market, "BLOCK", B)
        for m in range(1, 50):
            blocks = []
            _by_blocks(m, lambda a, b: blocks.append((a, b)), lambda a, b: None)
            assert [a for a, _ in blocks] == [0] + [b for _, b in blocks[:-1]]
            assert blocks[-1][1] == m
            sizes = [b - a for a, b in blocks]
            assert max(sizes) <= B and (m == 1 or min(sizes) >= 2), (m, sizes)

    def test_work_exception_surfaces_on_the_caller(self, monkeypatch):
        monkeypatch.setattr(market, "BLOCK", B)
        before = threading.active_count()

        def work(a, b):
            if a == 3:
                raise ValueError(f"block [{a}, {b}) failed")

        with pytest.raises(ValueError, match=r"block \[3, 7\) failed"):
            _by_blocks(2 * B + 3, lambda a, b: None, work)
        assert threading.active_count() == before
