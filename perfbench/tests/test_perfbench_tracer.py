"""The layer tracer restores what it wraps and accounts for all wall time."""

from __future__ import annotations

import time

import pytest

from tracer import LAYER_TABLE, LayerTracer
from workloads import build_reflect_outbreak


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class Recursive:
    """``outer -> inner -> outer -> inner``, each spinning a known time."""

    def outer(self, depth: int) -> int:
        _spin(0.004)
        return self.inner(depth)

    def inner(self, depth: int) -> int:
        _spin(0.002)
        return self.outer(depth - 1) if depth > 0 else 0


TOY_TABLE = (
    ("alpha", __name__, "Recursive", ("outer",)),
    ("beta", __name__, "Recursive", ("inner",)),
)


def test_uninstall_restores_every_original():
    tracer = LayerTracer()
    sites = tracer._resolve()
    originals = {(site.owner, site.name): site.owner.__dict__[site.name] for site in sites}
    assert len(originals) >= sum(len(row[3]) for row in LAYER_TABLE)
    tracer.install()
    try:
        for (owner, name), original in originals.items():
            assert owner.__dict__[name] is not original
    finally:
        tracer.uninstall()
    for (owner, name), original in originals.items():
        assert owner.__dict__[name] is original


def test_recursive_spans_get_their_own_self_time():
    tracer = LayerTracer(TOY_TABLE)
    with tracer:
        start = time.perf_counter_ns()
        Recursive().outer(1)
        wall = time.perf_counter_ns() - start
    assert not hasattr(vars(Recursive)["outer"], "__wrapped__")
    edges = {(label, parent): calls for (label, parent), (calls, __) in tracer.edges.items()}
    assert edges == {
        ("alpha.outer", None): 1,
        ("beta.inner", "alpha"): 2,
        ("alpha.outer", "beta"): 1,
    }
    totals = tracer.function_totals()
    # Two outer calls spin 4 ms each and two inner calls 2 ms each; self
    # time excludes the nested calls, so neither absorbs the other.
    assert totals["alpha.outer"][1] == pytest.approx(8e6, rel=0.5)
    assert totals["beta.inner"][1] == pytest.approx(4e6, rel=0.5)
    layers = tracer.layer_self_ns(wall)
    assert sum(layers.values()) == wall
    assert layers["sim"] >= 0


def test_self_times_sum_to_the_traced_wall_time():
    tracer = LayerTracer()
    with tracer:
        prepared = build_reflect_outbreak(seed=2)
        prepared.until = 6.0
        tracer.reset()
        start = time.perf_counter_ns()
        prepared.run()
        wall = time.perf_counter_ns() - start
    layers = tracer.layer_self_ns(wall)
    assert sum(layers.values()) == wall
    assert all(ns >= 0 for ns in layers.values())
    # The run crossed the layers the outbreak exists to exercise.
    for layer in ("gateway", "flow", "containment", "guest", "memory", "farm"):
        assert layers[layer] > 0, layer
    assert sum(ns for layer, ns in layers.items() if layer != "sim") <= wall


def test_tracing_does_not_change_behaviour():
    untraced = build_reflect_outbreak(seed=4)
    untraced.until = 6.0
    untraced.run()
    with LayerTracer():
        traced = build_reflect_outbreak(seed=4)
        traced.until = 6.0
        traced.run()
    assert traced.outcome()["digest"] == untraced.outcome()["digest"]
