"""Tests of the benchmark's own machinery: inputs, wrappers, span arithmetic."""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for p in (str(ROOT / "src"), str(BENCH)):
    if p not in sys.path:
        sys.path.insert(0, p)

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans as sp  # noqa: E402


def test_same_seed_gives_same_inputs():
    for seed in (0, 1, 12345):
        assert [inputs.experiment_order(seed, p) for p in range(4)] == \
               [inputs.experiment_order(seed, p) for p in range(4)]
        assert [inputs.op_seed(seed, c, i) for c in range(3) for i in range(50)] == \
               [inputs.op_seed(seed, c, i) for c in range(3) for i in range(50)]
        assert [inputs.oracle_replica(seed, 0, i, 200) for i in range(50)] == \
               [inputs.oracle_replica(seed, 0, i, 200) for i in range(50)]
    assert sorted(inputs.experiment_order(7, 0)) == sorted(inputs.EXPERIMENTS)
    assert [inputs.op_seed(1, 0, i) for i in range(20)] != [inputs.op_seed(2, 0, i) for i in range(20)]
    seeds = [inputs.op_seed(1, c, i) for c in range(3) for i in range(100)]
    assert len(set(seeds)) == len(seeds)
    orders = {tuple(inputs.experiment_order(s, 0)) for s in range(20)}
    assert len(orders) > 1
    assert all(0 <= inputs.op_seed(s, 0, i) < 2 ** 63 for s in range(5) for i in range(5))


def test_wrappers_restore_module_attributes():
    mod = types.ModuleType("fake")
    mod.f = lambda x: x + 1
    mod.g = lambda x: mod.f(x) * 2
    original_f, original_g = mod.f, mod.g
    tracer = sp.Tracer()
    absent = tracer.install({"fake": mod}, targets=(("fake", "f"), ("fake", "g"),
                                                      ("fake", "missing")))
    assert absent == ["fake.missing"]
    assert mod.f is not original_f and mod.g.__wrapped__ is original_g
    assert mod.g(1) == 4
    tracer.restore()
    assert mod.f is original_f and mod.g is original_g
    names = [s[sp.NAME] for s in tracer.spans]
    assert names == ["fake.g", "fake.f"]
    assert tracer.spans[1][sp.PARENT] == 0


def test_wrappers_restore_gridobs_attributes():
    import gridobs.cli  # noqa: F401
    modules = {m: sys.modules[f"gridobs.{m}"] for m, _ in sp.TRACED}
    before = {(m, f): getattr(modules[m], f) for m, f in sp.TRACED}
    tracer = sp.Tracer()
    assert tracer.install(modules) == []
    assert all(getattr(modules[m], f) is not fn for (m, f), fn in before.items())
    tracer.restore()
    assert all(getattr(modules[m], f) is fn for (m, f), fn in before.items())


def test_traced_monte_carlo_is_bit_identical():
    import gridobs.cli  # noqa: F401
    from gridobs import experiments
    cfg = experiments.load_experiment("fig3")
    cfg["sim"].update(replicas=6, K=4)
    modules = {m: sys.modules[f"gridobs.{m}"] for m, _ in sp.TRACED}
    tracer = sp.Tracer()
    tracer.op = "setup"
    tracer.install(modules)
    try:
        _, lin, scs, obs = experiments.build_pipeline(cfg)
        tracer.op = "op0"
        _, traced = experiments.run_simulation(cfg, lin, obs, scs, seed=inputs.op_seed(3, 0, 0))
    finally:
        tracer.restore()
    _, plain = experiments.run_simulation(cfg, lin, obs, scs, seed=inputs.op_seed(3, 0, 0))
    assert np.array_equal(traced.err_sq, plain.err_sq)
    assert np.array_equal(traced.paths, plain.paths)
    table = sp.aggregate(tracer.spans, ops={"op0"})
    table_all = sp.aggregate(tracer.spans)
    assert table["sim.monte_carlo"]["calls"] == 1
    assert table["shs.sample_skeleton"]["calls"] == 6
    assert "observer.design" not in table
    dump = tracer.dump()
    assert dump["mc_work"] == [(24, sp.groups_per_interval(plain.paths))]
    assert len(dump["design_digests"]) == table_all["observer.design"]["calls"] > 0
    assert sp.repeat_share([dump["design_digests"]]) == 0.0


def test_self_time_on_synthetic_tree():
    spans = [
        ["root", 0.0, 10.0, -1, "a"],
        ["child", 1.0, 3.0, 0, "a"],
        ["child", 4.0, 5.0, 0, "a"],
        ["child", 6.0, 9.5, 0, "a"],
        ["leaf", 1.5, 2.5, 1, "a"],
        ["leaf", 7.0, 7.25, 3, "a"],
        ["other", 20.0, 21.0, -1, "b"],
    ]
    selfs = sp.self_times(spans)
    assert selfs == pytest.approx([10.0 - 2.0 - 1.0 - 3.5, 1.0, 1.0, 3.25, 1.0, 0.25, 1.0])
    table = sp.aggregate(spans, ops={"a"})
    assert table["child"] == pytest.approx({"calls": 3, "self_s": 5.25, "total_s": 6.5})
    assert table["leaf"] == pytest.approx({"calls": 2, "self_s": 1.25, "total_s": 1.25})
    assert "other" not in table
    assert sp.count_under(spans, "leaf", "root") == 2
    assert sp.count_under(spans, "other", "root") == 0


def test_percentiles_and_shares():
    values = list(range(1, 31))
    assert inputs.tail(values) == (20, pytest.approx(100 * 20 / 30))
    assert inputs.tail(list(range(1, 21))) == (20, 100.0)
    assert inputs.tail([1, 5, 2]) == (5, 100.0)
    assert sp.repeat_share([["a", "b", "a", "a"]]) == 0.5
    assert sp.repeat_share([["a", "b"], ["a"], []]) == 0.0
    assert sp.groups_per_interval(np.array([[1, 2], [1, 3], [2, 3]])) == 2.0


def test_host_speed_scaling(monkeypatch):
    assert 0.0 < hostspeed.reference_s() < 10 * hostspeed.REF_S
    times = iter([0.04, 0.06, 0.02, 0.03, 0.01, 0.05])
    monkeypatch.setattr(hostspeed, "_reference_once", lambda: next(times))
    chain = hostspeed.Chain()
    assert chain.after() == pytest.approx(0.05)      # between 0.04 and 0.06
    assert chain.after() == pytest.approx(0.04)      # between 0.06 and 0.02
    assert hostspeed.reference_s(3) == 0.03          # median of 0.03, 0.01, 0.05
    assert hostspeed.nominal(1.0, 2 * hostspeed.REF_S) == pytest.approx(0.5)


def test_benchmark_json_matches_reported_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.E2E
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
