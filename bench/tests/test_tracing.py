"""Self times from the span sweep, and the tracer's wrapping of collsim."""

import collsim
import collsim.experiments
import collsim.simulator
import tracing


def test_self_times_nested():
    spans = [
        (1, "b", 1.0, 3.0, 0),
        (2, "c", 1.5, 2.0, 1),
        (3, "b", 5.0, 6.0, 0),
        (0, "op", 0.0, 10.0, None),
    ]
    self_s, total = tracing.layer_self_times(spans, 0)
    assert total == 10.0
    assert self_s == {"op": 7.0, "b": 2.5, "c": 0.5}


def test_self_times_of_overlapping_threads_add_up_to_the_root():
    # two worker-thread spans under one parent overlap in time
    spans = [
        (0, "op", 0.0, 10.0, None),
        (1, "run", 1.0, 9.0, 0),
        (2, "stream", 2.0, 5.0, 1),
        (3, "stream", 4.0, 7.0, 1),
    ]
    self_s, total = tracing.layer_self_times(spans, 0)
    assert self_s["stream"] == 5.0  # the union, counted once
    assert abs(sum(self_s.values()) - total) < 1e-12


def test_self_times_ignore_other_roots():
    spans = [(0, "op", 0.0, 1.0, None), (1, "x", 0.2, 0.4, 0), (2, "op", 2.0, 3.0, None), (3, "x", 2.0, 2.9, 2)]
    assert tracing.layer_self_times(spans, 0)[0] == {"op": 0.8, "x": 0.2}


def test_install_wraps_every_lookup_and_restore_undoes_it():
    original = collsim.simulator.run_plan
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert collsim.experiments.run_plan is collsim.simulator.run_plan is not original
        assert collsim.experiments.run_plan.__wrapped__ is original
        assert not tracer.missing
        pop = tracer.span_call(tracing.ROOT, collsim.experiments.init_population, 20, seed=1)
        plan = collsim.simulator.RealisationPlan.equal(pop.n, 3)
        collsim.experiments.run_plan(pop, plan, seed=2)
    finally:
        tracer.restore()
    assert collsim.experiments.run_plan is original
    assert tracer.counters["population.accounts"] == 20
    assert tracer.counters["simulator.paths"] == 60
    assert tracer.counters["simulator.uniform_mb"] == 60 * 84 * 8 / 1e6
    assert tracing.call_counts(tracer.spans, ["rng.stream"])["rng.stream"] >= 20


def test_missing_name_makes_its_metrics_absent(monkeypatch):
    targets = tuple(t for t in tracing.TARGETS if t[0] != "simulator.path_kernel") + (
        ("simulator.path_kernel", "simulator", "_no_such_kernel", ()),
    )
    monkeypatch.setattr(tracing, "TARGETS", targets)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.restore()
    assert tracer.missing == {"simulator._no_such_kernel"}
    assert not tracing.metric_available("simulator.path_kernel_s", tracer.available)
    assert tracing.metric_available("simulator.run_plan_s", tracer.available)
