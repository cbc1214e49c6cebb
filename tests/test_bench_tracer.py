"""The benchmark's tracer against collsim: every name it wraps exists, and every counter it binds counts.

``bench/tracing.py`` wraps collsim's functions by name and binds the arguments
of a few of them (``run_plan``'s ``horizon``, ``pilot_block_variance``'s
``n_pilot``) to count the work of a traced run.  A renamed function drops its
per-layer metrics, and a removed parameter fails every traced op.  This test
runs each traced layer once, at one worker so that every call stays in this
process, under the installed tracer.
"""

import collsim.cli
import collsim.experiments
from collsim.experiments import ExperimentConfig
from exact_truth import load_bench_module

tracing = load_bench_module("tracing")


def test_every_traced_name_exists_and_every_counter_counts(tmp_path):
    emulator = str(tmp_path / "emu" / "emulator.json")
    common = ["--n-accounts", "300", "--portfolio-probs", "0.9", "0.1", "--threads", "1", "--seed", "3"]
    runs = [
        ["simulate", *common, "--out", str(tmp_path / "sim")],
        ["train-emulator", "--points-per-slice", "6", "--train-realisations", "200", "--threads", "1",
         "--out", str(tmp_path / "emu")],
        ["interval", *common, "--plan", "optimized", "--method", "M2", "--emulator", emulator,
         "--out", str(tmp_path / "interval")],
        ["protect", *common, "--caps", "1e9", "1e9", "--emulator", emulator, "--out", str(tmp_path / "protect")],
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert not tracer.missing, f"traced names no longer in collsim: {sorted(tracer.missing)}"
        codes = [collsim.cli.main(argv) for argv in runs]  # looked up now, so the wrapped entry point runs
        config = ExperimentConfig(n_accounts=300, portfolio_probs=(0.9, 0.1), repetitions=1, seed=3, threads=1)
        collsim.experiments.coverage_study(config)
    finally:
        tracer.restore()
    assert codes == [0] * len(runs)
    counters = {m: tracer.counters[m] for m in tracing.COUNTER_METRICS}
    assert all(v > 0 for v in counters.values()), counters
