"""Command-line interface: subcommands, config precedence, exit codes."""

import dataclasses
import json

import numpy as np
import pytest

import collsim.experiments
from collsim.allocator import pilot_block_variance
from collsim.cli import FLAGS, READS, SUBCOMMANDS, _config_from_args, build_parser, main
from collsim.emulator import GpEmulator
from collsim.estimators import estimate_mu, prediction_interval
from collsim.experiments import ExperimentConfig, build_plan, m2_variance_inputs
from collsim.population import init_population
from collsim.rng import derive_seed
from collsim.simulator import run_plan
from fresh_process import run_fresh


@pytest.fixture(scope="module")
def emulator_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("emu")
    rc = main(
        [
            "train-emulator",
            "--out",
            str(out),
            "--points-per-slice",
            "10",
            "--train-realisations",
            "150",
            "--seed",
            "3",
        ]
    )
    assert rc == 0
    return out / "emulator.json"


class TestSimulate:
    def test_writes_outputs_and_sidecars(self, tmp_path, capsys):
        rc = main(["simulate", "--out", str(tmp_path), "--n-accounts", "30", "--seed", "2"])
        assert rc == 0
        for name in ("population.csv", "plan.csv", "curve.csv", "collections_summary.json", "report.json"):
            assert (tmp_path / name).exists()
            meta = json.loads((tmp_path / (name + ".meta.json")).read_text())
            assert meta["seed"] == 2 and "config_hash" in meta and "tool_version" in meta
        assert "estimated total collections" in capsys.readouterr().out
        # curve is plot-ready: month, mean, lower, upper with two-decimal money
        lines = (tmp_path / "curve.csv").read_text().strip().splitlines()
        assert lines[0] == "month,mean,lower,upper"
        assert len(lines) == 85

    def test_deterministic_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--out", str(a), "--n-accounts", "20", "--seed", "5"]) == 0
        assert main(["simulate", "--out", str(b), "--n-accounts", "20", "--seed", "5"]) == 0
        assert (a / "curve.csv").read_text() == (b / "curve.csv").read_text()


class TestConfigPrecedence:
    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_accounts": 10, "seed": 1}))
        assert main(["simulate", "--config", str(cfg), "--seed", "9", "--out", str(tmp_path / "o")]) == 0
        assert len((tmp_path / "o" / "population.csv").read_text().strip().splitlines()) == 11  # from file
        assert json.loads((tmp_path / "o" / "plan.csv.meta.json").read_text())["seed"] == 9  # flag wins

    def test_cli_uses_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_accounts": 15}))
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"), "--seed", "4"])
        assert rc == 0
        pop_lines = (tmp_path / "o" / "population.csv").read_text().strip().splitlines()
        assert len(pop_lines) == 16

    def test_config_out_dir_is_honoured_and_out_wins(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out_dir": "from_config", "n_accounts": 20}))
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert (tmp_path / "from_config" / "population.csv").exists()
        assert not (tmp_path / "out").exists()
        assert main(["simulate", "--config", str(cfg), "--out", "from_flag"]) == 0
        assert (tmp_path / "from_flag" / "population.csv").exists()

    def test_config_name_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"name": "my-study", "n_accounts": 20}))
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert f"error: simulate does not read config keys ['name'] of {cfg}\n" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


# The argv of each form of a subcommand; the input files named here do not exist, so a run that reads one fails.
FORM_ARGV = {
    "simulate": ["simulate"],
    "allocate": ["allocate", "--emulator", "missing-emulator.json"],
    "protect": ["protect"],
    "protect --problem": ["protect", "--problem", "missing-problem.json"],
    "interval": ["interval"],
    "coverage-study": ["coverage-study"],
    "train-emulator": ["train-emulator"],
    "validate-emulator": ["validate-emulator", "--emulator", "missing-emulator.json"],
    "oracle-check": ["oracle-check"],
}
# A valid value, other than the default, for every config field a form may read.
SETTINGS = {
    "n_accounts": 12,
    "portfolio_probs": [0.5, 0.5],
    "budget": 300.0,
    "plan_mode": "optimized",
    "caps": [1e9, 2e9],
    "interval_method": "M2",
    "coverage_p": 0.9,
    "repetitions": 3,
    "n_pilot": 7,
    "points_per_slice": 5,
    "train_realisations": 40,
    "sigma_reference_realisations": 30,
    "seed": 5,
    "threads": 1,
}


class TestSettingsEachFormReads:
    def test_table_covers_every_form(self):
        assert sorted(FORM_ARGV) == sorted(READS)
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert all(set(reads) <= fields - {"name", "seed", "threads", "out_dir"} for reads in READS.values())

    @pytest.mark.parametrize("form", sorted(READS))
    def test_a_key_the_form_does_not_read_is_rejected_before_any_input_or_output(self, tmp_path, capsys, form):
        unread = sorted({f.name for f in dataclasses.fields(ExperimentConfig)} - set(READS[form]) - {"seed", "threads", "out_dir"})
        assert "name" in unread
        defaults = json.loads(json.dumps(dataclasses.asdict(ExperimentConfig(threads=1))))
        cfg = tmp_path / "cfg.json"
        for key in unread:
            cfg.write_text(json.dumps({key: SETTINGS.get(key, defaults[key])}))
            rc = main([*FORM_ARGV[form], "--config", str(cfg), "--out", str(tmp_path / "o")])
            assert rc == 1
            assert f"error: {form} does not read config keys [{key!r}] of {cfg}\n" in capsys.readouterr().err
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv, config, named",
        [
            (["simulate", "--n-accounts", "20", "--seed", "1"], {"repetitions": 5, "points_per_slice": 7}, "['points_per_slice', 'repetitions']"),
            (["train-emulator"], {"n_accounts": 20, "coverage_p": 0.9}, "['coverage_p', 'n_accounts']"),
        ],
    )
    def test_every_unread_key_is_named(self, tmp_path, capsys, argv, config, named):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main([*argv, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert f"error: {argv[0]} does not read config keys {named} of {cfg}\n" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("form", sorted(READS))
    def test_every_key_the_form_reads_is_taken(self, tmp_path, form):
        settings = {k: SETTINGS[k] for k in (*READS[form], "seed", "threads")}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**settings, "out_dir": str(tmp_path / "o")}))
        config = _config_from_args(build_parser().parse_args([*FORM_ARGV[form], "--config", str(cfg)]))
        assert config.name == FORM_ARGV[form][0]
        assert config.out_dir == str(tmp_path / "o")
        for key, value in settings.items():
            assert getattr(config, key) == (tuple(value) if isinstance(value, list) else value), key
        assert not (tmp_path / "o").exists()


    @pytest.mark.parametrize(
        "argv, form",
        [
            (["simulate", "--n-accounts", "10"], "simulate"),
            (["interval", "--n-accounts", "10", "--method", "M1"], "interval"),
            (["coverage-study", "--plan", "equal", "--method", "M1"], "coverage-study"),
            (["protect", "--problem", "missing-problem.json"], "protect --problem"),
        ],
    )
    def test_emulator_rejected_by_a_run_that_does_not_use_it(self, tmp_path, capsys, argv, form):
        rc = main([*argv, "--emulator", "missing.json", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert f"error: {form} does not read --emulator\n" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--plan", "optimized"],
            ["interval", "--method", "M2"],
            ["coverage-study", "--plan", "optimized"],
            ["protect", "--caps", "1e9"],
        ],
    )
    def test_emulator_read_by_a_run_that_uses_it(self, tmp_path, capsys, argv):
        missing = tmp_path / "missing.json"
        assert main([*argv, "--n-accounts", "10", "--emulator", str(missing), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert str(missing) in err and "does not read" not in err

    def test_emulator_taken_with_an_optimized_plan_from_the_config_file(self, emulator_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"plan_mode": "optimized", "n_accounts": 30}))
        argv = ["simulate", "--config", str(cfg), "--emulator", str(emulator_file), "--threads", "1"]
        assert main([*argv, "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "plan.csv").exists()


COMMON_FLAGS = {"-h", "--help", "--config", "--seed", "--threads", "--out"}
# Each subcommand's flags besides the common ones and FLAGS of the fields it reads.
EXTRA_FLAGS = {
    "simulate": {"--emulator"},
    "allocate": {"--emulator"},
    "protect": {"--problem", "--emulator"},
    "interval": {"--emulator"},
    "coverage-study": {"--emulator"},
    "train-emulator": set(),
    "validate-emulator": {"--emulator"},
    "oracle-check": {"--instances"},
}


def subparsers():
    return next(a for a in build_parser()._actions if a.dest == "command").choices


class TestParser:
    def test_each_subcommand_has_the_flags_of_the_fields_it_reads(self):
        parsers = subparsers()
        assert list(parsers) == list(SUBCOMMANDS) == list(EXTRA_FLAGS)
        for name, p in parsers.items():
            flags = {s for a in p._actions for s in a.option_strings}
            expected = {FLAGS[f][0] for f in READS[name] if f in FLAGS}
            assert flags == COMMON_FLAGS | expected | EXTRA_FLAGS[name], name
            for a in p._actions:
                if a.dest in FLAGS:
                    assert a.option_strings == [FLAGS[a.dest][0]] and a.default is None, (name, a.dest)
            assert p.get_default("func") is SUBCOMMANDS[name][0]

    def test_every_flag_is_read_by_some_form(self):
        assert set(FLAGS) <= {f for reads in READS.values() for f in reads}

    def test_emulator_required_only_where_every_run_reads_it(self):
        for name, p in subparsers().items():
            required = {a.dest: a.required for a in p._actions}
            assert required.get("emulator", False) == (name in ("allocate", "validate-emulator")), name

    @pytest.mark.parametrize("name", list(SUBCOMMANDS))
    def test_help_prints(self, capsys, name):
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        assert f"usage: collsim {name}" in capsys.readouterr().out


class TestErrors:
    def test_bad_args_exit_nonzero(self, tmp_path, capsys):
        rc = main(["interval", "--out", str(tmp_path), "--method", "M2", "--n-accounts", "10"])
        assert rc == 1  # M2 without an emulator
        assert "error:" in capsys.readouterr().err

    def test_infeasible_protect_problem(self, tmp_path, capsys):
        prob = tmp_path / "prob.json"
        prob.write_text(
            json.dumps({"budget": 10, "portfolios": [{"sigma_independent": [100], "cap": 1}]})
        )
        rc = main(["protect", "--out", str(tmp_path), "--problem", str(prob)])
        assert rc == 1
        assert "Slater" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--budget", "-5"], "--budget"),
            (["--budget", "5", "--n-accounts", "7"], "--n-accounts, --budget"),
            (["--caps", "1", "--portfolio-probs", "1"], "--portfolio-probs, --caps"),
            (["--emulator", "e.json"], "--emulator"),
        ],
    )
    def test_protect_problem_rejects_flags_before_any_output(self, tmp_path, capsys, flags, named):
        prob = tmp_path / "prob.json"
        prob.write_text(json.dumps({"budget": 100, "portfolios": [{"sigma_independent": [1, 2], "cap": "inf"}]}))
        rc = main(["protect", "--problem", str(prob), "--out", str(tmp_path / "pout"), *flags])
        assert rc == 1
        assert f"error: protect --problem does not read {named}\n" in capsys.readouterr().err
        assert not (tmp_path / "pout").exists()

    @pytest.mark.parametrize(
        "flags, config, named",
        [
            ([], {"budget": 5, "n_accounts": 7}, "config keys ['budget', 'n_accounts'] of {cfg}"),
            (["--budget", "5"], {"caps": [1], "portfolio_probs": [1]}, "--budget, config keys ['caps', 'portfolio_probs'] of {cfg}"),
        ],
    )
    def test_protect_problem_rejects_config_keys_before_any_output(self, tmp_path, capsys, flags, config, named):
        prob, cfg = tmp_path / "prob.json", tmp_path / "cfg.json"
        prob.write_text(json.dumps({"budget": 100, "portfolios": [{"sigma_independent": [1, 2], "cap": "inf"}]}))
        cfg.write_text(json.dumps(config))
        rc = main(["protect", "--problem", str(prob), "--config", str(cfg), "--out", str(tmp_path / "pout"), *flags])
        assert rc == 1
        assert f"error: protect --problem does not read {named.format(cfg=cfg)}\n" in capsys.readouterr().err
        assert not (tmp_path / "pout").exists()

    def test_too_few_train_realisations_rejected(self, tmp_path, capsys):
        rc = main(["train-emulator", "--out", str(tmp_path / "o"), "--train-realisations", "3"])
        assert rc == 1
        assert "error: train_realisations must be at least 4, got 3" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"sigma_reference_realisations": 1}))
        rc = main(["protect", "--caps", "1e9", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "error: sigma_reference_realisations must be at least 2, got 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_config_values_rejected_before_any_work(self, tmp_path, capsys):
        rc = main(["simulate", "--out", str(tmp_path / "o"), "--n-accounts", "200", "--budget", "-100"])
        assert rc == 1
        assert "error: budget must be a positive finite number, got -100.0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        # counts above 2**53 are not all exact integers
        rc = main(["simulate", "--out", str(tmp_path / "o"), "--n-accounts", "1000", "--budget", "1e300", "--plan", "equal"])
        assert rc == 1
        assert "error: budget must be at most 2**53, got 1e+300\n" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"coverage_p": 1.5}))
        rc = main(["coverage-study", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "error: coverage_p must be in (0, 1), got 1.5" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_zero_threads_rejected(self, tmp_path, capsys):
        rc = main(["simulate", "--out", str(tmp_path), "--n-accounts", "10", "--threads", "0"])
        assert rc == 1
        assert "threads must be at least 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "population.csv").exists()


    def test_bad_emulator_file_named(self, emulator_file, tmp_path, capsys):
        doc = json.loads(emulator_file.read_text())
        doc["models"]["2"]["signal_variance"] = -1.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc = main(["allocate", "--n-accounts", "50", "--emulator", str(bad), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert f"error: {bad}, segment 2: field 'signal_variance' must be positive" in capsys.readouterr().err

    def test_config_value_type_named_with_file(self, tmp_path, capsys):
        cfg = tmp_path / "f.json"
        cfg.write_text(json.dumps({"threads": "2"}))
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path), "--n-accounts", "10"])
        assert rc == 1
        assert f"error: {cfg}: config key 'threads' must be an integer, got '2'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("{not json", ": config is not valid JSON: Expecting property name enclosed in double quotes"),
            ("3", ": config must be a JSON object, got int"),
        ],
        ids=["not-json", "not-an-object"],
    )
    def test_config_not_a_json_object_named(self, tmp_path, capsys, text, expected):
        cfg = tmp_path / "bad.json"
        cfg.write_text(text)
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out"), "--n-accounts", "10"])
        assert rc == 1
        assert f"error: {cfg}{expected}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("{not json", ": problem is not valid JSON: Expecting property name enclosed in double quotes"),
            ("3", ": problem must be a JSON object, got int"),
        ],
        ids=["not-json", "not-an-object"],
    )
    def test_problem_not_a_json_object_named(self, tmp_path, capsys, text, expected):
        prob = tmp_path / "bad.json"
        prob.write_text(text)
        rc = main(["protect", "--out", str(tmp_path), "--problem", str(prob)])
        assert rc == 1
        assert f"error: {prob}{expected}" in capsys.readouterr().err
        assert not (tmp_path / "protect_report.json").exists()

    @pytest.mark.parametrize(
        "doc, expected",
        [
            ({"portfolios": [{"sigma_independent": [1], "cap": 5}]}, ": missing field 'budget'"),
            ({"budget": "ten", "portfolios": []}, ": field 'budget' must be a number, got 'ten'"),
            ({"budget": 10}, ": field 'portfolios' must be a list of portfolio objects, got None"),
            ({"budget": 10, "portfolios": {"cap": 5}}, ": field 'portfolios' must be a list of portfolio objects"),
            (
                {"budget": 10, "portfolios": [{"sigma_independent": [1], "cap": 5}, {"sigma_independent": [1, "x"], "cap": 5}]},
                ", portfolio 1: field 'sigma_independent' must be a list of numbers, got [1, 'x']",
            ),
            (
                {"budget": 10, "portfolios": [{"sigma_independent": [1], "sigma_block": "x", "block_size": 2, "cap": 5}]},
                ", portfolio 0: field 'sigma_block' must be a number, got 'x'",
            ),
            (
                {"budget": 10, "portfolios": [{"sigma_independent": [1], "block_size": "two", "cap": 5}]},
                ", portfolio 0: field 'block_size' must be an integer, got 'two'",
            ),
            (
                {"budget": 10, "portfolios": [{"sigma_independent": [1], "sigma_block": 3, "block_size": 2.5, "cap": 5}]},
                ", portfolio 0: field 'block_size' must be an integer, got 2.5",
            ),
            ({"budget": 10, "portfolios": [{"sigma_independent": [1]}]}, ", portfolio 0: missing field 'cap'"),
            (
                {"budget": 10, "portfolios": [{"sigma_independent": [1], "cap": "lots"}]},
                ", portfolio 0: field 'cap' must be a number or \"inf\", got 'lots'",
            ),
            ({"budget": 10, "portfolios": [3]}, ", portfolio 0: expected a JSON object, got 3"),
            (
                {"budget": 10, "portfolios": [{"sigma_independent": [-1], "cap": "inf"}]},
                ", portfolio 0: standard deviations must be non-negative",
            ),
            ({"budget": True, "portfolios": []}, ": field 'budget' must be a number, got True"),
            ({"budget": "10", "portfolios": []}, ": field 'budget' must be a number, got '10'"),
            (
                {"budget": 10, "portfolios": [{"sigma_independent": [True, "3"], "cap": "inf"}]},
                ", portfolio 0: field 'sigma_independent' must be a list of numbers, got [True, '3']",
            ),
            (
                {"budget": 10, "portfolios": [{"sigma_independent": [2.0], "cap": "5"}]},
                ", portfolio 0: field 'cap' must be a number or \"inf\", got '5'",
            ),
            (
                {"budget": 10, "portfolios": [{"sigma_independent": [2.0], "cap": "Infinity"}]},
                ", portfolio 0: field 'cap' must be a number or \"inf\", got 'Infinity'",
            ),
            (
                {"budget": 10, "portfolios": [{"sigma_independent": [2.0], "cap": True}]},
                ", portfolio 0: field 'cap' must be a number or \"inf\", got True",
            ),
            (
                {"budget": 10, "portfolios": [{"sigma_independent": [2.0], "sigma_block": 1.0, "block_size": True, "cap": 5}]},
                ", portfolio 0: field 'block_size' must be an integer, got True",
            ),
            (
                {"budget": 10, "portfolios": [{"sigma_independent": [2.0], "sigma_block": "1.0", "block_size": 2, "cap": 5}]},
                ", portfolio 0: field 'sigma_block' must be a number, got '1.0'",
            ),
            (
                {
                    "budget": True,
                    "portfolios": [
                        {"sigma_independent": [True, "3"], "cap": "inf"},
                        {"sigma_independent": [2.0], "cap": "5", "block_size": True, "sigma_block": 1.0},
                    ],
                },
                ": field 'budget' must be a number, got True",
            ),
            (
                {"budget": float("inf"), "portfolios": [{"sigma_independent": [2.0], "cap": "inf"}]},
                ": field 'budget' must be a number, got inf",
            ),
            (
                {"budget": 10, "portfolios": [{"sigma_independent": [float("inf"), 2], "cap": "inf"}]},
                ", portfolio 0: field 'sigma_independent' must be a list of numbers, got [inf, 2]",
            ),
            (
                {"budget": 10, "portfolios": [{"sigma_independent": [2.0], "sigma_block": float("inf"), "block_size": 2, "cap": 5}]},
                ", portfolio 0: field 'sigma_block' must be a number, got inf",
            ),
            (
                {"budget": 10, "portfolios": [{"sigma_independent": [2.0], "cap": float("inf")}]},
                ", portfolio 0: field 'cap' must be a number or \"inf\", got inf",
            ),
            (
                {"budget": 10, "portfolios": [{"sigma_independent": [2.0], "cap": 0}]},
                ": caps must be positive (use np.inf for no cap), got [0.0]",
            ),
            (
                {"budget": 1e308, "portfolios": [{"sigma_independent": [1, 2], "cap": 5}]},
                ": budget must be positive and at most 2**53, got 1e+308",
            ),
        ],
    )
    def test_bad_problem_file_named(self, tmp_path, capsys, doc, expected):
        prob = tmp_path / "prob.json"
        prob.write_text(json.dumps(doc))
        rc = main(["protect", "--out", str(tmp_path / "out"), "--problem", str(prob)])
        assert rc == 1
        assert f"error: {prob}{expected}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize(
        "caps, expected",
        [
            (["nan", "1e9"], "caps must be positive (use np.inf for no cap), got [nan, 1000000000.0]"),
            (["1e9"], "one cap per portfolio required: 2 portfolios, caps [1000000000.0]"),
            (["1e9", "0"], "caps must be positive (use np.inf for no cap), got [1000000000.0, 0.0]"),
        ],
    )
    def test_protect_caps_checked_before_any_monte_carlo(self, tmp_path, capsys, monkeypatch, caps, expected):
        def no_monte_carlo(*args, **kwargs):
            raise AssertionError("reference_sigmas ran")

        monkeypatch.setattr(collsim.experiments, "reference_sigmas", no_monte_carlo)
        argv = ["protect", "--n-accounts", "2000", "--portfolio-probs", "0.5", "0.5", "--threads", "2"]
        assert main([*argv, "--caps", *caps, "--out", str(tmp_path / "o")]) == 1
        assert f"error: {expected}\n" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("instances", ["-5", "0"])
    def test_oracle_check_needs_an_instance(self, tmp_path, capsys, instances):
        assert main(["oracle-check", "--instances", instances, "--out", str(tmp_path / "o")]) == 1
        assert f"error: --instances must be at least 1, got {instances}\n" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestProtect:
    def test_problem_file_solve(self, tmp_path):
        prob = tmp_path / "prob.json"
        prob.write_text(
            json.dumps(
                {
                    "budget": 500,
                    "portfolios": [
                        {"sigma_independent": [30, 40], "sigma_block": 60, "block_size": 3, "cap": 900},
                        {"sigma_independent": [100, 20], "cap": 700},
                    ],
                }
            )
        )
        rc = main(["protect", "--out", str(tmp_path), "--problem", str(prob)])
        assert rc == 0
        doc = _strict_json(tmp_path / "protect_report.json")
        assert "active_set" in doc and "kkt" in doc
        assert doc["kkt"] == doc["diagnostics"]

    def test_tiny_sigmas_underflow_lambda(self, tmp_path):
        # alpha = 100 / 1e-160: its square overflows, so the budget multiplier underflows to 0
        prob = tmp_path / "prob.json"
        prob.write_text(json.dumps({"budget": 100, "portfolios": [{"sigma_independent": [1e-160], "cap": "inf"}]}))
        assert main(["protect", "--out", str(tmp_path), "--problem", str(prob)]) == 0
        doc = _strict_json(tmp_path / "protect_report.json")
        assert doc["lambda"] == 0.0 and doc["alpha_trace"] == [1e162]
        assert doc["plan"]["r_independent"] == [[pytest.approx(100.0)]]


def _strict_json(path):
    """The JSON document at ``path``, failing on the non-standard constants NaN, Infinity and -Infinity."""

    def reject(name):
        raise ValueError(f"{path} holds {name}")

    return json.loads(path.read_text(), parse_constant=reject)


class TestOracleCheck:
    def test_passes_and_writes_report(self, tmp_path, capsys):
        rc = main(["oracle-check", "--out", str(tmp_path), "--instances", "15", "--seed", "1"])
        assert rc == 0
        doc = json.loads((tmp_path / "oracle_check.json").read_text())
        assert doc["passed"] and doc["instances"] == 15
        assert "15/15" in capsys.readouterr().out


class TestEmulatorCommands:
    def test_train_writes_artifacts(self, emulator_file):
        out = emulator_file.parent
        for name in ("design.csv", "training.csv", "emulator.json", "metrics.json"):
            assert (out / name).exists()

    def test_validate(self, emulator_file, tmp_path, capsys):
        rc = main(
            [
                "validate-emulator",
                "--out",
                str(tmp_path),
                "--emulator",
                str(emulator_file),
                "--points-per-slice",
                "6",
                "--train-realisations",
                "150",
                "--seed",
                "8",
            ]
        )
        assert rc == 0
        doc = json.loads((tmp_path / "validation.json").read_text())
        assert "pooled" in doc and "sd_correlation" in doc["pooled"]

    def test_allocate(self, emulator_file, tmp_path, capsys):
        rc = main(
            [
                "allocate",
                "--out",
                str(tmp_path),
                "--n-accounts",
                "40",
                "--seed",
                "2",
                "--emulator",
                str(emulator_file),
            ]
        )
        assert rc == 0
        doc = json.loads((tmp_path / "allocation_report.json").read_text())
        assert 0.0 < doc["variance_reduction"] < 1.0
        assert "variance reduction" in capsys.readouterr().out

    def test_interval_m2(self, emulator_file, tmp_path):
        rc = main(
            [
                "interval",
                "--out",
                str(tmp_path),
                "--n-accounts",
                "40",
                "--seed",
                "2",
                "--plan",
                "optimized",
                "--method",
                "M2",
                "--emulator",
                str(emulator_file),
            ]
        )
        assert rc == 0
        doc = json.loads((tmp_path / "interval.json").read_text())
        assert doc["lower"] < doc["mu_total"] < doc["upper"]

    @pytest.mark.parametrize("plan, budget", [("optimized", None), ("equal", None), ("equal", 200)])
    def test_interval_m2_matches_shared_assembly(self, emulator_file, tmp_path, plan, budget):
        # budget 200 gives every unit one realisation, so the block falls back to its pilot variance
        argv = ["interval", "--out", str(tmp_path), "--n-accounts", "200", "--seed", "2", "--plan", plan]
        argv += ["--method", "M2", "--emulator", str(emulator_file)]
        if budget:
            argv += ["--budget", str(budget)]
        assert main(argv) == 0
        doc = json.loads((tmp_path / "interval.json").read_text())

        config = ExperimentConfig(
            n_accounts=200, seed=2, plan_mode=plan, interval_method="M2", budget=budget
        )
        emulator = GpEmulator.from_json(emulator_file)
        pop = init_population(200, (1.0,), seed=derive_seed(2, "pop"))
        pilot_seed = derive_seed(2, "pilot")
        int_plan, plan_inputs = build_plan(pop, config, emulator, pilot_seed)
        output = run_plan(pop, int_plan, seed=derive_seed(2, "estimate"))
        inputs = m2_variance_inputs(pop, config, emulator, output, pilot_seed, plan_inputs)
        interval = prediction_interval(estimate_mu(output, pop).total, inputs, int_plan, pop)
        assert (doc["lower"], doc["upper"]) == (interval.lower, interval.upper)

        blk = output.block_totals[0]
        assert len(pop.portfolios[0].dependent_ids) >= 2
        if len(blk) >= 2:
            assert inputs.sigma2_block[0] == np.var(blk, ddof=1)
        else:
            pilot = pilot_block_variance(pop, 0, n_pilot=config.n_pilot, seed=pilot_seed)
            assert inputs.sigma2_block[0] == pilot


class TestM2Assembly:
    @pytest.mark.parametrize(
        "argv, pilots",
        [
            (["allocate"], [0, 1]),
            (["interval", "--plan", "optimized", "--method", "M2"], [0, 1]),
            (["interval", "--plan", "equal", "--method", "M2"], []),  # every block has 25 run totals
            (["interval", "--plan", "equal", "--method", "M2", "--budget", "200"], [0, 1]),  # one each
            (["protect", "--caps", "1e12", "1e12"], [0, 1]),
        ],
        ids=["allocate", "interval-optimized", "interval-equal", "interval-equal-one-each", "protect"],
    )
    def test_each_pre_estimate_is_made_once(self, emulator_file, tmp_path, monkeypatch, argv, pilots):
        pilot_calls, predict_calls = [], []
        pilot, predict = collsim.experiments.pilot_block_variance, collsim.experiments.sigma2_for_population

        def counted_pilot(population, j, **kwargs):
            pilot_calls.append(j)
            return pilot(population, j, **kwargs)

        def counted_predict(*args):
            predict_calls.append(1)
            return predict(*args)

        monkeypatch.setattr(collsim.experiments, "pilot_block_variance", counted_pilot)
        monkeypatch.setattr(collsim.experiments, "sigma2_for_population", counted_predict)
        argv = argv + ["--n-accounts", "200", "--portfolio-probs", "0.5", "0.5", "--seed", "0"]
        assert main(argv + ["--emulator", str(emulator_file), "--out", str(tmp_path)]) == 0
        assert sorted(pilot_calls) == pilots  # the population has a block in each portfolio
        assert predict_calls == [1]


class TestCoverageStudy:
    def test_small_study_with_checkpoint_resume(self, tmp_path):
        args = ["coverage-study", "--out", str(tmp_path), "--n-accounts", "25", "--seed", "6"]
        rc = main(args + ["--repetitions", "3"])
        assert rc == 0
        doc = json.loads((tmp_path / "coverage_report.json").read_text())
        assert doc["repetitions"] == 3
        assert 0.0 <= doc["coverage"] <= 1.0


class TestImportFootprint:
    def test_scipy_loads_only_for_the_emulator(self, tmp_path):
        script = f"""
import sys
import collsim, collsim.cli, collsim.experiments
from collsim.experiments import ExperimentConfig, coverage_study

def loaded():
    print("loaded:", *(name in sys.modules for name in ("scipy.special", "scipy.optimize", "scipy.linalg")))

print("any scipy:", any(name == "scipy" or name.startswith("scipy.") for name in sys.modules))
assert collsim.cli.main(["simulate", "--n-accounts", "300", "--threads", "1", "--out", r"{tmp_path / 'sim'}"]) == 0
coverage_study(ExperimentConfig(n_accounts=200, repetitions=1, interval_method="M1", threads=1))
loaded()
argv = ["train-emulator", "--points-per-slice", "10", "--train-realisations", "150", "--threads", "1"]
assert collsim.cli.main(argv + ["--out", r"{tmp_path / 'emu'}"]) == 0
loaded()
"""
        lines = [line for line in run_fresh(script).splitlines() if line.startswith(("loaded:", "any scipy:"))]
        assert lines == ["any scipy: False", "loaded: False False False", "loaded: True True True"]
