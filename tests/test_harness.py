import csv
import hashlib
import io
import json
import warnings

import numpy as np
import pytest

from accelcert import ConfigError, execute, parse_config
from accelcert import harness
from accelcert.harness import (ExperimentConfig, build_objective,
                               check_x0_length, fmt, load_config, output_file,
                               resolve_s, resolve_x0, suite, write_csv,
                               write_ode_csv)
from accelcert.hires_ode import integrate
from accelcert.objectives import make_quadratic
from accelcert import cli

MINIMAL = {
    "objective": "quad",
    "spectrum": [1, 100],
    "method": "iv-phase",
    "s": "1/L",
    "K": 100,
    "seed": 1,
}


def config_with(**overrides):
    doc = dict(MINIMAL)
    doc.update(overrides)
    return parse_config(json.dumps(doc))


class TestParseConfig:
    def test_minimal_resolves_symbolic_s(self):
        config = config_with()
        f = build_objective(config)
        assert resolve_s(config.s, f) == pytest.approx(0.01)

    def test_quarter_mu_step(self):
        config = config_with(spectrum=[1, 3], s="1/(4mu)")
        f = build_objective(config)
        assert resolve_s(config.s, f) == pytest.approx(0.25)

    def test_missing_method_names_field(self):
        doc = dict(MINIMAL)
        del doc["method"]
        with pytest.raises(ConfigError, match="method"):
            parse_config(json.dumps(doc))

    def test_missing_objective_param_names_field(self):
        doc = dict(MINIMAL)
        del doc["spectrum"]
        with pytest.raises(ConfigError, match="spectrum"):
            parse_config(json.dumps(doc))

    def test_rejects_bad_documents(self):
        with pytest.raises(ConfigError):
            parse_config("not json")
        with pytest.raises(ConfigError):
            parse_config(json.dumps({**MINIMAL, "method": "unknown"}))
        with pytest.raises(ConfigError):
            parse_config(json.dumps({**MINIMAL, "s": "2/L"}))
        with pytest.raises(ConfigError):
            parse_config(json.dumps({**MINIMAL, "s": -1.0}))
        with pytest.raises(ConfigError):
            parse_config(json.dumps({**MINIMAL, "K": -3}))
        with pytest.raises(ConfigError):
            parse_config(json.dumps({**MINIMAL, "bound": "rate-gc"}))

    @pytest.mark.parametrize("field, overrides, says", [
        ("lyapunov", {"lyapunov": "iv", "method": "gd"},
         "form 'iv' applies to methods ('iv-phase', 'nag-modified'), not 'gd'"),
        ("lyapunov", {"lyapunov": "xx"}, "unknown form 'xx'; expected one of"),
        ("bound", {"bound": "rate-gc"},
         "theorem 'rate-gc' applies to methods ('gc-phase', 'gc-modified'), "
         "not 'iv-phase'"),
        ("bound", {"bound": "nope"}, "unknown theorem 'nope'; expected one of"),
    ], ids=repr)
    def test_pairing_errors_name_their_field(self, field, overrides, says):
        # the library's own pairing check, prefixed with the config field
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps({**MINIMAL, **overrides}))
        assert str(err.value).startswith(f"{field}: {says}")

    @pytest.mark.parametrize("key, overrides", [
        ("lyapnov", {"lyapnov": "iv"}),  # a misspelled optional field
        ("rotation_seed", {"rotation_seed": 3}),  # a quad-rot parameter
        ("data_seed", {"objective": "quad-rot", "rotation_seed": 3,
                       "data_seed": 3}),  # a reg-logistic parameter
    ], ids=repr)
    def test_unknown_field_named(self, key, overrides):
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps({**MINIMAL, **overrides}))
        assert str(err.value) == f"unknown field: {key}"

    def test_lossless_round_trip(self):
        config = config_with(x0={"random_ball": {"radius": 2.0}},
                             lyapunov="iv", bound="rate-iv",
                             output_path="r.csv")
        again = parse_config(json.dumps(config.to_dict()))
        assert again == config

    def test_x0_forms(self):
        f = build_objective(config_with())
        explicit = config_with(x0=[1.0, 2.0])
        np.testing.assert_array_equal(resolve_x0(explicit, f), [1.0, 2.0])
        seeded = config_with(x0={"random_ball": {"radius": 2.0}})
        a = resolve_x0(seeded, f)
        b = resolve_x0(seeded, f)
        np.testing.assert_array_equal(a, b)
        assert np.linalg.norm(a) <= 2.0
        with pytest.raises(ConfigError):
            check_x0_length([1.0, 2.0, 3.0], config_with().objective_params)


class TestExecute:
    def test_deterministic_bytes(self, tmp_path):
        config = config_with(x0=[1.0, 1.0], bound="rate-iv", lyapunov="iv",
                             output_path="run.csv")
        first = execute(config, out_root=tmp_path / "a")
        second = execute(config, out_root=tmp_path / "b")
        assert first.csv_path.read_bytes() == second.csv_path.read_bytes()
        assert first.summary_path.read_text() == second.summary_path.read_text()

    def test_bound_summary_line(self, tmp_path):
        config = config_with(x0=[1.0, 1.0], bound="rate-iv")
        result = execute(config, out_root=tmp_path)
        assert result.ok
        text = result.summary_path.read_text()
        assert "bound_violations: 0" in text
        assert "bound_guaranteed: true" in text

    def test_unguaranteed_step_flagged(self, tmp_path):
        config = config_with(s=0.02, x0=[0.1, 0.1], bound="rate-iv", K=30)
        with pytest.warns(UserWarning):
            result = execute(config, out_root=tmp_path)
        assert "bound_guaranteed: false" in result.summary_path.read_text()

    def test_csv_schema(self, tmp_path):
        plain = execute(config_with(x0=[1.0, 1.0]), out_root=tmp_path)
        header = plain.csv_path.read_text().splitlines()[0]
        assert header == "k,f_gap,grad_norm"
        full = execute(config_with(x0=[1.0, 1.0], bound="rate-iv",
                                   lyapunov="iv", output_path="full.csv"),
                       out_root=tmp_path)
        header = full.csv_path.read_text().splitlines()[0]
        assert header == "k,f_gap,grad_norm,lyapunov,bound"
        rows = full.csv_path.read_text().splitlines()
        assert len(rows) == 102  # header + K+1 records

    def test_echo_reproduces_run(self, tmp_path):
        config = config_with(x0={"random_ball": {"radius": 2.0}},
                             lyapunov="iv", output_path="orig.csv")
        original = execute(config, out_root=tmp_path / "a")
        echoed = load_config(original.echo_path)
        assert isinstance(echoed.s, float)  # symbolic step resolved
        assert isinstance(echoed.x0, list)  # seeded start made explicit
        replay = execute(echoed, out_root=tmp_path / "b")
        assert original.csv_path.read_bytes() == replay.csv_path.read_bytes()

    @pytest.mark.filterwarnings("ignore:.*exceeds 1/L")
    @pytest.mark.parametrize("doc", [
        # the configs that tests/test_harness.py executes
        MINIMAL,
        {**MINIMAL, "x0": [1.0, 1.0], "bound": "rate-iv", "lyapunov": "iv"},
        {**MINIMAL, "s": 0.02, "x0": [0.1, 0.1], "bound": "rate-iv", "K": 30},
        {**MINIMAL, "x0": {"random_ball": {"radius": 2.0}}, "lyapunov": "iv"},
        {"objective": "reg-logistic", "data_seed": 3, "n_samples": 50,
         "dim": 2, "reg": 0.1, "method": "iv-phase", "s": "1/L", "K": 50,
         "seed": 2, "bound": "rate-iv"},
        # those of tests/test_golden_digests.py and tests/test_oracle_budget.py
        {"objective": "quad", "spectrum": np.logspace(0, 2, 20).tolist(),
         "method": "iv-phase", "s": "1/L", "K": 150, "seed": 5,
         "x0": {"random_ball": {"radius": 2.0}}, "lyapunov": "iv",
         "bound": "rate-iv"},
        {"objective": "quad-rot", "spectrum": [0.5, 3.0], "rotation_seed": 11,
         "method": "gc-phase", "s": "1/L", "K": 150, "seed": 6,
         "x0": {"random_ball": {"radius": 2.0}}, "lyapunov": "gc",
         "bound": "rate-gc"},
        {"objective": "reg-logistic", "data_seed": 3, "n_samples": 50, "dim": 2,
         "reg": 0.1, "method": "nag-modified", "s": "1/L", "K": 150, "seed": 7,
         "x0": {"random_ball": {"radius": 2.0}}, "lyapunov": "iv",
         "bound": "rate-iv"},
        {"objective": "quad", "spectrum": [1.0], "method": "gc-modified",
         "s": "1/L", "K": 25, "seed": 2, "lyapunov": "gc", "bound": "rate-gc"},
    ], ids=lambda doc: f"{doc['objective']}-{doc['method']}-K{doc['K']}")
    def test_every_echo_replays_byte_for_byte(self, tmp_path, doc):
        # the echo holds only known fields, so it parses, and it re-executes
        # to the same CSV, summary and echo bytes
        original = execute(parse_config(json.dumps(doc)),
                           out_root=tmp_path / "a")
        replay = execute(load_config(original.echo_path),
                         out_root=tmp_path / "b")
        for path in (original.csv_path, original.summary_path,
                     original.echo_path):
            assert path.read_bytes() == (
                tmp_path / "b" / path.relative_to(tmp_path / "a")).read_bytes()
        assert replay.ok == original.ok

    def test_logistic_run_resolves_minimizer(self, tmp_path):
        config = parse_config(json.dumps({
            "objective": "reg-logistic", "data_seed": 3, "n_samples": 50,
            "dim": 2, "reg": 0.1, "method": "iv-phase", "s": "1/L",
            "K": 50, "seed": 2, "bound": "rate-iv",
        }))
        result = execute(config, out_root=tmp_path)
        assert result.ok
        assert "bound_violations: 0" in result.summary_path.read_text()


class TestOdeCsv:
    def test_schema_and_units(self, tmp_path):
        f = make_quadratic([1, 4])
        sol = integrate(f, np.array([1.0, 0.5]), s=0.25, T=0.1, h=1e-2)
        path = tmp_path / "ode.csv"
        write_ode_csv(sol, f, 0.25, f.mu, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,X0,X1,Xdot0,Xdot1,f_gap,lyapunov"
        assert len(lines) == 12  # header + 11 samples


class TestSuites:
    def test_figures_suite_writes_files(self, tmp_path):
        assert suite("figures", out_root=tmp_path) == 0
        for method in ("gd", "heavy-ball", "nag-classic", "nag-modified",
                       "iv-phase"):
            path = tmp_path / f"fig_gap_{method}.csv"
            assert path.exists()
            assert path.read_text().splitlines()[0] == "k,f_gap,grad_norm"

    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigError):
            suite("benchmarks")

    def test_broken_momentum_coefficient_fails_acceptance(self, monkeypatch):
        # mutation check: the two schemes coincide only at the true
        # coefficient, so corrupting it must break the equivalence criterion
        from accelcert import acceptance, optimizers

        true_coefficients = optimizers.step_coefficients

        def corrupted(mu, s):
            return true_coefficients(mu, s)._replace(
                c=1.0 + 2.05 * (mu * s) ** 0.5)

        monkeypatch.setattr(optimizers, "step_coefficients", corrupted)
        result = acceptance.criterion_1()
        assert not result.passed


class TestCli:
    def test_run_exit_codes(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**MINIMAL, "x0": [1.0, 1.0],
                                    "bound": "rate-iv"}))
        assert cli.main(["run", "--config", str(path),
                         "--out", str(tmp_path)]) == 0

    def test_bad_config_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**MINIMAL, "method": "unknown"}))
        assert cli.main(["run", "--config", str(path),
                         "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("overrides", [
        {"spectrum": "abc"}, {"spectrum": [1, -4]}, {"spectrum": []},
        {"spectrum": [1, True]},
        {"objective": "quad-rot", "spectrum": [1, 4], "rotation_seed": "x"},
        {"objective": "quad-rot", "spectrum": [1, 4], "rotation_seed": -1},
        {"x0": ["a", "b"]}, {"x0": [1.0, True]},
        {"x0": {"random_ball": {"radius": "big"}}},
        {"x0": {"random_ball": "radius"}},
        {"x0": {"random_ball": {"radius": 1, "seed": 4}}},
        {"lyapnov": "iv"}, {"rotation_seed": 3},
        {"s": True}, {"K": True}, {"seed": True}, {"seed": -1},
        {"lyapunov": ["iv"]}, {"bound": {"rate-iv": 1}},
        {"objective": "reg-logistic", "data_seed": 3, "n_samples": 0,
         "dim": 2, "reg": 0.1},
        {"objective": "reg-logistic", "data_seed": 3, "n_samples": 20,
         "dim": 2, "reg": "big"},
    ], ids=repr)
    def test_malformed_field_exits_2(self, tmp_path, capsys, overrides):
        # a malformed field is a config error, never a traceback
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**MINIMAL, **overrides}))
        assert cli.main(["run", "--config", str(path),
                         "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_missing_config_exits_2(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path)]) == 2

    def test_ode_subcommand(self, tmp_path, capsys):
        rc = cli.main(["ode", "--objective", "quad", "--spectrum", "1,4",
                       "--s", "0.25", "--T", "1.0", "--h", "0.001",
                       "--x0", "1.0,0.5", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "ode.csv").exists()
        out = capsys.readouterr()
        assert "bound_violations: 0" in out.out
        assert out.err == ""  # a start the bound holds from gets no note

    @pytest.mark.parametrize("args, named", [
        (["--spectrum", "1,-4"], "--spectrum"),
        (["--s", "-1"], "--s"),
        (["--h", "0"], "--h"),
        (["--objective", "reg-logistic", "--n-samples", "0"], "--n-samples"),
        (["--T", "-1"], "--T"),
        (["--h", "0.3"], "--T"),  # T = 1 is not a whole number of steps
        (["--x0", "1"], "--x0"),  # the spectrum is 2-d
    ], ids=repr)
    def test_ode_bad_argument_exits_2(self, tmp_path, capsys, args, named):
        # a value argparse accepts but the run cannot take is a config
        # error naming the argument, never a traceback
        rc = cli.main(["ode", "--s", "0.25", "--T", "1", "--h", "0.01",
                       *args, "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"config error: {named}:")
        assert not (tmp_path / "ode.csv").exists()

    @pytest.mark.parametrize("command, named", [
        (["ode", "--s", "0.25", "--T", "1000", "--h", "2", "--x0", "1,0.5"],
         "--h"),  # RK4 at h = 2 diverges; non-finite at t = 840
        (["scan", "--mu", "1", "--spectrum", "1,3", "--s-grid", "5",
          "--K", "500"], "--s-grid"),  # diverges at step 453
    ], ids=["ode", "scan"])
    def test_diverging_run_exits_2_and_writes_nothing(self, tmp_path, capsys,
                                                      command, named):
        # a step the run diverges at is a config error naming its flag, with
        # no RuntimeWarning for the overflow on the way, and the output
        # directories are made only after the run succeeds
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = cli.main([*command, "--out", str(out),
                           "--output-path", "sub/o.csv"])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"config error: {named}:")
        assert not out.exists()

    def test_ode_nested_output_path(self, tmp_path, capsys):
        # the directories of --output-path are created, as execute does
        rc = cli.main(["ode", "--spectrum", "1,4", "--s", "0.25", "--T", "1",
                       "--h", "0.01", "--x0", "1,0.5", "--out", str(tmp_path),
                       "--output-path", "sub/dir/o.csv"])
        assert rc == 0
        assert (tmp_path / "sub" / "dir" / "o.csv").exists()
        assert (tmp_path / "sub" / "dir" / "o.summary.txt").exists()

    def test_scan_subcommand(self, tmp_path, capsys):
        rc = cli.main(["scan", "--mu", "1", "--spectrum", "1,3",
                       "--s-grid", "0.26,0.30", "--K", "100",
                       "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "scan.csv").read_text().splitlines()
        assert lines[0] == ("s,lambda,discriminant,root1_re,root1_im,"
                            "root2_re,root2_im,predicted_monotone,"
                            "observed_monotone")
        assert len(lines) == 5  # header + 2 s values x 2 eigenvalues
        assert "agreement: true" in capsys.readouterr().out

    @pytest.mark.parametrize("args, named", [
        (["--mu", "-1"], "--mu"),
        (["--spectrum", "1,-3"], "--spectrum"),
        (["--s-grid", "-0.2"], "--s-grid"),
        (["--K", "-1"], "--K"),
        (["--x0", "1"], "--x0"),  # the spectrum is 2-d
        (["--seed", "-1"], "--seed"),
        (["--mu", "2"], "--mu"),  # above the smallest eigenvalue, 1
        (["--s-grid", "5", "--K", "500"], "--s-grid"),  # diverges at step 453
        (["--s-grid", ","], "--s-grid"),  # no step size
    ], ids=repr)
    def test_scan_bad_argument_exits_2(self, tmp_path, capsys, args, named):
        rc = cli.main(["scan", "--mu", "1", "--spectrum", "1,3",
                       "--s-grid", "0.26", "--K", "10",
                       *args, "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"config error: {named}:")
        assert not (tmp_path / "scan.csv").exists()

    @pytest.mark.parametrize("key, value, command, flag_value", [
        ("spectrum", [1, -3], "scan", "1,-3"),
        ("K", -1, "scan", "-1"),
        ("seed", -1, "scan", "-1"),
    ], ids=repr)
    def test_config_key_and_flag_share_a_rule(self, tmp_path, capsys, key,
                                              value, command, flag_value):
        # one rule checks the config field and the CLI flag, and each
        # error names the key or the flag it came from
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**MINIMAL, key: value}))
        assert cli.main(["run", "--config", str(path),
                         "--out", str(tmp_path)]) == 2
        config_err = capsys.readouterr().err
        assert config_err.startswith(f"config error: {key}: must be ")
        base = {"ode": ["ode", "--s", "0.25", "--T", "1", "--h", "0.01"],
                "scan": ["scan", "--mu", "1", "--spectrum", "1,3",
                         "--s-grid", "0.26", "--K", "10"]}[command]
        assert cli.main([*base, f"--{key}", flag_value,
                         "--out", str(tmp_path)]) == 2
        flag_err = capsys.readouterr().err
        assert flag_err.startswith(f"config error: --{key}: must be ")
        assert (config_err.split(": must be ")[1]
                == flag_err.split(": must be ")[1])

    @pytest.mark.parametrize("key, value, config_form, base, flag_form", [
        ("s", -1, "a positive number or one of ('1/L', '1/(2L)', '1/(4mu)')",
         ["ode", "--T", "1", "--h", "0.01"], "a positive number"),
        ("x0", [float("inf"), 1.0],
         'an array of finite numbers or {"random_ball": {"radius": r}} '
         "with r >= 0",
         ["scan", "--mu", "1", "--spectrum", "1,3", "--s-grid", "0.26"],
         "comma-separated finite numbers"),
    ], ids=["s", "x0"])
    def test_flag_message_names_what_the_flag_takes(
            self, tmp_path, capsys, key, value, config_form, base, flag_form):
        # --s takes no symbol and --x0 no random_ball, so their messages
        # name only the forms the flag accepts; the config field's message
        # still names every form the field accepts
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**MINIMAL, key: value}))
        assert cli.main(["run", "--config", str(path),
                         "--out", str(tmp_path)]) == 2
        assert (capsys.readouterr().err
                == f"config error: {key}: must be {config_form}\n")
        flag_value = ",".join(map(str, value)) if key == "x0" else str(value)
        assert cli.main([*base, f"--{key}", flag_value,
                         "--out", str(tmp_path)]) == 2
        assert (capsys.readouterr().err
                == f"config error: --{key}: must be {flag_form}\n")

    def test_bad_x0_length_makes_no_output_directory(self, tmp_path, capsys):
        # the objective, s and x0 are resolved before the output
        # directories are made, so a config error leaves none behind
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**MINIMAL, "x0": [1, 2, 3],
                                    "output_path": "deep/dir/r.csv"}))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path),
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: x0: length")
        assert not (out / "deep").exists()

    def test_bad_x0_length_is_caught_before_the_objective(
            self, tmp_path, capsys, monkeypatch):
        # the parameters give the dimension, so a wrong-length x0 costs no
        # objective build (nor its minimizer search), in run and in ode
        def no_build(*args):
            raise AssertionError("the objective was built")

        monkeypatch.setattr(harness, "build_objective", no_build)
        monkeypatch.setattr(cli, "objective_from_params", no_build)
        params = {"objective": "reg-logistic", "data_seed": 3,
                  "n_samples": 2000, "dim": 20, "reg": 0.01}
        doc = {key: value for key, value in MINIMAL.items()
               if key != "spectrum"}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**doc, **params, "x0": [1, 2, 3]}))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path),
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: x0: length 3 does not match dimension 20\n")
        assert cli.main(["ode", "--objective", "reg-logistic",
                         "--n-samples", "2000", "--dim", "20", "--s", "0.25",
                         "--T", "1", "--h", "0.01", "--x0", "1,2,3",
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: --x0: length 3 does not match dimension 20\n")
        assert not out.exists()

    def test_unknown_symbolic_s_is_the_s_rule(self, tmp_path):
        # a config built in code skips parse_config; resolve_s checks it
        # with the same rule and message
        config = ExperimentConfig(
            objective="quad", objective_params={"spectrum": [1, 100]},
            method="iv-phase", s="1/M", K=10, seed=1, output_path="d/r.csv")
        with pytest.raises(ConfigError, match=r"^s: must be a positive "
                           r"number or one of \('1/L'"):
            execute(config, out_root=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_scan_nested_output_path(self, tmp_path):
        rc = cli.main(["scan", "--mu", "1", "--spectrum", "1,3",
                       "--s-grid", "0.26,0.3", "--K", "100",
                       "--out", str(tmp_path), "--output-path", "sub/s.csv"])
        assert rc == 0
        assert (tmp_path / "sub" / "s.csv").exists()

    @pytest.mark.parametrize("command", [
        ["ode", "--s", "0.25", "--T", "1", "--h", "0.01", "--x0", "1,0.5"],
        ["scan", "--mu", "1", "--spectrum", "1,3", "--s-grid", "0.3",
         "--K", "50"],
    ], ids=["ode", "scan"])
    def test_output_path_through_a_file_exits_2(self, tmp_path, capsys,
                                                command):
        # an --output-path whose directory is an existing file is an
        # output error (exit 2), not a certificate failure (exit 1)
        (tmp_path / "file").write_text("")
        rc = cli.main([*command, "--out", str(tmp_path),
                       "--output-path", "file/o.csv"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_ode_names_a_bad_start(self, tmp_path, capsys):
        # from the default x0 = ones on [1, 4], f(x0) - f* = 2.5 exceeds
        # mu ||x0 - x*||^2 = 2, so the envelope fails at t = 0
        rc = cli.main(["ode", "--spectrum", "1,4", "--s", "0.25", "--T", "1",
                       "--h", "0.01", "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "start breaks f(x0) - f* <= mu ||x0 - x*||^2" in err
        assert "(2.5 > 2.0)" in err

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["suite", "nonexistent"])
        assert err.value.code == 2

    def test_output_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ACCELCERT_OUT", str(tmp_path / "envroot"))
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**MINIMAL, "x0": [1.0, 1.0]}))
        assert cli.main(["run", "--config", str(path)]) == 0
        assert (tmp_path / "envroot" / "quad_iv-phase_K100.csv").exists()

    def test_output_file(self, tmp_path):
        # a relative path lands under the root with its parent created; an
        # absolute one stays as it is
        path = output_file(tmp_path / "root", "a/b.csv")
        assert path == tmp_path / "root" / "a" / "b.csv"
        assert path.parent.is_dir() and not path.exists()
        assert output_file(tmp_path, tmp_path / "c.csv") == tmp_path / "c.csv"


def mixed_table(n=600):
    """Columns of every kind the writer meets, over several 256-row blocks:
    floats with NaN, +-inf and -0.0, bools, ints, range and a list."""
    rng = np.random.default_rng(0)
    floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    floats[::7] = np.nan
    floats[1:4] = [np.inf, -np.inf, -0.0]
    return {"k": range(n), "x": floats, "ok": floats > 0,
            "n": rng.integers(-5, 5, n), "list": floats[::-1].tolist()}


class TestWriteCsv:
    def test_fmt_cells(self):
        assert fmt(0.1) == "0.1" and fmt(np.float64(1e-300)) == "1e-300"
        assert fmt(float("nan")) == ""
        assert (fmt(True), fmt(np.bool_(False))) == ("true", "false")
        assert (fmt(7), fmt("x")) == ("7", "x")

    def test_header_then_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv({"k": range(3), "v": np.array([0.5, np.nan, 1e-20]),
                   "ok": [True, False, True]}, path)
        assert path.read_text().splitlines() == [
            "k,v,ok", "0,0.5,true", "1,,false", "2,1e-20,true"]

    def test_no_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv({"a": [], "b": np.empty(0)}, path)
        assert path.read_text().splitlines() == ["a,b"]

    def test_float_columns_match_fmt_bytes(self, tmp_path):
        # float columns are formatted inline; the file has the bytes of
        # formatting every cell with fmt, across several 256-row blocks
        columns = mixed_table()
        n = len(columns["k"])
        path = tmp_path / "t.csv"
        write_csv(columns, path)
        rows = [",".join(columns)] + [
            ",".join(fmt(col[i]) for col in columns.values()) for i in range(n)]
        want = "".join(row + "\r\n" for row in rows)
        got = path.read_bytes()
        assert hashlib.sha256(got).digest() == hashlib.sha256(
            want.encode()).digest()

    @pytest.mark.parametrize("columns", [
        mixed_table(),
        # a row whose one cell is empty is written "", not as a blank line
        {"a": np.array([np.nan, 1.0])},
        {"a": [], "b": np.empty(0)},
        # non-float cells with a delimiter, quote, CR or LF are quoted
        {"s": ["a,b", 'say "x"', "cr\rlf\n", "", "plain"],
         "x": [1.0, np.nan, 2.5, np.nan, -0.0]},
        {'h,"1"': ["", "v"]},
    ], ids=["mixed", "one-column-nan", "no-rows", "strings", "quoted-header"])
    def test_bytes_match_csv_writer(self, tmp_path, columns):
        # the writer joins rows itself; its bytes are those of csv.writer
        # over the fmt cells, quoting and the lone empty cell included
        out = io.StringIO(newline="")
        writer = csv.writer(out)
        writer.writerow(columns)
        writer.writerows(zip(*[[fmt(v) for v in col]
                               for col in columns.values()]))
        path = tmp_path / "t.csv"
        write_csv(columns, path)
        assert path.read_bytes() == out.getvalue().encode()
        if list(columns) == ["a"]:
            assert path.read_bytes() == b'a\r\n""\r\n1.0\r\n'
