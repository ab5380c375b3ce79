import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import symtest
from symtest.cli import _fmt, main, parse_scenario
from symtest.discrimination import error_pair, np_test
from symtest.errors import ScenarioError
from symtest.groups import twirled_pair


def scenario_doc(**overrides):
    doc = {
        "name": "pure-vs-mixed demo",
        "rho0": "pure-qubit 0.5",
        "rho1": "diag 0.3",
        "group": {"type": "torus", "weights": [0, 1]},
        "n_max": 4,
    }
    doc.update(overrides)
    return doc


def write_scenario(tmp_path, **overrides):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_doc(**overrides)))
    return str(path)


class TestParseScenario:
    def test_constructors_and_kind_inference(self):
        sc = parse_scenario(json.dumps(scenario_doc()))
        assert sc.kind == "TorusPureVsMixed"
        assert sc.params["alpha"] == 0.3
        assert_allclose(sc.rho1.mat, np.diag([0.3, 0.7]), atol=1e-15)

    def test_dense_matrix_entries(self):
        doc = scenario_doc(
            rho0=[[[0.5, 0.0], [0.0, -0.5]], [[0.0, 0.5], [0.5, 0.0]]],
        )
        sc = parse_scenario(json.dumps(doc))
        assert_allclose(sc.rho0.mat, np.array([[0.5, -0.5j], [0.5j, 0.5]]), atol=1e-15)

    def test_conjugated_mixture_entries(self):
        # expanding the two Hadamard projectors by hand gives constant 1/2 on
        # the diagonal and lam - 1/2 off it, with eigenvalues {lam, 1 - lam}
        doc = scenario_doc(
            rho0="bernoulli-conjugated 0.2",
            rho1="bernoulli-conjugated 0.7",
            group={"type": "finite", "unitaries": [
                [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
            ]},
        )
        sc = parse_scenario(json.dumps(doc))
        assert sc.kind == "Z2Commuting"
        assert_allclose(sc.rho0.mat, [[0.5, -0.3], [-0.3, 0.5]], atol=1e-15)
        assert_allclose(np.linalg.eigvalsh(sc.rho0.mat), [0.2, 0.8], atol=1e-12)
        assert np.trace(sc.rho0.mat).real == pytest.approx(1.0)

    def test_bad_trace_reported(self):
        doc = scenario_doc(rho0=[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.4, 0.0]]])
        with pytest.raises(ScenarioError, match="trace"):
            parse_scenario(json.dumps(doc))

    def test_unknown_constructor(self):
        with pytest.raises(ScenarioError, match="unknown constructor"):
            parse_scenario(json.dumps(scenario_doc(rho0="haar 0.3")))

    def test_malformed_json_has_position(self):
        with pytest.raises(ScenarioError, match=r"line 1"):
            parse_scenario("{not json")

    def test_missing_key(self):
        doc = scenario_doc()
        del doc["group"]
        with pytest.raises(ScenarioError, match="group"):
            parse_scenario(json.dumps(doc))

    @pytest.mark.parametrize("overrides,message", [
        ({"kind": "Bogus"}, "no closed form for scenario kind 'Bogus'"),
        ({"kind": "TorusTwoPure"}, "needs the parameter 'lam'"),
        ({"params": [1, 2]}, "params must be an object of finite numbers"),
        ({"params": "ab"}, "params must be an object of finite numbers"),
        ({"params": {"alpha": "x"}}, "params must be an object of finite numbers"),
        ({"params": {"alpha": None}}, "params must be an object of finite numbers"),
        ({"params": {"alpha": True}}, "params must be an object of finite numbers"),
        ({"params": {"alpha": math.nan}}, "params must be an object of finite numbers"),
        ({"n_max": True}, "n_max must be a positive integer, got True"),
        ({"group": {"type": "finite", "unitaries": 5}}, "bad finite group"),
        ({"group": {"type": "finite", "unitaries": [{}]}}, "bad finite group"),
        ({"group": {"type": "torus", "weights": ["a", "b"]}}, "bad torus group"),
        ({"group": {"type": "torus", "weights": [True, False]}}, "bad torus group"),
        ({"group": {"type": "torus", "weights": [0, 1e300]}}, "bad torus group"),
        ({"group": {"type": "torus", "weights": [0, 2**63]}}, "bad torus group"),
        ({"group": {"type": "finite", "unitaries": [[[[1, 0], [0, 0]]]]}},
         "bad finite group: expected a square matrix"),
        ({"group": {"type": "finite", "unitaries": [
            [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], [[[1, 0]]]]}},
         "bad finite group: all group unitaries must share one dimension"),
    ], ids=["unknown-kind", "missing-parameter", "params-list", "params-string",
            "params-text-value", "params-null-value", "params-bool-value", "params-nan-value",
            "n_max-bool", "group-unitaries-number", "group-unitaries-object",
            "group-weights-text", "group-weights-bool", "group-weights-1e300",
            "group-weights-2**63", "group-unitary-not-square", "group-unitaries-mixed-dims"])
    def test_kind_without_closed_form_is_exit_2(self, tmp_path, capsys, overrides, message):
        path = write_scenario(tmp_path, rho0="diag 0.5", **overrides)
        for command in ("stein", "beta-eps"):
            assert main(["--scenario", path, "--command", command]) == 2
            assert message in capsys.readouterr().err

    def test_edge_constructors_infer_no_kind(self):
        # the torus closed forms need parameters strictly inside (0, 1)
        assert parse_scenario(json.dumps(scenario_doc(rho1="diag 1.0"))).kind is None

    def test_z2_kind_needs_the_sign_flip(self):
        # the bit flip {I, X} leaves bernoulli-conjugated states as they are,
        # so the sign flip's closed form does not hold; -Z is the sign flip
        # up to a phase
        flips = {"bit": [[0, 1], [1, 0]], "sign": [[1, 0], [0, -1]], "minus sign": [[-1, 0], [0, 1]]}
        kinds = {}
        for name, u in flips.items():
            group = {"type": "finite", "unitaries": [
                [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                [[[u[0][0], 0], [u[0][1], 0]], [[u[1][0], 0], [u[1][1], 0]]]]}
            doc = scenario_doc(rho0="bernoulli-conjugated 0.2", rho1="bernoulli-conjugated 0.7",
                               group=group)
            kinds[name] = parse_scenario(json.dumps(doc)).kind
        assert kinds == {"bit": None, "sign": "Z2Commuting", "minus sign": "Z2Commuting"}

    def test_group_dimension_mismatch(self):
        doc = scenario_doc(group={"type": "torus", "weights": [0, 1, 2]})
        with pytest.raises(ScenarioError, match="dimension"):
            parse_scenario(json.dumps(doc))


class TestShippedScenarios:
    @pytest.mark.parametrize("name,kind", [
        ("two-commuting", "Z2Commuting"),
        ("pure-vs-mixed", "TorusPureVsMixed"),
        ("two-pure", "TorusTwoPure"),
    ])
    def test_parse_and_run(self, tmp_path, name, kind):
        import pathlib

        path = pathlib.Path(__file__).resolve().parent.parent / "scenarios" / f"{name}.json"
        sc = parse_scenario(path.read_text())
        assert sc.kind == kind
        out = tmp_path / "table.csv"
        assert main(["--scenario", str(path), "--command", "chernoff",
                     "--n-max", "2", "--out", str(out)]) == 0
        assert out.read_text().startswith("n,label,chernoff")


    @pytest.mark.parametrize("name", ["two-commuting", "pure-vs-mixed", "two-pure"])
    def test_convergence_holds_at_n_40(self, tmp_path, monkeypatch, name):
        # every twirled row at n <= 40 stays above its limit; blocks cut at
        # 2^n eps made this fail at n = 22 (two-pure), 27 and 34
        monkeypatch.setenv("SYMTEST_DIM_CAP", str(2**40))
        path = Path(__file__).resolve().parent.parent / "scenarios" / f"{name}.json"
        assert main(["--scenario", str(path), "--command", "convergence", "--n-max", "40",
                     "--out", str(tmp_path / "convergence.csv")]) == 0


class TestCommands:
    def test_psi_csv(self, tmp_path):
        out = tmp_path / "psi.csv"
        code = main([
            "--scenario", write_scenario(tmp_path, n_max=2),
            "--command", "psi", "--s-grid", "0:1:5",
            "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "s,value,n,label"
        # unrestricted + two twirled levels + closed form, five points each
        assert len(lines) == 1 + 4 * 5

    def test_csv_byte_stable(self, tmp_path):
        scenario = write_scenario(tmp_path, n_max=3)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            assert main([
                "--scenario", scenario, "--command", "pmin", "--out", str(out),
            ]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_pmin_schema_and_bounds(self, tmp_path):
        out = tmp_path / "pmin.csv"
        assert main([
            "--scenario", write_scenario(tmp_path, n_max=3),
            "--command", "pmin", "--out", str(out),
        ]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,a_or_eps,beta0,beta1,bound_lo,bound_hi"
        for line in lines[1:]:
            n, a, b0, b1, lo, hi = (float(x) for x in line.split(","))
            weight = math.exp(-n * a)
            assert lo - 1e-9 <= weight * b0 + b1 <= hi + 1e-9

    def test_beta_eps_schema(self, tmp_path):
        out = tmp_path / "beta.csv"
        assert main([
            "--scenario", write_scenario(tmp_path, n_max=3),
            "--command", "beta-eps", "--eps", "0.2", "--out", str(out),
        ]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,a_or_eps,beta0,beta1,bound_lo,bound_hi"
        for line in lines[1:]:
            _, eps, _, beta1, lo, hi = (float(x) for x in line.split(","))
            assert eps == 0.2
            assert lo <= beta1 + 1e-9
            assert beta1 <= hi + 1e-9

    @pytest.mark.parametrize("rho0,rho1", [("diag 0.5", "diag 1.0"), ("diag 1.0", "diag 0.0")],
                             ids=["support-not-nested", "orthogonal"])
    def test_beta_eps_floor_needs_nested_supports(self, tmp_path, rho0, rho1):
        # psi_n(s > 1) is +inf when supp rho0 leaves supp rho1, so no floor holds
        out = tmp_path / "beta.csv"
        assert main(["--scenario", write_scenario(tmp_path, rho0=rho0, rho1=rho1, n_max=3),
                     "--command", "beta-eps", "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert [row.split(",")[4] for row in rows] == ["-inf"] * 3

    @pytest.mark.parametrize("overrides", [
        {"rho0": "pure-qubit 0.3", "rho1": "pure-qubit 0.6"},
        {"rho0": [[[0.6, 0.0], [0.2, 0.1]], [[0.2, -0.1], [0.4, 0.0]]],
         "rho1": [[[0.3, 0.0], [-0.15, 0.05]], [[-0.15, -0.05], [0.7, 0.0]]],
         "group": {"type": "finite", "unitaries": [
             [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
             [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
         ]}},
    ], ids=["two-pure", "dense-sign-flip"])
    @pytest.mark.parametrize("eps", ["0.1", "0.3"])
    def test_beta_eps_bound_hi_matches_projection_loop(self, tmp_path, overrides, eps):
        scenario = write_scenario(tmp_path, n_max=4, **overrides)
        sc = parse_scenario(json.dumps(scenario_doc(n_max=4, **overrides)))
        outputs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(["--scenario", scenario, "--command", "beta-eps",
                         "--eps", eps, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        rows = outputs[0].decode().strip().splitlines()[1:]
        assert len(rows) == 4
        for n, row in enumerate(rows, start=1):
            pair = twirled_pair(sc.rho0, sc.rho1, sc.action, n)
            expected = 1.0
            for a in np.linspace(-2.0, 2.0, 81):
                errors = error_pair(np_test(*pair, float(a)), *pair)
                if errors.beta0 <= float(eps):
                    expected = min(expected, errors.beta1)
            assert float(row.split(",")[-1]) == pytest.approx(expected, rel=0, abs=1e-12)

    def test_convergence_json(self, tmp_path):
        out = tmp_path / "conv.json"
        assert main([
            "--scenario", write_scenario(tmp_path, n_max=2),
            "--command", "convergence", "--s-grid", "0:1:3",
            "--format", "json", "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert doc["command"] == "convergence"
        assert len(doc["rows"]) == 2 * 3

    @pytest.mark.parametrize("command,column,token", [
        ("stein", "relative_entropy", "inf"),
        ("beta-eps", "bound_lo", "-inf"),
    ])
    def test_json_is_strict_and_writes_non_finite_values_as_csv_tokens(
            self, tmp_path, command, column, token):
        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        scenario = str(Path(__file__).resolve().parent.parent / "scenarios" / "two-pure.json")
        tables = {}
        for fmt in ("csv", "json"):
            tables[fmt] = tmp_path / f"{command}.{fmt}"
            assert main(["--scenario", scenario, "--command", command, "--n-max", "1",
                         "--format", fmt, "--out", str(tables[fmt])]) == 0
        doc = json.loads(tables["json"].read_text(), parse_constant=reject)
        header, *lines = tables["csv"].read_text().splitlines()
        assert len(doc["rows"]) == len(lines)
        assert [row[column] for row in doc["rows"]].count(token) == 1
        for row, line in zip(doc["rows"], lines):
            assert list(row) == header.split(",")
            for value, field in zip(row.values(), line.split(",")):
                if isinstance(value, float):
                    assert value == float(field)
                else:
                    assert str(value) == field

    def test_chernoff_under_the_bit_flip_prints_no_closed_form_mean(self, tmp_path):
        # the bit flip fixes both states, so every row is the one-copy value
        # and the last row is the n_max row, not the sign flip's limit
        group = {"type": "finite", "unitaries": [
            [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]]}
        path = write_scenario(tmp_path, rho0="bernoulli-conjugated 0.2",
                              rho1="bernoulli-conjugated 0.7", group=group, n_max=3)
        out = tmp_path / "chernoff.csv"
        assert main(["--scenario", path, "--command", "chernoff", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert rows[-1][1] == "mean (best-n estimate)"
        values = [float(row[2]) for row in rows]
        assert values == pytest.approx([values[0]] * len(values), rel=1e-12)

    def test_chernoff_and_stein_and_hoeffding_run(self, tmp_path):
        scenario = write_scenario(tmp_path, n_max=2)
        for command in ("chernoff", "stein"):
            assert main(["--scenario", scenario, "--command", command,
                         "--out", str(tmp_path / f"{command}.csv")]) == 0
        assert main(["--scenario", scenario, "--command", "hoeffding",
                     "--r-grid", "0:0.4:3",
                     "--out", str(tmp_path / "hoeffding.csv")]) == 0

    @pytest.mark.parametrize("name", ["two-commuting", "pure-vs-mixed"])
    def test_zero_rate_hoeffding_is_the_stein_row(self, tmp_path, name):
        # at r = 0 the supports nest, and the sup is the slope at s = 1: the
        # per-copy relative entropy, with no scan near s = 1 to amplify
        # roundoff, and clamped at 0 like every Hoeffding exponent (two
        # identical twirled single copies give -3.3e-16 for the entropy)
        path = Path(__file__).resolve().parent.parent / "scenarios" / f"{name}.json"
        tables = {}
        for command in ("hoeffding", "stein"):
            out = tmp_path / f"{command}.csv"
            assert main(["--scenario", str(path), "--command", command, "--n-max", "6",
                         "--out", str(out)]) == 0
            tables[command] = [line.split(",") for line in out.read_text().splitlines()[1:]]
        hoeffding = {(int(n), label): float(h) for n, r, h, label in tables["hoeffding"]
                     if float(r) == 0.0}
        stein = {(int(n), label): float(v) for n, label, v in tables["stein"]
                 if label != "unrestricted"}
        assert hoeffding.keys() == stein.keys() and len(stein) == 7
        for key, value in stein.items():
            assert abs(hoeffding[key] - max(0.0, value)) <= 1e-12 * abs(value), key

    @pytest.mark.parametrize("name", ["pure-vs-mixed", "two-commuting", "two-pure"])
    def test_hoeffding_exponents_are_never_negative(self, tmp_path, name):
        # the sup takes in t = 0, where the objective is -psi(0) >= 0, so a
        # rate past the relative entropy gives exactly 0, never -0 or a
        # rounding-sized negative value
        path = Path(__file__).resolve().parent.parent / "scenarios" / f"{name}.json"
        out = tmp_path / "hoeffding.csv"
        assert main(["--scenario", str(path), "--command", "hoeffding", "--n-max", "8",
                     "--out", str(out)]) == 0
        cells = [line.split(",")[2] for line in out.read_text().splitlines()[1:]]
        assert len(cells) == 9 * 11
        assert "0" in cells
        assert not [c for c in cells if c.startswith("-")]

    def test_subnormal_s_grid_writes_nothing_to_stderr(self, tmp_path):
        src = str(Path(symtest.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        scenario = Path(__file__).resolve().parent.parent / "scenarios" / "pure-vs-mixed.json"
        proc = subprocess.run(
            [sys.executable, "-m", "symtest.cli", "--scenario", str(scenario),
             "--command", "psi", "--s-grid=0:1e-310:3"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert "-inf" not in proc.stdout

    def test_interior_parameters_near_1e_300_give_finite_closed_forms(self, tmp_path):
        # the closed form takes log c for every c > 0: a weight of 1e-300 is
        # a finite log, not -inf (which made 0 * -inf = nan in the mean rows)
        lam, mu = 0.3, 1e-300
        path = write_scenario(tmp_path, name="tiny-mu", rho0=f"pure-qubit {lam}",
                              rho1=f"pure-qubit {mu}", n_max=3)
        means = {}
        for command in ("stein", "chernoff", "psi", "hoeffding"):
            out = tmp_path / f"{command}.csv"
            assert main(["--scenario", path, "--command", command, "--out", str(out)]) == 0
            rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
            if command in ("stein", "chernoff"):
                means[command] = float(next(row[2] for row in rows if row[1] == "mean"))
        stein = lam * math.log(lam / mu) + (1 - lam) * math.log((1 - lam) / (1 - mu))
        assert means["stein"] == pytest.approx(stein, rel=1e-12)
        assert math.isfinite(means["chernoff"]) and means["chernoff"] > 0.0

    def test_failed_convergence_bracket_is_one_error_line_and_exit_1(self, tmp_path, capsys):
        # a pure-vs-mixed pair labelled with the two-pure closed form: the
        # table's bracket check fails, which is a failed check (exit 1)
        path = write_scenario(tmp_path, kind="TorusTwoPure", params={"lam": 0.3, "mu": 0.6})
        assert main(["--scenario", path, "--command", "convergence"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "TorusTwoPure" in err and "n=2, s=0 " in err and "gap" in err

    def test_missing_scenario_is_exit_2(self):
        assert main(["--command", "psi"]) == 2
        assert main(["--scenario", "/nonexistent.json", "--command", "psi"]) == 2

    def test_malformed_scenario_is_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        assert main(["--scenario", str(path), "--command", "psi"]) == 2

    def test_dimension_cap_is_exit_3(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SYMTEST_DIM_CAP", "4")
        assert main([
            "--scenario", write_scenario(tmp_path, n_max=5),
            "--command", "psi",
        ]) == 3

    @pytest.mark.parametrize("cap", ["abc", "0", "-4"])
    def test_malformed_dimension_cap_is_exit_3(self, tmp_path, monkeypatch, capsys, cap):
        monkeypatch.setenv("SYMTEST_DIM_CAP", cap)
        assert main(["--scenario", write_scenario(tmp_path), "--command", "psi"]) == 3
        assert f"SYMTEST_DIM_CAP must be a positive integer, got {cap!r}" in capsys.readouterr().err

    def test_repeated_group_element_is_exit_2(self, tmp_path, capsys):
        eye = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
        flip = [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]
        path = write_scenario(tmp_path, rho0="bernoulli-conjugated 0.6",
                              rho1="bernoulli-conjugated 0.3",
                              group={"type": "finite", "unitaries": [eye, flip, flip]})
        assert main(["--scenario", path, "--command", "psi"]) == 2
        assert "repeats an element" in capsys.readouterr().err

    def test_torus_weights_past_2_53_in_the_power(self, tmp_path):
        # weights that pass the parse check sum past 2**53 at n = 2; the
        # weight classes are those of [0, 2], so the output is too
        outputs = []
        for weights in ([0, 2**53], [0, 2]):
            path = tmp_path / f"w{weights[1]}.json"
            path.write_text(json.dumps(scenario_doc(group={"type": "torus", "weights": weights})))
            out = tmp_path / f"w{weights[1]}.csv"
            assert main(["--scenario", str(path), "--command", "psi", "--n-max", "2",
                         "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command", ["psi", "beta-eps", "stein"])
    def test_torus_outputs_only_see_the_weight_classes(self, tmp_path, command):
        # shifting every weight, or negating them all, keeps the classes
        outputs = []
        for weights in ([0, 1], [5, 6], [-3, -2], [0, -1], [-7, -8]):
            path = tmp_path / "two-pure.json"
            path.write_text(json.dumps(scenario_doc(
                kind="TorusTwoPure", rho0="pure-qubit 0.3", rho1="pure-qubit 0.6",
                group={"type": "torus", "weights": weights}, n_max=5)))
            out = tmp_path / "out.csv"
            assert main(["--scenario", str(path), "--command", command, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert all(o == outputs[0] for o in outputs)

    def test_bad_grid_is_exit_2(self, tmp_path):
        assert main([
            "--scenario", write_scenario(tmp_path),
            "--command", "psi", "--s-grid", "1:0:5",
        ]) == 2

    @pytest.mark.parametrize("args", [
        ["--command", "beta-eps", "--eps", "1.5"],
        ["--command", "psi", "--n-max", "0"],
        ["--command", "verify", "--n-max", "0"],
        ["--command", "psi", "--s-grid", "0:1:1"],
        ["--command", "hoeffding", "--r-grid=-0.1:0.1:3"],
        ["--command", "pmin", "--a-grid", "0:1:0"],
        ["--command", "pmin", "--a-grid=-1000:0:2"],
        ["--command", "beta-eps", "--a-grid=-1000:0:2"],
        ["--command", "psi", "--s-grid", "nan:1:3"],
        ["--command", "pmin", "--a-grid=-inf:0:3"],
        ["--command", "hoeffding", "--r-grid", "0:nan:3"],
        ["--command", "beta-eps", "--a-grid=nan:1:3"],
        ["--command", "convergence", "--s-grid", "0:inf:4"],
    ])
    def test_bad_argument_is_exit_2_without_traceback(self, tmp_path, args):
        src = str(Path(symtest.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "symtest.cli", "--scenario", write_scenario(tmp_path), *args],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr


class TestExamples:
    @pytest.mark.parametrize("name", ["balanced-mixing", "remark64"])
    def test_balanced_mixing_prints_alpha(self, capsys, name):
        assert main(["--command", "examples", "--name", name]) == 0
        captured = capsys.readouterr().out
        assert "alpha*" in captured
        alpha = float(captured.split("alpha* =")[1].split()[0])
        assert 0.10 <= alpha <= 0.12
        assert "Chernoff" in captured

    def test_all_examples_pass(self, capsys):
        assert main(["--command", "examples"]) == 0
        captured = capsys.readouterr().out
        assert "FAIL" not in captured

    def test_unknown_example(self):
        assert main(["--command", "examples", "--name", "nope"]) == 2


class TestFmt:
    @pytest.mark.parametrize("value,expected", [
        (math.inf, "inf"),
        (-math.inf, "-inf"),
        (math.nan, "nan"),
        (-0.0, "-0"),
        (5e-324, "4.9406564584124654e-324"),
        (1 / 3, "0.33333333333333331"),
        (np.float64(-np.inf), "-inf"),
        (3, "3"),
        (np.int64(7), "7"),
        (True, "True"),
        ("two-pure", "two-pure"),
    ])
    def test_literal(self, value, expected):
        assert _fmt(value) == expected


class TestVerifyCommand:
    def test_small_battery_clean(self, capsys):
        assert main(["--command", "verify", "--n-max", "2"]) == 0
        captured = capsys.readouterr().out
        assert "0 violations" in captured

    def test_report_written_to_out(self, tmp_path, capsys):
        out = tmp_path / "verify.txt"
        assert main(["--command", "verify", "--n-max", "2", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        lines = out.read_text().splitlines()
        assert lines[-1].startswith("verify: ")
        assert lines[-1].endswith(" checks, 0 violations")
        assert all(": PASS (" in line for line in lines[:-1])
