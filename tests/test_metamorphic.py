"""Invariances of the discrimination problem, checked without reference values."""

import json
from pathlib import Path

import numpy as np
import pytest

from symtest.cli import main, parse_scenario
from symtest.divergences import NEG_INF, PsiEvaluator, default_s_grid
from symtest.groups import twirled_pair

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.mark.parametrize("name", ["two-commuting", "pure-vs-mixed", "two-pure"])
def test_swapping_the_states_mirrors_psi_about_one_half(name):
    # Tr rho0^s rho1^(1-s) = Tr rho1^(1-s) rho0^s, support convention included
    sc = parse_scenario((SCENARIOS / f"{name}.json").read_text())
    grid = default_s_grid()
    for n in range(1, 7):
        forward = PsiEvaluator(*twirled_pair(sc.rho0, sc.rho1, sc.action, n)).psi(grid)
        swapped = PsiEvaluator(*twirled_pair(sc.rho1, sc.rho0, sc.action, n)).psi(1.0 - grid)
        assert np.array_equal(forward == NEG_INF, swapped == NEG_INF)
        finite = forward != NEG_INF
        gap = np.abs(forward[finite] - swapped[finite])
        assert np.all(gap <= 1e-12 * np.maximum(1.0, np.abs(forward[finite]))), n


@pytest.mark.parametrize("command", ["psi", "beta-eps", "stein", "chernoff", "pmin"])
def test_reversing_the_group_list_changes_no_output(tmp_path, command):
    # a finite group is a set: the order of its unitaries is not part of the problem
    doc = json.loads((SCENARIOS / "two-commuting.json").read_text())
    reversed_doc = {**doc, "group": {**doc["group"],
                                     "unitaries": doc["group"]["unitaries"][::-1]}}
    outputs = []
    for k, scenario in enumerate((doc, reversed_doc)):
        path, out = tmp_path / f"scenario-{k}.json", tmp_path / f"out-{k}.csv"
        path.write_text(json.dumps(scenario))
        assert main(["--scenario", str(path), "--command", command, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
