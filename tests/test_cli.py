import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dcpkit.cli import _json, main

DEMOS = pathlib.Path(__file__).parent.parent / "demos" / "models"
MIXING = str(DEMOS / "mixing_pair.json")
DATA = pathlib.Path(__file__).parent / "data"


def run(args):
    return main(args)


def read_out(path):
    text = path.read_text()
    assert text.startswith("# dcp ")
    return text


def test_check_pass_and_fail(tmp_path):
    out = tmp_path / "r.json"
    assert run(["--model", MIXING, "--out", str(out), "check", "--eps", "3.0", "--delta", "0.05"]) == 0
    body = read_out(out).split("\n", 1)[1]
    payload = json.loads(body)
    assert payload["holds"] is True
    assert "__composition__" in payload["reports"]

    assert run(["--model", MIXING, "--out", str(out), "check", "--eps", "0.1", "--delta", "0.0"]) == 1
    payload = json.loads(read_out(out).split("\n", 1)[1])
    assert payload["holds"] is False
    assert payload["reports"]["rr_a"]["worst_pair"] in (["s0", "s1"], ["s1", "s0"])


def test_check_malformed_model(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run(["--model", str(bad), "check", "--eps", "1", "--delta", "0"]) == 2
    assert run(["--model", str(tmp_path / "missing.json"), "check", "--eps", "1", "--delta", "0"]) == 2


def test_compose_emits_both_tables(tmp_path):
    out = tmp_path / "c.csv"
    code = run(["--model", MIXING, "--out", str(out), "compose",
                "--delta-g", "0.0", "0.02", "--eps-g", "0.5"])
    text = read_out(out)
    assert "s0,s1,delta_g,underline_opt,true_opt,overline_opt" in text
    assert "s0,s1,eps_g,underline_dt,true_dt,overline_dt" in text
    assert code in (0, 1)  # ordering verdict is data-dependent


def test_compose_invertible_world_coincides(tmp_path):
    out = tmp_path / "c.csv"
    code = run(["--model", str(DEMOS / "invertible_pair.json"), "--out", str(out),
                "compose", "--delta-g", "0.0", "0.02", "--eps-g", "0.5"])
    assert code == 0  # all three bounds coincide, ordering holds
    for line in read_out(out).strip().splitlines():
        parts = line.split(",")
        if len(parts) == 6 and parts[0] in ("s0", "s1") and "underline" not in line:
            under, true, over = (float(v) for v in parts[3:])
            assert under == pytest.approx(true, abs=1e-9)
            assert true <= over + 1e-9


def test_check_and_compose_at_large_eps(tmp_path):
    # e^800 is past the float range: every delta is the p-mass where q = 0
    model = {
        "secrets": ["s0", "s1"], "datasets": ["x0", "x1"], "joint": [[0.5, 0.0], [0.0, 0.5]],
        "adjacency": {"pairs": [[0, 1], [1, 0]]},
        "mechanisms": [
            {"name": "cut", "outputs": ["0", "1"], "kernel": [[0.5, 0.5], [0.0, 1.0]]},
            {"name": "rr", "outputs": ["0", "1"], "kernel": [[0.75, 0.25], [0.25, 0.75]]},
        ],
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(model))
    out = tmp_path / "r.json"
    assert run(["--model", str(path), "--out", str(out), "check", "--eps", "800", "--delta", "0.5"]) == 0
    reports = json.loads(read_out(out).split("\n", 1)[1])["reports"]
    assert reports["cut"]["worst_delta"] == 0.5
    assert reports["__composition__"]["worst_delta"] == 0.5
    assert run(["--model", str(path), "--out", str(out), "compose", "--eps-g", "800", "1e300"]) == 0
    lines = read_out(out).splitlines()
    dt = lines[lines.index("s0,s1,eps_g,underline_dt,true_dt,overline_dt") + 1:-2]
    assert dt == ["s0,s1,800.0,0.5,0.5,0.5", "s0,s1,1e+300,0.5,0.5,0.5",
                  "s1,s0,800.0,0.0,0.0,0.0", "s1,s0,1e+300,0.0,0.0,0.0"]


def test_pld_serialization(tmp_path):
    out = tmp_path / "p.csv"
    assert run(["--model", MIXING, "--out", str(out), "pld", "--pair", "s0", "s1",
                "--mech", "rr_a"]) == 0
    lines = read_out(out).strip().splitlines()
    assert lines[1] == "loss,mass"
    assert lines[-1].startswith("inf,")
    losses = [float(l.split(",")[0]) for l in lines[2:-1]]
    assert losses == sorted(losses)
    # read_pld_csv reads the output back, header line and all
    from dcpkit.model import effective_kernel, load_model
    from dcpkit.pld import pld_from_pair, read_pld_csv

    model = load_model(MIXING)
    assert model.mechanisms[0].name == "rr_a"
    want, back = pld_from_pair(effective_kernel(model.world, model.mechanisms[0]).pair(0, 1)), read_pld_csv(out)
    # the file's finite rows come back as they were, and its inf row as a group at +inf
    assert np.isfinite(want.losses).all() and back.losses[-1] == math.inf
    assert back.losses[:-1].tobytes() == want.losses.tobytes()
    assert back.p_mass[:-1].tobytes() == want.p_mass.tobytes()
    assert np.allclose(back.q_mass[:-1], want.q_mass, rtol=1e-15, atol=0.0) and back.q_mass[-1] == 0.0
    assert back.inf_mass == want.inf_mass


def test_copula_sample_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert run(["--model", MIXING, "--seed", "9", "--out", str(path),
                    "copula-sample", "-n", "50"]) == 0
    assert a.read_text() == b.read_text()
    header = a.read_text().splitlines()[1]
    assert header == "z1,z2,u1,u2,v1,v2"


def test_ic_task2_json(tmp_path):
    out = tmp_path / "ic.json"
    code = run(["--model", MIXING, "--out", str(out), "ic", "--task", "2", "--delta-g", "0.0"])
    payload = json.loads(read_out(out).split("\n", 1)[1])
    for key in ("alpha", "pi", "tau_g", "eps_g", "feasibility", "certified", "direct_check_delta"):
        assert key in payload
    assert code == (0 if payload["certified"] else 1)


def test_ic_task1_needs_tau():
    assert run(["--model", MIXING, "ic", "--task", "1", "--delta-g", "0.0"]) == 2


def test_ic_task1_prints_the_same_body_under_any_seed(capsys):
    args = ["--model", str(DEMOS / "dependent_pair.json"), "ic", "--task", "1", "--tau", "2.0"]
    outs = []
    for seed in ("0", "7", "7"):
        assert run(["--seed", seed, *args]) == 0
        outs.append(capsys.readouterr().out.split("\n", 1))
    (head0, body0), (head7, body7), again = outs
    assert body0 == body7 and again == [head7, body7]
    assert head0.replace("seed=0", "seed=7") == head7 != head0


@pytest.mark.parametrize("argv", [
    ["check", "--eps", "1", "--delta", "0.1"],
    ["compose"],
    ["pld", "--pair", "s0", "s1"],
    ["copula-sample", "-n", "5"],
    ["ic", "--task", "2"],
    ["audit", "--single", "coarse", "--eps-g", "3", "--delta-g", "0.05"],
    ["experiment", "--name", "independent"],
], ids=" ".join)
def test_bins_outside_the_copula_experiment_exits_2_before_any_output(capsys, argv):
    assert run(["--bins", "3", "--model", MIXING, *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "dcp: error: --bins applies only to experiment --name copula\n"


@pytest.mark.parametrize("flag, value", [("--tau", "3"), ("--alphabet", "2"), ("--loss", "log")])
def test_task1_options_are_refused_by_task2_before_any_output(capsys, flag, value):
    # even the task-1 defaults: task 2 would print the same bytes without them
    assert run(["--model", MIXING, "ic", "--task", "2", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"dcp: error: {flag} applies only to ic --task 1\n"


def test_bins_reaches_the_copula_experiment(capsys):
    # 17 is the experiment's own block grid, so the bytes are the default run's
    outs = []
    for argv in (["--bins", "17", "experiment", "--name", "copula"], ["experiment", "--name", "copula"]):
        code = run(argv)
        outs.append((code, capsys.readouterr().out))
    assert outs[0] == outs[1] and outs[0][1].count("\n") == 8


def test_audit_csv(tmp_path):
    out = tmp_path / "a.csv"
    assert run(["--model", MIXING, "--out", str(out), "audit", "--single", "coarse",
                "--eps-g", "3.0", "--delta-g", "0.05"]) == 0
    lines = read_out(out).strip().splitlines()
    assert lines[1] == "eps_g,delta_g,auc_composed,auc_single,gap"
    eps_g, delta_g, auc_c, auc_s, gap = (float(v) for v in lines[2].split(","))
    assert 0.5 <= auc_c <= 1.0 and 0.5 <= auc_s <= 1.0
    assert gap == pytest.approx(auc_c - auc_s, abs=1e-12)


def test_audit_unknown_single():
    assert run(["--model", MIXING, "audit", "--single", "nope",
                "--eps-g", "1.0", "--delta-g", "0.1"]) == 2


def test_experiment_reproducible(tmp_path):
    a, b = tmp_path / "e1.csv", tmp_path / "e2.csv"
    svg = tmp_path / "chart.svg"
    for path in (a, b):
        assert run(["--seed", "3", "--out", str(path), "experiment",
                    "--name", "independent", "--svg", str(svg)]) == 0
    assert a.read_text() == b.read_text()
    lines = a.read_text().strip().splitlines()
    assert lines[1].startswith("eps_g,eps_i,delta_g,auc_composed,auc_single,gap")
    assert len(lines) == 2 + 5  # header comment + columns + five grid points
    assert svg.read_text().startswith("<svg")


@pytest.mark.parametrize("name", ["independent", "copula"])
def test_default_grid_csv_matches_the_committed_bytes(tmp_path, name):
    # ``dcp --seed 0 --out FILE experiment --name NAME``: the README's two
    # experiment lines, byte for byte (CI compares the installed dcp too)
    out = tmp_path / f"{name}.csv"
    assert run(["--seed", "0", "--out", str(out), "experiment", "--name", name]) == 0
    assert out.read_bytes() == (DATA / f"experiment_{name}_seed0.csv").read_bytes()


MALFORMED_BASE = {
    "secrets": ["s0", "s1"],
    "datasets": ["x0", "x1"],
    "joint": [[0.4, 0.1], [0.1, 0.4]],
    "mechanisms": [
        {"name": "a", "outputs": ["0", "1"], "kernel": [[0.7, 0.3], [0.3, 0.7]]},
        {"name": "b", "outputs": ["0", "1"], "kernel": [[0.6, 0.4], [0.2, 0.8]]},
    ],
}


def _no_outputs(m):
    del m["mechanisms"][1]["outputs"]


def _member_out_of_range(m):
    m["dependence"] = [{"members": [0, 5], "joint_kernel": [[0.25] * 4, [0.25] * 4]}]


def _nan_kernel(m):
    m["mechanisms"][0]["kernel"][0][0] = float("nan")


def _mechanisms_mapping(m):
    m["mechanisms"] = {"a": 1}


def _mechanisms_string(m):
    m["mechanisms"] = "abc"


def _no_members(m):
    m["dependence"] = [{"members": [], "joint_kernel": [[1.0], [1.0]]}]


def _repeated_name(m):
    m["mechanisms"][1]["name"] = "a"


def _repeated_secret(m):
    m["secrets"] = ["s0", "s0"]


def _fractional_index(m):
    m["adjacency"] = {"pairs": [[0.7, 1]]}


def _bool_member(m):
    # b's and a's kernels multiplied per dataset: a valid group of members (1, 0)
    m["dependence"] = [{"members": [True, 0], "joint_kernel": [[0.42, 0.18, 0.28, 0.12],
                                                               [0.06, 0.14, 0.24, 0.56]]}]


# structure that used to escape as a traceback, or load and be misread
STRUCTURE_FAULTS = [_mechanisms_mapping, _mechanisms_string, _no_members, _repeated_name,
                    _repeated_secret, _fractional_index, _bool_member]


def _write_malformed(tmp_path, mutate):
    model = json.loads(json.dumps(MALFORMED_BASE))
    mutate(model)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(model))
    return str(path)


@pytest.mark.parametrize("mutate", [_no_outputs, _member_out_of_range, _nan_kernel, *STRUCTURE_FAULTS])
def test_check_rejects_malformed_model_with_exit_2(tmp_path, capsys, mutate):
    path = _write_malformed(tmp_path, mutate)
    assert run(["--model", path, "check", "--eps", "1.0", "--delta", "0.05"]) == 2
    assert capsys.readouterr().err.startswith("dcp: error: ")


@pytest.mark.parametrize("mutate", STRUCTURE_FAULTS)
def test_commands_reading_mechanisms_reject_malformed_structure_with_exit_2(tmp_path, capsys, mutate):
    path = _write_malformed(tmp_path, mutate)
    for argv in (["compose"], ["pld", "--pair", "s0", "s1", "--mech", "a"],
                 ["audit", "--single", "a", "--eps-g", "1.0", "--delta-g", "0.05"]):
        assert run(["--model", path, *argv]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("dcp: error: "), argv


def test_cap_applies_to_one_invocation():
    from dcpkit import config

    cap = config.OUTCOME_CAP
    # the mixing model's product alphabet has 2 * 2 * 3 = 12 outcomes
    assert run(["--cap", "4", "--model", MIXING, "check", "--eps", "3.0", "--delta", "0.05"]) == 2
    assert config.OUTCOME_CAP == cap
    assert run(["--model", MIXING, "check", "--eps", "3.0", "--delta", "0.05"]) == 0


@pytest.mark.parametrize("argv", [
    # the mixing model's 12 outcomes times a 100-symbol added channel
    ["--model", MIXING, "ic", "--task", "1", "--tau", "2.0", "--alphabet", "100"],
    # an 11 x 11 copula block grid
    ["--bins", "11", "experiment", "--name", "copula"],
], ids=["ic-alphabet", "copula-bins"])
def test_user_counts_past_the_cap_exit_2_before_allocating(capsys, argv):
    assert run(["--cap", "100", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("dcp: error: ") and captured.err.endswith("exceeds cap 100\n")


def test_parser_is_built_once_and_each_call_parses_afresh(capsys):
    from dcpkit import cli

    assert cli.build_parser() is cli.build_parser()
    sequences = [
        (["--cap", "100", "--seed", "9", "--model", MIXING, "compose", "--delta-g", "0.1", "--eps-g", "2", "3"],
         ["--model", MIXING, "compose"]),
        (["--model", MIXING, "ic", "--task", "1", "--tau", "3", "--alphabet", "3", "--loss", "brier"],
         ["--model", MIXING, "ic", "--task", "2"]),
        (["--model", MIXING, "check", "--eps", "0.1", "--delta", "0.0"],
         ["--model", MIXING, "pld", "--pair", "s0", "s1"]),
        (["--model", MIXING, "pld", "--pair", "s1", "s0", "--mech", "rr_a"],
         ["--model", MIXING, "pld", "--pair", "s0", "s1"]),
    ]
    for first, second in sequences:
        cli.build_parser.cache_clear()
        alone = (run(second), capsys.readouterr())
        run(first)
        capsys.readouterr()
        assert (run(second), capsys.readouterr()) == alone
    defaults = cli.build_parser().parse_args(["compose"])
    assert (defaults.delta_g, defaults.eps_g) == ((0.0, 0.02), (0.5, 1.0))


BAD_NUMBERS = [
    ["check", "--eps", "1", "--delta", "nan"],
    ["check", "--eps", "inf", "--delta", "0.1"],
    ["check", "--eps", "1", "--delta", "1.5"],
    ["compose", "--delta-g", "nan"],
    ["compose", "--eps-g=-inf"],
    ["audit", "--single", "rr_a", "--eps-g", "1", "--delta-g", "nan"],
    ["audit", "--single", "rr_a", "--eps-g", "1", "--delta-g", "inf"],
    ["audit", "--single", "rr_a", "--eps-g", "nan", "--delta-g", "0.1"],
    ["ic", "--task", "1", "--tau", "nan", "--delta-g", "0.1"],
    ["ic", "--task", "2", "--delta-g", "-0.1"],
    ["ic", "--task", "1", "--tau", "3", "--alphabet", "0"],
    ["copula-sample", "-n", "0"],
    ["--bins", "0", "experiment", "--name", "copula"],
    ["--cap", "-5", "check", "--eps", "1", "--delta", "0.1"],
    ["--cap", "20000000", "check", "--eps", "1", "--delta", "0.1"],
]


@pytest.mark.parametrize("argv", BAD_NUMBERS, ids=" ".join)
def test_bad_cli_numbers_exit_2_before_any_output(capsys, argv):
    assert run(["--model", MIXING, *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument" in captured.err and "Traceback" not in captured.err


# --------------------------------------------------- copula-sample formatting

SAMPLE_COLUMNS = ("z1", "z2", "u1", "u2", "v1", "v2")


def per_cell_lines(out, n):
    """The per-cell loop ``copula-sample`` wrote its rows with, kept as the
    reference for the column-wise formatting."""
    from dcpkit.cli import _fmt

    return [",".join(_fmt(float(out[k][i])) for k in SAMPLE_COLUMNS) + "\n" for i in range(n)]


@pytest.mark.parametrize("seed", [0, 1, 7, 9, 2024])
def test_copula_sample_bytes_match_the_per_cell_loop(seed, capsys):
    import numpy as np

    from dcpkit.cli import _sample_lines
    from dcpkit.copula import copula_spec_from_mapping, psedr_samples
    from dcpkit.model import adjacency_labels, load_model

    model = load_model(MIXING)
    spec = copula_spec_from_mapping(model.copula, adjacency_labels(model.world))
    for state in model.world.secrets:
        assert run(["--model", MIXING, "--seed", str(seed), "copula-sample", "-n", "400", "--state", state]) == 0
        body = capsys.readouterr().out.split("\n", 2)[2]
        out = psedr_samples(spec, state, np.random.default_rng(seed), 400)
        assert body == "".join(per_cell_lines(out, 400))
    # a column forced to hold the cells _fmt words, next to NaN and -0.0
    rng = np.random.default_rng(seed)
    forced = {k: rng.standard_normal(64) for k in SAMPLE_COLUMNS}
    cells = rng.choice(64, size=12, replace=False)
    forced["v2"][cells] = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e308] * 2
    forced["z1"] = forced["z1"].astype(np.float32)  # narrower samples write as floats too
    assert _sample_lines(forced) == per_cell_lines(forced, 64)


# --------------------------------------------------- repeated mechanisms

REPEATED = pathlib.Path(__file__).parent / "data" / "repeated_kernel.json"


def _dcp_twice(capsys, *argv):
    """Exit code and body of one command, which a rerun repeats byte for byte."""
    runs = []
    for _ in range(2):
        code = run(["--model", str(REPEATED), *argv])
        runs.append((code, capsys.readouterr()))
    assert runs[0] == runs[1]
    code, captured = runs[0]
    assert captured.err == ""
    return code, captured.out.split("\n", 1)[1]


def test_repeated_kernels_print_the_dense_route_numbers(capsys):
    # four bitwise-equal kernels and one other: 3^4 * 2 outcomes, 15 * 2 atoms
    from dense_route import close, dense_laws, dense_task2

    from dcpkit.composition import Composition
    from dcpkit.divergence import check_dcp, worst_pair
    from dcpkit.model import load_model

    model = load_model(REPEATED)
    world, mechs = model.world, list(model.mechanisms)
    assert Composition(world, tuple(mechs)).sizes["atoms"] == 15 * 2 < 3**4 * 2
    joint, product = dense_laws(world, mechs)

    code, body = _dcp_twice(capsys, "check", "--eps", "1.0", "--delta", "0.05")
    composed = json.loads(body)["reports"]["__composition__"]
    want = worst_pair(world, joint, eps=1.0).value
    assert close(composed["worst_delta"], want)
    holds = all(check_dcp(world, m, 1.0, 0.05).holds for m in mechs) and want <= 0.05 + 1e-12
    assert code == (0 if holds else 1)

    code, body = _dcp_twice(capsys, "compose", "--delta-g", "0", "0.05", "--eps-g", "0.5", "1")
    opt, dt = (table.splitlines()[1:] for table in body.split("\n\n")[:2])
    ordered = True
    for rows, dense in ((opt, lambda law, s0, s1, v: worst_pair(world, law, delta=v).values[(s0, s1)]),
                        (dt, lambda law, s0, s1, v: worst_pair(world, law, eps=v).values[(s0, s1)])):
        for row in rows:
            s0, s1, v, under, true, over = row.split(",")
            s0, s1 = world.secret_index(s0), world.secret_index(s1)
            want_under, want_true = (dense(law, s0, s1, float(v)) for law in (product, joint))
            assert close(float(under), want_under) and close(float(true), want_true)
            ordered = ordered and want_under <= want_true + 1e-9 and want_true <= float(over) + 1e-9
    assert len(opt) == len(dt) == 4
    assert code == (0 if ordered else 1)

    for delta_g in (0.0, 0.05):
        code, body = _dcp_twice(capsys, "ic", "--task", "2", "--delta-g", str(delta_g))
        payload, want = json.loads(body), dense_task2(world, joint, delta_g)
        for key in ("tau_g", "eps_g", "direct_check_delta"):
            assert close(payload[key], want[key]), key
        assert abs(payload["feasibility"] - want["feasibility"]) <= 1e-12
        assert len(payload["pi"]) == 3**4 * 2
        assert max(abs(a - b) for row, ref in zip(payload["pi"], want["pi"]) for a, b in zip(row, ref)) <= 1e-12
        certified = want["feasibility"] <= 1e-6 and want["direct_check_delta"] <= delta_g + 1e-6
        assert payload["certified"] == certified
        assert code == (0 if certified else 1)


def test_check_pld_and_audit_read_the_lumped_law_and_build_no_joint(capsys):
    from dcpkit import composition

    for argv in (["check", "--eps", "1.0", "--delta", "0.05"], ["pld", "--pair", "s0", "s1"],
                 ["audit", "--single", "flag", "--eps-g", "0.5", "--delta-g", "0.02"]):
        composition._SLOT[0] = None
        run(["--model", str(REPEATED), *argv])
        value = composition._SLOT[0][1]
        assert value.repeats and "lumped" in value.__dict__ and "joint" not in value.__dict__, argv
    capsys.readouterr()


def test_a_cap_between_the_atoms_and_the_outcomes_refuses_only_the_per_outcome_output(capsys):
    # 30 atoms, 162 outcomes: the readers of the lumped law print their
    # uncapped bytes, and the IC tasks, whose pi has a row per outcome, exit 2
    for argv in (["check", "--eps", "1.0", "--delta", "0.05"], ["compose"], ["pld", "--pair", "s0", "s1"],
                 ["audit", "--single", "flag", "--eps-g", "0.5", "1.0", "--delta-g", "0.0", "0.02"]):
        runs = []
        for cap in ([], ["--cap", "100"]):
            code = run([*cap, "--model", str(REPEATED), *argv])
            runs.append((code, capsys.readouterr()))
        assert runs[0] == runs[1] and runs[1][0] <= 1 and runs[1][1].err == "", argv
    for argv in (["ic", "--task", "1", "--tau", "2.0"], ["ic", "--task", "2", "--delta-g", "0.02"]):
        assert run(["--cap", "100", "--model", str(REPEATED), *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.endswith("exceeds cap 100\n"), argv


def readme_usage_lines() -> list[str]:
    """The ``dcp`` lines of the README's command-line usage block."""
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```\n", 2)[1]
    return [line for line in block.splitlines() if line.startswith("dcp ")]


def test_readme_usage_lines_run(tmp_path, capsys):
    # every usage line as printed, with its optional [...] parts dropped and
    # then kept: a verdict (exit 0 or 1), and every file it names written
    lines = readme_usage_lines()
    assert len(lines) == 9
    for line in lines:
        for optional in (r"\[[^]]*\]", r"[][]"):
            args = shlex.split(re.sub(optional, "", line), comments=True)[1:]
            args = [MIXING if a == "M.json" else "coarse" if a == "NAME" else a for a in args]
            written = []
            for i, a in enumerate(args[:-1]):
                if a in ("--out", "--svg"):
                    args[i + 1] = str(tmp_path / f"{len(written)}-{args[i + 1]}")
                    written.append(pathlib.Path(args[i + 1]))
            capsys.readouterr()
            assert main(args) in (0, 1), line
            stdout = capsys.readouterr().out
            assert all(path.stat().st_size > 0 for path in written), line
            if "--out" not in args:
                assert stdout.startswith("# dcp "), line


# scipy's modules that cost more to import than any dcp call costs to run
_HEAVY_SCIPY = ("scipy.stats", "scipy.integrate", "scipy.optimize", "scipy.spatial")

_IMPORT_GATE = """
import contextlib, io, json, sys
import dcpkit
from dcpkit.cli import main
heavy = sys.argv[1].split(",")
loaded = {"import": [m for m in heavy if m in sys.modules]}
with contextlib.redirect_stdout(io.StringIO()):
    loaded["exit"] = main(["--model", sys.argv[2], "check", "--eps", "1", "--delta", "0.01"])
loaded["check"] = [m for m in heavy if m in sys.modules]
print(json.dumps(loaded))
"""


def test_import_and_check_leave_the_heavy_scipy_modules_unloaded():
    # a fresh interpreter: this test process has long since imported them
    import dcpkit

    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(dcpkit.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-c", _IMPORT_GATE, ",".join(_HEAVY_SCIPY), MIXING],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0 and done.stderr == "", done.stderr
    loaded = json.loads(done.stdout)
    assert loaded.pop("exit") in (0, 1)             # a verdict, not a refusal
    assert loaded == {"import": [], "check": []}


_NO_SCIPY_GATE = """
import contextlib, io, json, sys
import dcpkit
from dcpkit.cli import main
scipy = lambda: sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
loaded = {"import": scipy()}
for model in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        loaded[model] = [main(["--model", model, "check", "--eps", "1", "--delta", "0.01"]), scipy()]
print(json.dumps(loaded))
"""


def test_import_and_check_without_a_copula_section_load_no_scipy_module():
    # scipy.special is imported on the first normal CDF: no module of scipy
    # at all is loaded by the import, nor by a check that needs none
    import dcpkit

    models = [str(path) for path in sorted(DEMOS.glob("*.json"))
              if "copula" not in json.loads(path.read_text())]
    assert len(models) == 2
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(dcpkit.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-c", _NO_SCIPY_GATE, *models],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0 and done.stderr == "", done.stderr
    loaded = json.loads(done.stdout)
    assert loaded.pop("import") == []
    assert sorted(loaded) == models
    for code, modules in loaded.values():
        assert code in (0, 1) and modules == []    # a verdict, and no scipy module


# ------------------------------------------------------------ JSON writer

# the floats json words apart (NaN, +-Infinity), a signed zero and the exponents' ends
JSON_FLOAT = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0,
                                                     1e300, -1e300, 1e-300, 5e-324]))
JSON_SCALAR = st.one_of(JSON_FLOAT, st.booleans(), st.none(), st.integers(-10**20, 10**20), st.text(max_size=6))
MATRIX = arrays(np.float64, st.tuples(st.integers(0, 4), st.integers(0, 4)), elements=JSON_FLOAT)
CHECK_PAYLOAD = st.fixed_dictionaries({
    "eps": JSON_FLOAT, "delta": JSON_FLOAT, "holds": st.booleans(),
    "reports": st.dictionaries(st.text(max_size=8), st.fixed_dictionaries({
        "holds": st.booleans(), "worst_pair": st.lists(st.text(max_size=4), min_size=2, max_size=2),
        "worst_delta": JSON_FLOAT})),
})
IC_PAYLOAD = st.fixed_dictionaries({
    "alpha": MATRIX, "pi": st.one_of(MATRIX, st.lists(st.lists(JSON_FLOAT, min_size=3, max_size=3), max_size=3)),
    "tau_g": JSON_SCALAR, "eps_g": JSON_SCALAR, "feasibility": JSON_SCALAR, "certified": st.booleans(),
    "direct_check_delta": JSON_SCALAR,
    "extra": st.one_of(st.lists(JSON_SCALAR, max_size=4), st.dictionaries(st.text(max_size=3), JSON_SCALAR,
                                                                          max_size=2)),
})


@settings(derandomize=True, deadline=None, max_examples=400)
@given(payload=st.one_of(CHECK_PAYLOAD, IC_PAYLOAD))
def test_json_writer_prints_the_bytes_of_indented_json(payload):
    oracle = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in payload.items()}
    assert _json(payload) == json.dumps(oracle, indent=2, sort_keys=True)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (1, 1), (0, 0), (2, 3)])
def test_json_writer_on_matrix_edge_shapes(shape):
    matrix = np.arange(math.prod(shape), dtype=float).reshape(shape) - 0.5
    payload = {"pi": matrix, "flat": matrix.ravel(), "nested": {"pi": matrix}}
    oracle = {"pi": matrix.tolist(), "flat": matrix.ravel().tolist(), "nested": {"pi": matrix.tolist()}}
    assert _json(payload) == json.dumps(oracle, indent=2, sort_keys=True)
