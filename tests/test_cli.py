import json
import math
import pathlib

import pytest

from dcpkit.cli import main

DEMOS = pathlib.Path(__file__).parent.parent / "demos" / "models"
MIXING = str(DEMOS / "mixing_pair.json")


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


@pytest.mark.parametrize("mutate", [_no_outputs, _member_out_of_range, _nan_kernel])
def test_check_rejects_malformed_model_with_exit_2(tmp_path, capsys, mutate):
    model = json.loads(json.dumps(MALFORMED_BASE))
    mutate(model)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(model))
    assert run(["--model", str(path), "check", "--eps", "1.0", "--delta", "0.05"]) == 2
    assert capsys.readouterr().err.startswith("dcp: error: ")


def test_cap_applies_to_one_invocation():
    from dcpkit import config

    cap = config.OUTCOME_CAP
    # the mixing model's product alphabet has 2 * 2 * 3 = 12 outcomes
    assert run(["--cap", "4", "--model", MIXING, "check", "--eps", "3.0", "--delta", "0.05"]) == 2
    assert config.OUTCOME_CAP == cap
    assert run(["--model", MIXING, "check", "--eps", "3.0", "--delta", "0.05"]) == 0


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
