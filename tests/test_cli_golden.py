"""Golden bytes of `dcp`: exit code and stdout of every subcommand on the
demo models and the repeated-kernel model, compared byte for byte with
``tests/data/cli_golden.json``.

The arguments are the fixed ones the benchmark's cli round gives the demo
models (``bench/gen.py``), with a small sample count and two task-1 runs,
one at delta_g = 0 and one inside the band delta_g * tau >= 1, plus a
second audit at budgets both setups meet.  A command a model cannot serve
(no copula section, a single setup inside a dependence group) is recorded
too: its exit code is 2 and its stdout empty.

To rewrite the golden file from the code on the path (only when a change
to the printed bytes is intended)::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from dcpkit.cli import main

ROOT = pathlib.Path(__file__).parent.parent
GOLDEN_FILE = ROOT / "tests" / "data" / "cli_golden.json"

# model stem -> (path from the repository root, mechanism for --single)
MODELS = {
    "invertible_pair": ("demos/models/invertible_pair.json", "rr_b"),
    "mixing_pair": ("demos/models/mixing_pair.json", "coarse"),
    "dependent_pair": ("demos/models/dependent_pair.json", "c1"),
    "repeated_kernel": ("tests/data/repeated_kernel.json", "flag"),
}


def _commands(first_mech: str, single: str) -> dict:
    return {
        "check": ["check", "--eps", "1.0", "--delta", "0.05"],
        "compose": ["compose", "--delta-g", "0.0", "0.02", "--eps-g", "0.5", "1.0"],
        "pld": ["pld", "--pair", "s0", "s1"],
        "pld_mech": ["pld", "--pair", "s0", "s1", "--mech", first_mech],
        "ic1": ["--seed", "7", "ic", "--task", "1", "--tau", "2.0", "--delta-g", "0.0"],
        "ic1_band": ["--seed", "7", "ic", "--task", "1", "--tau", "60.0", "--delta-g", "0.02"],
        "ic2": ["ic", "--task", "2", "--delta-g", "0.02"],
        "audit": ["audit", "--single", single, "--eps-g", "0.5", "1.0", "--delta-g", "0.0", "0.02"],
        "audit_pass": ["audit", "--single", single, "--eps-g", "3.0", "6.0", "--delta-g", "0.3", "0.5"],
        "copula_sample": ["--seed", "7", "copula-sample", "-n", "20"],
    }


def cases() -> dict:
    out = {}
    for stem, (rel, single) in MODELS.items():
        first = json.loads((ROOT / rel).read_text())["mechanisms"][0]["name"]
        for cmd, args in _commands(first, single).items():
            out[f"{stem}/{cmd}"] = ["--model", rel, *args]
    return out


def run_case(argv: list) -> dict:
    """Exit code and stdout of one in-process `dcp` call, model paths taken
    from the repository root (stdout names a model by its content hash)."""
    argv = [str(ROOT / a) if i > 0 and argv[i - 1] == "--model" else a for i, a in enumerate(argv)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"exit": code, "stdout": stdout.getvalue()}


CASES = cases()
GOLDEN = json.loads(GOLDEN_FILE.read_text()) if GOLDEN_FILE.exists() else {}


def test_golden_file_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_dcp_prints_the_golden_bytes(case):
    assert run_case(CASES[case]) == GOLDEN[case]


if __name__ == "__main__":
    golden = {case: run_case(argv) for case, argv in sorted(CASES.items())}
    GOLDEN_FILE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {len(golden)} cases to {GOLDEN_FILE}\n")
