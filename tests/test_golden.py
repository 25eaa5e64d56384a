"""Golden CLI outputs: every command x format at small sizes, byte for byte.

Each case runs ``cli.main`` in-process and compares stdout and the exit
code against ``tests/golden/<case>.out`` and ``tests/golden/exit_codes.json``.
Refactors must keep these identical.  To write the files from a checkout
whose outputs are the reference, run from the repository root:

    PYTHONPATH=<reference checkout>/src python tests/test_golden.py
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from buildingflow import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"

_FORMATS = ("human", "json", "csv")


def _cases() -> dict[str, list[str]]:
    cases = {}
    for method in ("dp", "closed", "oracle"):
        for kind, steps in (("g", "6"), ("f", "6"), ("N", "3")):
            for fmt in _FORMATS:
                cases[f"count-q2-{method}-{kind}-{fmt}"] = [
                    "count", "--q", "2", "--steps", steps, "--method", method,
                    "--kind", kind, "--format", fmt,
                ]
    for method in ("closed", "oracle"):
        for kind in ("g", "f"):
            for fmt in _FORMATS:
                cases[f"count-pgl2-q3-{method}-{kind}-{fmt}"] = [
                    "count", "--q", "3", "--steps", "4", "--flow", "pgl2",
                    "--method", method, "--kind", kind, "--format", fmt,
                ]
    cases["count-pgl2-dp-refused"] = [
        "count", "--q", "3", "--steps", "4", "--flow", "pgl2", "--method", "dp",
    ]
    cases["count-pgl2-N-refused"] = [
        "count", "--q", "3", "--steps", "3", "--flow", "pgl2", "--kind", "N",
    ]
    cases["count-pgl2-dp-below-period"] = [
        "count", "--q", "3", "--steps", "1", "--flow", "pgl2", "--method", "dp",
    ]
    cases["count-q2-dp-g-steps8"] = ["count", "--q", "2", "--steps", "8", "--format", "csv"]
    cases["count-N-off-period-refused"] = ["count", "--q", "2", "--steps", "4", "--kind", "N"]
    for fmt in ("human", "json"):
        cases[f"validate-q2-{fmt}"] = [
            "validate", "--q", "2", "--steps", "3", "--m-max", "3", "--format", fmt,
        ]
    # the only cases whose output pins SKIP lines with their [detail]
    for fmt in ("human", "json"):
        cases[f"validate-q2-skips-{fmt}"] = [
            "validate", "--q", "2", "--steps", "3", "--m-max", "3", "--max-leaves", "3",
            "--format", fmt,
        ]
    # checks the leaf budget runs for some n but not all: PASS with [detail]
    cases["validate-q4-human"] = ["validate", "--q", "4", "--format", "human"]
    for fmt in _FORMATS:
        cases[f"entropy-q2-{fmt}"] = ["entropy", "--q", "2", "--format", fmt]
    for fmt in ("dot", "json"):
        cases[f"graph-q2-{fmt}"] = ["graph", "--q", "2", "--m-max", "3", "--format", fmt]
    for source in ("fold", "oracle"):
        for fmt in _FORMATS:
            argv = ["weights", "--q", "2", "--m-max", "3", "--format", fmt]
            if source == "oracle":
                argv.append("--from-oracle")
            cases[f"weights-q2-{source}-{fmt}"] = argv
    # the general-field walk (q != 2), prime and prime-power tables
    cases["count-q3-oracle-g-steps3-json"] = [
        "count", "--method", "oracle", "--q", "3", "--steps", "3", "--kind", "g", "--format", "json",
    ]
    cases["count-q4-oracle-f-steps3-json"] = [
        "count", "--method", "oracle", "--q", "4", "--steps", "3", "--kind", "f", "--format", "json",
    ]
    cases["weights-q3-oracle-csv"] = [
        "weights", "--q", "3", "--m-max", "3", "--from-oracle", "--format", "csv",
    ]
    cases["count-q3-oracle-N-steps3-csv"] = [
        "count", "--method", "oracle", "--q", "3", "--steps", "3", "--kind", "N", "--format", "csv",
    ]
    cases["validate-q3-m3-json"] = [
        "validate", "--q", "3", "--steps", "3", "--m-max", "3", "--format", "json",
    ]
    cases["count-pgl2-q3-oracle-g-steps6-csv"] = [
        "count", "--q", "3", "--steps", "6", "--flow", "pgl2", "--method", "oracle",
        "--kind", "g", "--format", "csv",
    ]
    # the oracle at every walk size the merged walk must keep: q = 5 in
    # dim 3 and dim 2, the terminal profile at (2, 9), first returns at (3, 6)
    cases["count-q5-oracle-g-steps3-json"] = [
        "count", "--method", "oracle", "--q", "5", "--steps", "3", "--format", "json",
    ]
    cases["count-pgl2-q5-oracle-g-steps6-csv"] = [
        "count", "--flow", "pgl2", "--method", "oracle", "--q", "5", "--steps", "6",
        "--format", "csv",
    ]
    cases["count-q2-oracle-N-steps9-csv"] = [
        "count", "--method", "oracle", "--kind", "N", "--q", "2", "--steps", "9", "--format", "csv",
    ]
    cases["count-q3-oracle-f-steps6-json"] = [
        "count", "--method", "oracle", "--kind", "f", "--q", "3", "--steps", "6", "--format", "json",
    ]
    # a walk only the merged oracle finishes (q^12 = 244,140,625 words)
    cases["count-q5-oracle-g-steps6-csv"] = [
        "count", "--method", "oracle", "--q", "5", "--steps", "6", "--max-leaves", "244140625",
        "--format", "csv",
    ]
    # first returns through states far from the origin, dim 3 and dim 2
    cases["count-q2-oracle-f-steps12-csv"] = [
        "count", "--method", "oracle", "--kind", "f", "--q", "2", "--steps", "12",
        "--max-leaves", "16777216", "--format", "csv",
    ]
    cases["count-pgl2-q2-oracle-f-steps16-json"] = [
        "count", "--flow", "pgl2", "--method", "oracle", "--kind", "f", "--q", "2",
        "--steps", "16", "--format", "json",
    ]
    # the DP at large q and long horizons
    cases["count-q9973-dp-N-steps30-csv"] = [
        "count", "--method", "dp", "--kind", "N", "--q", "9973", "--steps", "30", "--format", "csv",
    ]
    cases["count-q4-dp-f-steps30-json"] = [
        "count", "--method", "dp", "--kind", "f", "--q", "4", "--steps", "30", "--format", "json",
    ]
    cases["count-q3-dp-g-steps60"] = [
        "count", "--method", "dp", "--kind", "g", "--q", "3", "--steps", "60",
    ]
    # a taboo sweep on a non-prime field, and a longer profile
    cases["count-q8-dp-f-steps60-json"] = [
        "count", "--method", "dp", "--kind", "f", "--q", "8", "--steps", "60", "--format", "json",
    ]
    cases["count-q4-dp-N-steps36-csv"] = [
        "count", "--method", "dp", "--kind", "N", "--q", "4", "--steps", "36", "--format", "csv",
    ]
    return cases


CASES = _cases()


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _expected_codes() -> dict[str, int]:
    return json.loads((GOLDEN / "exit_codes.json").read_text())


def test_golden_case_list_matches_files():
    assert sorted(_expected_codes()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case):
    code, out = _run(CASES[case])
    assert code == _expected_codes()[case]
    assert out.encode() == (GOLDEN / f"{case}.out").read_bytes()


def _write_golden() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for case, argv in sorted(CASES.items()):
        codes[case], out = _run(argv)
        (GOLDEN / f"{case}.out").write_bytes(out.encode())
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    _write_golden()
    sys.exit(0)
