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
