"""Command-line surface: formats, wire exactness, exit codes."""

import io
import json
import os
import sys

import pytest

from buildingflow import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_dp_human(capsys):
    code, out, _ = run(capsys, "count", "--q", "2", "--steps", "9", "--flow", "pgl3",
                       "--kind", "g", "--method", "dp")
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()[1:]]
    assert [(int(a), int(b)) for a, b in rows] == [(3, 24), (6, 1536), (9, 98304)]


def test_count_oracle_f_json(capsys):
    code, out, _ = run(capsys, "count", "--q", "2", "--steps", "6", "--kind", "f",
                       "--method", "oracle", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"] == [{"n": 3, "count": "24"}, {"n": 6, "count": "960"}]


def test_count_pgl2_closed(capsys):
    code, out, _ = run(capsys, "count", "--q", "2", "--steps", "4", "--flow", "pgl2",
                       "--kind", "f", "--method", "closed", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines() == ["n,count", "2,2", "4,4"]


def test_count_big_values_roundtrip(capsys):
    # far past 2^63: exactness must survive the JSON wire
    code, out, _ = run(capsys, "count", "--q", "2", "--steps", "36", "--kind", "g",
                       "--method", "closed", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    last = doc["rows"][-1]
    from buildingflow.analysis import closed_g

    assert last == {"n": 36, "count": str(closed_g(2, 36))}
    assert int(last["count"]) > 2**63


def test_count_profile_kinds_agree(capsys):
    outs = {}
    for method in ("dp", "closed", "oracle"):
        code, out, _ = run(capsys, "count", "--q", "2", "--steps", "3", "--kind", "N",
                           "--method", method, "--format", "csv")
        assert code == 0
        outs[method] = out
    assert outs["dp"] == outs["closed"] == outs["oracle"]
    assert "1,0,24" in outs["dp"]


def test_entropy_json(capsys):
    code, out, _ = run(capsys, "entropy", "--q", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["spr"] is True
    assert doc["exact"] == {"h": [6, 0], "growth_f": [3, 1]}
    code, out, _ = run(capsys, "entropy", "--q", "9", "--format", "json")
    doc9 = json.loads(out)
    import math

    assert math.isclose(doc9["margin_nats"], math.log(729 / 89) / 3, rel_tol=1e-12)
    assert doc9["spr"] is True


def test_graph_dot_contents_and_determinism(capsys):
    code, out1, _ = run(capsys, "graph", "--q", "2", "--m-max", "3", "--format", "dot")
    assert code == 0
    assert '"e(1/2,1/2)" -> "e(1/2,0)" [label="4"];' in out1
    code, out2, _ = run(capsys, "graph", "--q", "2", "--m-max", "3", "--format", "dot")
    assert out1 == out2
    labels = set()
    for line in out1.splitlines():
        if "label=" in line:
            labels.add(int(line.split('label="')[1].split('"')[0]))
    assert labels <= {1, 2, 3, 4}  # q-1=1 collapses onto 1 at q=2


def test_graph_json_schema(capsys):
    code, out, _ = run(capsys, "graph", "--q", "3", "--m-max", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    for rec in doc["edges"]:
        assert set(rec) == {"from", "to", "weight"}
        assert set(rec["from"]) == {"k2", "l2"}
        assert isinstance(rec["weight"], str)
        assert int(rec["weight"]) in {1, 2, 3, 6, 8, 9}


def test_weights_census_equals_fold(capsys):
    code, fold_out, _ = run(capsys, "weights", "--q", "2", "--m-max", "3", "--format", "csv")
    assert code == 0
    code, oracle_out, _ = run(capsys, "weights", "--q", "2", "--m-max", "3",
                              "--format", "csv", "--from-oracle")
    assert code == 0
    assert fold_out == oracle_out


def test_weights_config_from_oracle_equals_flag(tmp_path, capsys):
    """``from_oracle = true`` in a config file selects the census as the
    flag does; the human header names the source, so the fold rule's
    output differs."""
    cfg = tmp_path / "weights.conf"
    cfg.write_text("q = 2\nm_max = 3\nfrom_oracle = true\n")
    code, from_file, _ = run(capsys, "weights", "--config", str(cfg))
    assert code == 0
    code, from_flag, _ = run(capsys, "weights", "--q", "2", "--m-max", "3", "--from-oracle")
    assert code == 0
    assert from_file == from_flag
    assert from_file != run(capsys, "weights", "--q", "2", "--m-max", "3")[1]


@pytest.mark.parametrize(
    "word,source",
    [("YES", "oracle census"), ("True", "oracle census"), ("1", "oracle census"),
     ("no", "fold rule"), ("FALSE", "fold rule"), ("0", "fold rule")],
)
def test_from_oracle_config_spellings(tmp_path, capsys, word, source):
    """``from_oracle`` takes 1/true/yes and 0/false/no in any case."""
    cfg = tmp_path / "weights.conf"
    cfg.write_text(f"q = 2\nm_max = 3\nfrom_oracle = {word}\n")
    code, out, _ = run(capsys, "weights", "--config", str(cfg))
    assert code == 0
    assert f"({source}, m <= 3)" in out.splitlines()[0]


def test_validate_exit_codes(capsys):
    code, out, _ = run(capsys, "validate", "--q", "2", "--steps", "3", "--m-max", "3")
    assert code == 0
    assert "OK" in out
    assert "FAIL" not in out


def test_validate_fault_injection_exits_nonzero():
    """A perturbed weight must fail validation and name the edge pair."""
    from buildingflow import crosscheck

    cfg = crosscheck.ValidationConfig(
        q=2, steps=3, m_max=3, weight_override={((1, 0), (3, 0)): 2}
    )
    results = crosscheck.run_validation(cfg)
    assert not crosscheck.all_passed(results)
    failed = {r.name: r for r in results if not r.passed}
    assert "census_vs_fold" in failed
    assert "e(1/2,0)" in failed["census_vs_fold"].actual
    assert "e(3/2,0)" in failed["census_vs_fold"].actual


def test_invalid_inputs_exit_2(capsys):
    assert run(capsys, "count", "--q", "6", "--steps", "3")[0] == 2
    assert run(capsys, "count", "--q", "2", "--steps", "0")[0] == 2
    assert run(capsys, "count", "--q", "2", "--steps", "3", "--method", "bogus")[0] == 2
    assert run(capsys, "count", "--q", "2", "--steps", "2", "--flow", "pgl2",
               "--method", "dp")[0] == 2
    assert run(capsys, "graph", "--q", "2", "--m-max", "1")[0] == 2


def test_budget_exit_3(capsys):
    code, _, err = run(capsys, "count", "--q", "2", "--steps", "12", "--method", "oracle",
                       "--max-leaves", "1000")
    assert code == 3
    assert "4096 leaves exceed the budget of 1000" in err  # refused at n=6


def test_broken_pipe_exits_141_quietly(monkeypatch, capsys):
    """A reader that goes away mid-output (as ``| head`` does) ends the
    run with 128 + SIGPIPE, nothing on stderr, and stdout on devnull."""

    class GonePipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", GonePipe())
    code = cli.main(["count", "--method", "dp", "--q", "9973", "--steps", "6", "--kind", "N"])
    assert code == cli.EXIT_BROKEN_PIPE == 141
    assert sys.stdout.name == os.devnull
    sys.stdout.close()
    assert capsys.readouterr().err == ""


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.conf"
    cfg.write_text("q = 2\nsteps = 6\nkind = f\nmethod = closed\n# comment\n")
    code, out, _ = run(capsys, "count", "--config", str(cfg), "--format", "csv")
    assert code == 0
    assert out.strip().splitlines() == ["n,count", "3,24", "6,960"]
    # explicit flag wins over the file
    code, out, _ = run(capsys, "count", "--config", str(cfg), "--kind", "g",
                       "--format", "csv")
    assert out.strip().splitlines() == ["n,count", "3,24", "6,1536"]


def test_threads_flag(capsys):
    code, out, _ = run(capsys, "count", "--q", "2", "--steps", "3", "--method", "oracle",
                       "--threads", "2", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines() == ["n,count", "3,24"]


def test_threads_below_one_exit_2(capsys):
    for bad in ("0", "-5"):
        code, _, err = run(capsys, "count", "--q", "2", "--steps", "3", "--method", "oracle",
                           "--threads", bad)
        assert code == 2
        assert "--threads must be >= 1" in err


def test_validate_capacity_limit_is_skip(capsys, monkeypatch):
    """An oracle route that refuses its field (``UnsupportedFieldError``,
    here raised by every walk) makes each oracle check skip with the
    reason, never fail."""
    from buildingflow import building
    from buildingflow.errors import UnsupportedFieldError

    def refuse(*args, **kwargs):
        raise UnsupportedFieldError("no walk over this field")

    monkeypatch.setattr(building, "oracle_returns", refuse)
    monkeypatch.setattr(building, "oracle_transition_census", refuse)
    code, out, _ = run(capsys, "validate", "--q", "3", "--steps", "3", "--m-max", "2")
    assert code == 0
    lines = {line.split()[1]: line for line in out.splitlines()[:-1]}
    for name in (
        "census_vs_fold", "oracle_vs_dp_g", "oracle_vs_dp_f", "oracle_period_zeros", "pgl2_closed_vs_oracle"
    ):
        assert lines[name].startswith("SKIP")
        assert "capacity limit: no walk over this field" in lines[name]
    assert "FAIL" not in out


def test_prime_above_the_table_limit_runs_the_oracle_routes(capsys):
    """q = 67 is a prime beyond the field's table limit, and the oracle
    routes run on its scalar operations: the tree count equals
    ``pgl2_closed``, the census equals the fold rule's transitions, and
    validate runs its census."""
    from buildingflow import analysis, shift

    code, out, _ = run(
        capsys, "count", "--flow", "pgl2", "--method", "oracle", "--q", "67", "--steps", "3", "--format", "json"
    )
    assert code == 0
    rows = [(r["n"], int(r["count"])) for r in json.loads(out)["rows"]]
    assert rows == [(2, analysis.pgl2_closed(67, 2, "g"))]
    code, out, _ = run(capsys, "weights", "--from-oracle", "--q", "67", "--m-max", "2", "--format", "json")
    assert code == 0
    census: dict = {}
    for rec in json.loads(out)["edges"]:
        src, dst = (shift.QuotientEdge.from_doubled(rec[k]["k2"], rec[k]["l2"]) for k in ("from", "to"))
        census.setdefault(src, {})[dst] = int(rec["weight"])
    assert census == {e: shift.edge_transitions(e, 67) for e in shift.build_graph(67, 2)}
    code, out, _ = run(capsys, "validate", "--q", "67", "--steps", "3", "--m-max", "2")
    assert code == 0
    lines = {line.split()[1]: line for line in out.splitlines()[:-1]}
    assert lines["census_vs_fold"].startswith("PASS")
    assert "FAIL" not in out and "capacity limit" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--q", "2", "--steps", "3"],
        ["count", "--q", "2", "--steps", "3", "--method", "oracle"],
        ["validate", "--q", "2", "--steps", "3", "--m-max", "3"],
        ["entropy", "--q", "2"],
        ["graph", "--q", "2"],
        ["weights", "--q", "2"],
    ],
)
def test_unsupported_format_refused_before_any_work(monkeypatch, capsys, argv):
    """A format the command does not take exits 2 with nothing on stdout,
    and is refused before any oracle walk."""
    from buildingflow import building

    walks = []

    def no_walk(*args, **kwargs):
        walks.append(args)
        raise AssertionError("walked before the format check")

    monkeypatch.setattr(building, "oracle_returns", no_walk)
    code, out, err = run(capsys, *argv, "--format", "xml")
    assert code == 2
    assert out == ""
    assert "--format must be one of" in err and "'xml'" in err
    assert walks == []


@pytest.mark.parametrize(
    "body, message",
    [
        ("q = 2\nsteps 6\n", "weights.conf:2: expected key = value"),
        ("q = 2\ncolour = red\n", "unknown config key 'colour'"),
        ("q = 2\nsteps = x\n", "bad value for 'steps': 'x'"),
        ("q = 2\nfrom_oracle = ture\n", "bad value for 'from_oracle': 'ture'"),
    ],
)
def test_bad_config_file_exit_2(tmp_path, capsys, body, message):
    cfg = tmp_path / "weights.conf"
    cfg.write_text(body)
    code, out, err = run(capsys, "count", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert message in err


def test_missing_q_exit_2(capsys):
    code, out, err = run(capsys, "count", "--steps", "3")
    assert (code, out) == (2, "")
    assert "--q is required" in err


def test_validate_failing_check_human_line(monkeypatch, capsys):
    """A failing check prints its expected and actual values and its
    detail, the summary reads MISMATCH, and the exit code is 1."""
    from buildingflow import crosscheck

    failed = crosscheck.CheckResult("closed_vs_dp_g", False, expected="[24]",
                                    actual="[25]", detail="n=1")
    monkeypatch.setattr(crosscheck, "run_validation", lambda cfg: [failed])
    code, out, _ = run(capsys, "validate", "--q", "2")
    assert code == cli.EXIT_MISMATCH == 1
    assert out.splitlines() == [
        "FAIL closed_vs_dp_g  expected=[24]  actual=[25]  [n=1]",
        "MISMATCH: 1 checks, 0 passed, 0 skipped, 1 failed",
    ]
