"""Command-line surface: formats, wire exactness, exit codes."""

import json

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


def test_validate_capacity_limit_is_skip(capsys):
    """q = 67 has no field tables: the oracle checks skip with the reason."""
    code, out, _ = run(capsys, "validate", "--q", "67", "--steps", "3", "--m-max", "2")
    assert code == 0
    lines = {line.split()[1]: line for line in out.splitlines()[:-1]}
    for name in ("census_vs_fold", "oracle_period_zeros", "pgl2_closed_vs_oracle"):
        assert lines[name].startswith("SKIP")
        assert "capacity limit: tables unavailable for q=67" in lines[name]
    assert "FAIL" not in out
