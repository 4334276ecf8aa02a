"""End-to-end exercises of the aimg command line interface via main()."""

import json
import math
import os
from importlib import resources

import pytest

from aimg.cli import main

from oracle_helpers import x0_genus


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_classify_sample(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, err = run(capsys, "classify", "--out", str(out_file))
    assert code == 0
    report = json.loads(out_file.read_text())
    assert [e["label"] for e in report["entries"]] == ["1A-1A", "2A-2A"]
    assert "1A-1A: Theorem2" in err
    assert "v=5: Theorem1" in err
    assert "v=-1: Theorem2" in err


def test_classify_stdout(capsys):
    code, out, err = run(capsys, "classify")
    assert code == 0
    report = json.loads(out)
    assert {"entries", "run"} == set(report)


def test_classify_zero_denominator_exits_1(capsys, tmp_path):
    raw = json.loads(resources.files("aimg").joinpath(
        "data/sample_catalog.json").read_text())
    raw["entries"][1]["conditions"] = {
        "all": [{"kind": "specific_set", "values": ["1/0"]}]}
    code, _, err = run(capsys, "classify", "--catalog",
                       write_json(tmp_path, "cat.json", raw))
    assert code == 1 and "SchemaError" in err


def test_check_curve(capsys):
    code, out, _ = run(capsys, "check-curve", "--label", "2A-2A",
                       "--j", "1732")
    assert code == 0
    data = json.loads(out)
    assert data["result"] == "Member"
    assert data["witnesses"] == ["-2", "2"]
    code, out, _ = run(capsys, "check-curve", "--label", "2A-2A", "--j", "oo")
    assert code == 0
    assert json.loads(out)["witnesses"][-1] == "oo"
    code, out, _ = run(capsys, "check-curve", "--label", "2A-2A", "--j", "0")
    assert json.loads(out)["result"] == "ExcludedJ"


def test_check_curve_unknown_label(capsys):
    code, _, err = run(capsys, "check-curve", "--label", "XX", "--j", "5")
    assert code == 1
    assert "UnknownLabel" in err


def test_genus(capsys, tmp_path):
    full = write_json(tmp_path, "full.json", {"level": 1, "gens": []})
    code, out, _ = run(capsys, "genus", "--group", full)
    assert code == 0
    data = json.loads(out)
    assert data["genus"] == 0 and data["degree"] == 1
    gamma7 = write_json(tmp_path, "g7.json",
                        {"level": 7, "gens": [[6, 0, 0, 6]]})
    code, out, _ = run(capsys, "genus", "--group", gamma7)
    assert json.loads(out)["genus"] == 3


def test_genus_bad_file(capsys, tmp_path):
    code, _, err = run(capsys, "genus", "--group", str(tmp_path / "nope"))
    assert code == 1 and "error" in err


@pytest.mark.parametrize("argv, why", [
    (["genus", "--group", "gens5.json"], "expected a list"),
    (["genus", "--group", "deep.json"], "not valid JSON"),
    (["classify", "--catalog", "missing.json"], "cannot read"),
], ids=["gens-not-a-list", "nested-too-deep", "missing-catalog"])
def test_bad_input_files_are_schema_errors(capsys, tmp_path, argv, why):
    write_json(tmp_path, "gens5.json", {"level": 5, "gens": 5})
    (tmp_path / "deep.json").write_text("[" * 100000 + "]" * 100000)
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "error: SchemaError" in err and why in err
    assert "Traceback" not in err


def test_commutator_full_group(capsys, tmp_path):
    full = write_json(tmp_path, "full.json", {"level": 1, "gens": []})
    code, out, _ = run(capsys, "commutator", "--group", full)
    assert code == 0
    data = json.loads(out)
    assert data["index_in_sl2"] == 2
    assert data["det_full"] is True
    code, out, _ = run(capsys, "commutator", "--group", full, "--transpose")
    assert json.loads(out)["index_in_sl2"] == 2


def test_cap_order_flag(capsys, tmp_path, monkeypatch):
    # the flag applies to the run only; the caller's setting survives it
    monkeypatch.setenv("AIMG_CAP_ORDER", "123456")
    grp = write_json(tmp_path, "g.json",
                     {"level": 5, "gens": [[1, 1, 0, 1], [0, 4, 1, 0],
                                           [2, 0, 0, 1]]})
    code, _, err = run(capsys, "--cap-order", "10", "genus", "--group", grp)
    assert code == 1
    assert "ResourceExceeded" in err
    assert os.environ["AIMG_CAP_ORDER"] == "123456"


@pytest.mark.parametrize("env, argv", [
    ("abc", ()), ("0", ()), ("-3", ()), ("2.5", ()),
    (None, ("--cap-order", "0")), (None, ("--cap-order", "-3")),
])
def test_bad_cap_is_a_schema_error(capsys, tmp_path, monkeypatch, env, argv):
    # from either source, a cap that is not a positive integer stops the
    # run before any work, with exit status 1 and no traceback
    if env is None:
        monkeypatch.delenv("AIMG_CAP_ORDER", raising=False)
    else:
        monkeypatch.setenv("AIMG_CAP_ORDER", env)
    grp = write_json(tmp_path, "g.json", {"level": 5, "gens": [[1, 1, 0, 1]]})
    code, out, err = run(capsys, *argv, "genus", "--group", grp)
    assert code == 1
    assert out == ""
    assert err.startswith("error: SchemaError: AIMG_CAP_ORDER must be a "
                          "positive integer")
    assert os.environ.get("AIMG_CAP_ORDER") == env


def test_genus_runs_past_the_cap_at_x0_720(capsys, tmp_path):
    # the SL2-part of ±Gamma0(720) has 138,240 elements, past the cap;
    # genus never closes it, and its orbit chain walks 192 points
    units = [u for u in range(1, 720) if math.gcd(u, 720) == 1]
    gens = [[1, 1, 0, 1]] + [[u, 0, 0, 1] for u in units] + \
        [[1, 0, 0, u] for u in units]
    grp = write_json(tmp_path, "g.json", {"level": 720, "gens": gens})
    code, out, _ = run(capsys, "--cap-order", "100000", "genus",
                       "--group", grp)
    assert code == 0
    assert json.loads(out)["genus"] == x0_genus(720) == 121


def test_surjectivity(capsys, tmp_path):
    trunc = write_json(tmp_path, "trunc.json", {
        "m_part": {"level": 4,
                   "gens": [[1, 1, 0, 1], [3, 0, 0, 1], [1, 0, 0, 3]]},
        "primes": [5]})
    # Borel generators extended by the identity mod 5: misses the 5-factor
    sub = write_json(tmp_path, "sub.json", {
        "level": 20,
        "gens": [[1, 5, 0, 1], [11, 0, 0, 1], [1, 0, 0, 11]]})
    code, out, _ = run(capsys, "surjectivity", "--group", trunc,
                       "--subgroup", sub)
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "FailsProjection" and data["factor"] == "5"


BOREL4_JSON = {"level": 4, "gens": [[1, 1, 0, 1], [3, 0, 0, 1], [1, 0, 0, 3]]}


@pytest.mark.parametrize("factors", [
    {"primes": [6]}, {"primes": [2]}, {"primes": [5, 5]},
    {"prime_parts": [{"level": 2, "gens": [[1, 1, 0, 1]]}]},
    {"primes": 5}, {"prime_parts": 5},
], ids=["not-prime", "prime-of-m-part", "repeated", "part-at-m-part-prime",
        "primes-not-a-list", "prime-parts-not-a-list"])
def test_surjectivity_bad_factors_are_schema_errors(capsys, tmp_path,
                                                    factors):
    trunc = write_json(tmp_path, "trunc.json",
                       {"m_part": BOREL4_JSON, **factors})
    sub = write_json(tmp_path, "sub.json", {"level": 4, "gens": []})
    code, _, err = run(capsys, "surjectivity", "--group", trunc,
                       "--subgroup", sub)
    assert code == 1
    assert "error: SchemaError" in err and "Traceback" not in err


def test_surjectivity_empty_subgroup_fails_projection(capsys, tmp_path):
    trunc = write_json(tmp_path, "trunc.json",
                       {"m_part": BOREL4_JSON, "primes": [5]})
    sub = write_json(tmp_path, "sub.json", {"level": 20, "gens": []})
    code, out, _ = run(capsys, "surjectivity", "--group", trunc,
                       "--subgroup", sub)
    assert code == 0
    assert json.loads(out) == {"verdict": "FailsProjection", "factor": "M"}


def test_surjectivity_shared_simple_quotient_is_not_eligible(capsys,
                                                              tmp_path):
    # 2.A5 times the scalars mod 11 against SL2(F_5) times the scalars,
    # and their fibered product over A5 (index 60): no verdict
    trunc = write_json(tmp_path, "trunc.json", {
        "m_part": {"level": 11,
                   "gens": [[1, 8, 8, 10], [7, 3, 4, 5], [2, 0, 0, 2]]},
        "prime_parts": [{"level": 5, "gens": [[2, 0, 0, 3], [0, 4, 1, 4],
                                              [2, 0, 0, 2]]}]})
    sub = write_json(tmp_path, "sub.json", {
        "level": 55, "gens": [[12, 30, 30, 43], [40, 14, 26, 49],
                              [46, 0, 0, 46], [12, 0, 0, 12], [21, 0, 0, 21],
                              [34, 0, 0, 34]]})
    code, out, err = run(capsys, "surjectivity", "--group", trunc,
                         "--subgroup", sub)
    assert (code, out) == (1, "")
    assert "error: NotEligible" in err and "PSL2(F_5)" in err
    assert "Traceback" not in err


def test_surjectivity_modulus_mismatch(capsys, tmp_path):
    trunc = write_json(tmp_path, "trunc.json", {
        "m_part": {"level": 4,
                   "gens": [[1, 1, 0, 1], [3, 0, 0, 1], [1, 0, 0, 3]]},
        "primes": [5]})
    sub = write_json(tmp_path, "sub.json", {"level": 4, "gens": [[1, 1, 0, 1]]})
    code, _, err = run(capsys, "surjectivity", "--group", trunc,
                       "--subgroup", sub)
    assert code == 1 and "SchemaError" in err


def test_condition(capsys):
    code, out, _ = run(capsys, "condition", "--label", "2A-2A", "--v", "5")
    assert code == 0
    data = json.loads(out)
    assert data["holds"] is True and data["trace"]
    code, out, _ = run(capsys, "condition", "--label", "2A-2A", "--v", "1")
    assert json.loads(out)["holds"] is False


def test_condition_bad_v(capsys):
    code, _, err = run(capsys, "condition", "--label", "2A-2A", "--v", "x")
    assert code == 1 and "SchemaError" in err


@pytest.mark.parametrize("v", ["1.5", "1e3", " 7 ", "1_000", "3/0"])
def test_rationals_outside_the_schema_are_schema_errors(capsys, tmp_path, v):
    # the README documents an integer or a "num/den" string, nothing else
    code, _, err = run(capsys, "condition", "--label", "2A-2A", "--v", v)
    assert code == 1 and "error: SchemaError" in err
    assert "Traceback" not in err
    raw = json.loads(resources.files("aimg").joinpath(
        "data/sample_catalog.json").read_text())
    raw["entries"][1]["members"][0]["v"] = v
    code, _, err = run(capsys, "classify", "--catalog",
                       write_json(tmp_path, "cat.json", raw))
    assert code == 1 and "error: SchemaError" in err and "member 0" in err
    assert "Traceback" not in err


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2
