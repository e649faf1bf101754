import json
import subprocess
import sys


def run_cli(*args, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "glhecke", *args],
        capture_output=True,
        text=True,
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed: {proc.returncode}\n{proc.stderr}")
    return proc


def test_enumerate_hecke_csv():
    out = run_cli("enumerate", "--lambda", "1,0", "--side", "hecke", "--format", "csv").stdout
    assert out.splitlines() == [
        "segments,k,central_character",
        '{1};{0},2,"1,0"',
        '"{0,1}",2,"0,1"',
    ]


def test_enumerate_real_rows():
    out = run_cli(
        "enumerate", "--lambda", "2,1,1,0", "--side", "real", "--min-level", "4",
        "--format", "csv",
    ).stdout
    rows = out.splitlines()[1:]
    assert len(rows) == 6  # five level-4 classes plus one of level 5
    out_hecke = run_cli(
        "enumerate", "--lambda", "2,1,1,0", "--side", "hecke", "--format", "csv"
    ).stdout
    assert len(out_hecke.splitlines()[1:]) == 5


def test_enumerate_deterministic_bytes():
    args = ("enumerate", "--lambda", "3,2,1,0", "--side", "real", "--format", "json")
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_enumerate_rejects_bad_lambda():
    proc = run_cli("enumerate", "--lambda", "1,x", "--side", "real", check=False)
    assert proc.returncode != 0
    for args in (
        ("enumerate", "--lambda", "0,1", "--side", "real"),
        ("verify", "--suite", "bijection", "--lambda", "0,1"),
    ):
        proc = run_cli(*args, check=False)
        assert proc.returncode != 0
        assert proc.stderr == "error: lambda must be weakly decreasing\n"
    for args in (
        ("enumerate", "--lambda", "", "--side", "real"),
        ("enumerate", "--lambda", "", "--side", "hecke", "--format", "json"),
        ("enumerate", "--lambda", ",", "--side", "real"),
        ("verify", "--suite", "bijection", "--lambda", ""),
    ):
        proc = run_cli(*args, check=False)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: --lambda needs at least one entry\n"


def test_gamma_and_zero():
    out = json.loads(
        run_cli("gamma", "--factors", "gl2(2,1/2);gl2(2,-1/2)", "--k", "4").stdout
    )
    assert out["hecke"] == {
        "segments": [{"start": "0", "len": 2}, {"start": "-1", "len": 2}]
    }
    assert out["central_character"] == ["0", "1", "-1", "0"]
    out = json.loads(run_cli("gamma", "--factors", "gl2(4,0)", "--k", "3").stdout)
    assert out == {"k": 3, "level": 4, "result": "zero"}
    proc = run_cli("gamma", "--factors", "gl2(4,0)", "--k", "5", check=False)
    assert proc.returncode != 0


def test_gamma_non_real_twist_is_one_error_line():
    # the multisegment JSON has no form for a non-real start
    nu = {"re": "1", "im": "1"}
    param = json.dumps({"factors": [{"kind": "gl1", "eps": "triv", "nu": nu}]})
    for args in (("--factors", "gl1(triv,1+1i)"), ("--param", param)):
        proc = run_cli("gamma", *args, "--k", "1", check=False)
        assert proc.returncode == 1, args
        assert proc.stdout == ""
        assert proc.stderr == "error: JSON segment encoding covers real starts only\n"


def test_dim_and_oracle():
    out = json.loads(run_cli("dim", "--factors", "gl2(2,1/2);gl2(2,-1/2)", "--k", "4").stdout)
    assert out["dim"] == 6
    out = json.loads(
        run_cli("oracle", "--factors", "gl2(2,1/2);gl2(2,-1/2)", "--k", "4").stdout
    )
    assert out["multiplicity"] == 6


def test_negative_k_is_rejected():
    for args in (
        ("dim", "--factors", "gl2(3,0)", "--k", "-1"),
        ("dim", "--factors", "gl2(3,0)", "--k", "-1", "--format", "text"),
        ("gamma", "--factors", "gl2(3,0)", "--k", "-2"),
        ("oracle", "--factors", "gl2(3,0)", "--k", "-1"),
    ):
        proc = run_cli(*args, check=False)
        assert proc.returncode == 1, args
        assert proc.stdout == ""
        assert proc.stderr == "error: k must be >= 0\n"


def test_oracle_dump_csv():
    out = run_cli("oracle", "--s", "1", "--m", "0", "--k", "3").stdout
    lines = out.splitlines()
    assert lines[0] == "tuple,multiplicity"
    assert set(lines[1:]) == {"V(1),3", "V(3),1"}
    for flag, args in (
        ("--s", ("--s", "-1", "--m", "0", "--k", "3")),
        ("--m", ("--s", "1", "--m", "-2", "--k", "3")),
        ("--k", ("--s", "1", "--m", "0", "--k", "-1")),
    ):
        proc = run_cli("oracle", *args, check=False)
        assert proc.returncode != 0
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"error: {flag} must be nonnegative")
        assert len(proc.stderr.splitlines()) == 1


def test_module_dump_and_quotient():
    out = json.loads(run_cli("module", "--steinberg", "4", "--quotient").stdout)
    assert out["dim"] == 1
    assert out["quotient_dim"] == 1
    assert out["central_character"] == ["-3/2", "-1/2", "1/2", "3/2"]
    out = json.loads(run_cli("module", "--segments", "{1/2};{-1/2}", "--quotient").stdout)
    assert out["dim"] == 2
    assert out["quotient_dim"] == 1
    out = json.loads(run_cli("module", "--segments", "({0,1},{-1,0})").stdout)
    assert out["dim"] == 6


def test_quotient_command():
    out = json.loads(run_cli("quotient", "--segments", "{3};{1}").stdout)
    assert out == {"std_dim": 2, "quotient_dim": 2}


def test_module_rejects_malformed_spec(tmp_path):
    proc = run_cli("module", "--segments", "{0,2}", check=False)
    assert proc.returncode != 0
    assert "segment" in proc.stderr
    # the JSON encoding has no form for non-real starts
    proc = run_cli("module", "--segments", "{1+1i};{0+1i}", check=False)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: JSON segment encoding covers real starts only\n"
    # JSON of the wrong shape, a numeric start or nu, a float or boolean
    # length or l (never truncated), and a missing file; the error names the
    # offending field where there is one
    nu = {"kind": "gl1", "eps": "triv", "nu": 1}
    zero_den = "zero denominator in rational string: '1/0'"
    zero = {"re": "0", "im": "0"}

    def segs(*pairs):
        return json.dumps({"segments": [{"start": a, "len": b} for a, b in pairs]})

    def gl2(l):
        return json.dumps({"factors": [{"kind": "gl2", "l": l, "nu": zero}]})

    for args, kind, field in (
        (("module", "--param", "[]"), "multisegment", ""),
        (("module", "--param", '{"segments": 5}'), "multisegment", ""),
        (("module", "--param", segs((1, 1))), "multisegment", "'start'"),
        (("quotient", "--param", segs(("0", True), ("1", 2.7))), "multisegment", "'len'"),
        (("quotient", "--param", segs(("0", 1), ("1", 2.7))), "multisegment", "'len'"),
        (("module", "--param", segs(("0", 2.0))), "multisegment", "'len'"),
        (("gamma", "--param", "[]", "--k", "1"), "parameter", ""),
        (("gamma", "--param", json.dumps({"factors": [nu]}), "--k", "1"), "parameter", "'nu'"),
        (("gamma", "--param", gl2(2.9), "--k", "1"), "parameter", "'l'"),
        (("dim", "--param", gl2(True), "--k", "1"), "parameter", "'l'"),
        (("dim", "--param-file", str(tmp_path / "missing.json"), "--k", "1"), "parameter", ""),
        # a zero denominator, in a compact spec, a segment spec and JSON
        (("gamma", "--factors", "gl1(triv,1/0)", "--k", "1"), "parameter", zero_den),
        (("module", "--segments", "{1/0}"), "multisegment", zero_den),
        (("module", "--param", segs(("1/0", 1))), "multisegment", zero_den),
        (("quotient", "--segments", "{1/2+1/0i}"), "multisegment", "malformed scalar"),
    ):
        proc = run_cli(*args, check=False)
        assert proc.returncode == 1, args
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"error: bad {kind} spec: {field}"), args
        assert proc.stderr.count("\n") == 1, args
    # a multisegment with no segments
    for command in ("module", "quotient"):
        proc = run_cli(command, "--param", '{"segments": []}', check=False)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: cannot build a module from an empty multisegment\n"


def test_psi_rejects_non_integral_or_mismatched_support():
    for segments, message in (
        ("{1/2};{-1/2}", "error: the orbit map needs an integral multisegment\n"),
        ("{0};{0}", "error: support [0, 0] does not match lambda [1, 0]\n"),
    ):
        proc = run_cli("psi", "--lambda", "1,0", "--segments", segments, check=False)
        assert proc.returncode == 1, segments
        assert proc.stdout == ""
        assert proc.stderr == message


def test_psi_json():
    out = json.loads(
        run_cli("psi", "--lambda", "2,1,0", "--segments", "{0,1,2}").stdout
    )
    assert out["blocks"] == [1, 1, 1]
    assert out["flattening"]["arcs"] == [[1, 3]]
    assert out["class_size"] == 1


def test_psi_text():
    out = run_cli(
        "psi", "--lambda", "2,1,0", "--segments", "{0,1,2}", "--format", "text"
    ).stdout
    assert "flattening: 1 + 1" in out


def test_verify_exit_codes():
    proc = run_cli("verify", "--suite", "relations", "--max-k", "3")
    report = json.loads(proc.stdout)
    assert report["ok"] is True
    # literal bijection check fails honestly at a weight with an
    # off-support level-n class
    proc = run_cli("verify", "--suite", "bijection", "--lambda", "2,0,0", check=False)
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["failures"][0]["off_support"]
    proc = run_cli("verify", "--suite", "bijection", "--lambda", "2,1,0")
    assert json.loads(proc.stdout)["ok"] is True
    # a sweep that checked nothing fails and names the flags it reads
    for args, bounds in (
        (("--suite", "dims", "--max-n", "-1"), "--max-n and --max-k"),
        (("--suite", "psi", "--max-n", "0"), "--max-n"),
        (("--suite", "relations", "--max-k", "0"), "--max-k"),
        (("--suite", "eigenvalues", "--max-k", "0"), "--max-n and --max-k"),
        (("--suite", "bijection", "--max-n", "0"), "--max-n or --lambda"),
    ):
        proc = run_cli("verify", *args, check=False)
        assert proc.returncode == 1, args
        assert proc.stdout == ""
        assert proc.stderr == f"error: {args[0]} {args[1]} checked 0 objects; it reads {bounds}\n"
    # the relations suite reads --max-k only, so a --max-n is refused
    for args in (("--max-n", "3", "--max-k", "0"), ("--max-n", "4")):
        proc = run_cli("verify", "--suite", "relations", *args, check=False)
        assert proc.returncode == 1, args
        assert proc.stdout == ""
        assert proc.stderr == "error: --suite relations reads --max-k, not --max-n\n"


def test_verify_refuses_lambda_outside_bijection():
    # only the bijection suite reads --lambda; the others would check a
    # different window and pass, so a --lambda is refused
    for args, bounds in (
        (("--suite", "psi", "--max-n", "1"), "--max-n"),
        (("--suite", "dims"), "--max-n and --max-k"),
        (("--suite", "relations", "--max-k", "2"), "--max-k"),
        (("--suite", "eigenvalues"), "--max-n and --max-k"),
    ):
        proc = run_cli("verify", *args, "--lambda", "2,1,0", check=False)
        assert proc.returncode == 1, args
        assert proc.stdout == ""
        assert proc.stderr == f"error: {args[0]} {args[1]} reads {bounds}, not --lambda\n"


def test_out_file_written_atomically(tmp_path):
    target = tmp_path / "rows.csv"
    run_cli(
        "enumerate", "--lambda", "1,0", "--side", "hecke", "--format", "csv",
        "--out", str(target),
    )
    assert target.read_text().startswith("segments,k,central_character")
    assert list(tmp_path.iterdir()) == [target]
    # a missing directory, and an existing directory as the file: one error
    # line, and the temporary file is removed
    (tmp_path / "dir").mkdir()
    for out, reason in (
        (tmp_path / "missing" / "x.csv", "No such file or directory"),
        (tmp_path / "dir", "Is a directory"),
    ):
        proc = run_cli(
            "enumerate", "--lambda", "1,0", "--side", "hecke", "--out", str(out), check=False
        )
        assert proc.returncode == 1, out
        assert proc.stdout == ""
        assert proc.stderr == f"error: cannot write {out}: {reason}\n"
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["dir", "rows.csv"]
