import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glhecke import cli


def run_cli(*args, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "glhecke", *args],
        capture_output=True,
        text=True,
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed: {proc.returncode}\n{proc.stderr}")
    return proc


def run_in_process(argv):
    """(exit code or SystemExit message, stdout, stderr) of ``cli.main``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


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


def test_enumerate_hecke_refuses_min_level():
    # a multisegment has no level, so the flag would silently do nothing
    for value in ("5", "0"):
        proc = run_cli(
            "enumerate", "--lambda", "2,1,0", "--side", "hecke", "--min-level", value,
            check=False,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: --side hecke reads no --min-level")
        assert len(proc.stderr.splitlines()) == 1
    real = ("enumerate", "--lambda", "2,1,0", "--side", "real")
    assert run_cli(*real).stdout == run_cli(*real, "--min-level", "0").stdout


def test_enumerate_real_refuses_negative_min_level():
    # a negative floor would silently list every class
    args = ("enumerate", "--lambda", "2,1,0", "--side", "real", "--min-level")
    proc = run_cli(*args, "-3", check=False)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "error: --min-level must be nonnegative, got -3\n"
    assert run_in_process([*args, "-1"])[:2] == (
        "error: --min-level must be nonnegative, got -1",
        "",
    )


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


def test_oracle_answers_a_chain_past_the_recursion_limit():
    proc = run_cli("oracle", "--factors", "gl2(1500,0)", "--k", "1500", check=False)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == {"k": 1500, "level": 1500, "multiplicity": 1}


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


def test_oracle_refuses_parameter_with_dump_flags():
    for extra in (("--s", "1", "--m", "1"), ("--s", "1"), ("--m", "0")):
        proc = run_cli("oracle", "--factors", "gl2(2,0)", *extra, "--k", "2", check=False)
        assert proc.returncode == 1 and proc.stdout == "", extra
        assert proc.stderr == "error: oracle reads a parameter or --s and --m, not both\n"


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


def test_json_spec_that_is_no_object_gives_one_message():
    # JSON of another shape where an object belongs, at the top or inside an
    # array: one message naming the field the object should hold, and the
    # value it got written as JSON
    for argv, kind, field, got in (
        (["module", "--param", "[]"], "multisegment", "segments", "[]"),
        (["module", "--param", '"segments"'], "multisegment", "segments", '"segments"'),
        (["gamma", "--param", "5", "--k", "1"], "parameter", "factors", "5"),
        (["quotient", "--param", '{"segments": [5]}'], "multisegment", "start", "5"),
        (["dim", "--param", '{"factors": ["x"]}', "--k", "1"], "parameter", "nu", '"x"'),
        (["psi", "--lambda", "1,0", "--param", "null"], "multisegment", "segments", "null"),
        (["psi", "--lambda", "1,0", "--param", '"x"'], "multisegment", "segments", '"x"'),
    ):
        message = f"error: bad {kind} spec: expected a JSON object with field '{field}', got {got}"
        assert run_in_process(argv) == (message, "", ""), argv
    spec = '{"segments": [{"start": true, "len": 1}]}'
    message = "error: bad multisegment spec: 'start' must be a JSON string, got true"
    assert run_in_process(["psi", "--lambda", "1,0", "--param", spec]) == (message, "", "")


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


def test_psi_class_size_at_20_points():
    # weight 2^5 1^10 0^5 with {0,1,2} x 5 and {1} x 5: the five cross arcs
    # join the columns of 2 and 0 and match in 5! ways; the column of 1 holds
    # five flipped '+' and five '-' cells, which form the signed involutions
    # of 10 points with P = Q = 5, sum over a inner arcs of
    # 10!/(a! 2^a (5-a)!^2) = 252 + 3150 + 12600 + 18900 + 9450 + 945 = 45297
    lam = ",".join(["2"] * 5 + ["1"] * 10 + ["0"] * 5)
    code, out, err = run_in_process(
        ["psi", "--lambda", lam, "--segments", ";".join(["{0,1,2}"] * 5 + ["{1}"] * 5)]
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["class_size"] == 45297 * math.factorial(5) == 5435640


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


def test_verify_refuses_bounds_a_suite_ignores():
    for args, refusal in (
        (("--suite", "psi", "--max-k", "9"), "reads --max-n, not --max-k"),
        (("--suite", "bijection", "--max-k", "1"), "reads --max-n or --lambda, not --max-k"),
        (
            ("--suite", "bijection", "--lambda", "1,0", "--max-n", "7", "--max-k", "1"),
            "reads --max-n or --lambda, not --max-k",
        ),
        (
            ("--suite", "bijection", "--lambda", "1,0", "--max-n", "7"),
            "reads --max-n or --lambda, not both",
        ),
    ):
        proc = run_cli("verify", *args, check=False)
        assert proc.returncode == 1, args
        assert proc.stdout == ""
        assert proc.stderr == f"error: {args[0]} {args[1]} {refusal}\n"


# (exit code, sha256 of stdout) of in-process `glhecke verify`, recorded
# before the sweeps shared one walk and one report builder
VERIFY_DIGESTS = {
    "dims --max-n 3 --max-k 3": (
        0, "cf0ecb77362a7dad70c4d7b7687bcba609ddbb188e849733413b2b3ff6dce157"
    ),
    "relations --max-k 3": (
        0, "dadb09443d6b3abad09d2d14a222ee4cbb9bd963f63dc95152351d08b4a3a5dc"
    ),
    "bijection --max-n 4": (
        1, "a3f378057ffc5196f6a1b960e445f7907e9a6274295327f327a37717f4de371b"
    ),
    "bijection --lambda 2,0,0": (
        1, "469768d76eb53053ae5bf27b13e412b259590fc9fb4d913d46febebc5545618f"
    ),
    "psi --max-n 4": (
        0, "bc7d53e37b3d9dafac8b33269867444a2fb9de4e8c5362505857d97e3ab736e2"
    ),
    "eigenvalues --max-n 4 --max-k 4": (
        0, "d6f5a7181767f448565820031028c3b36317e24ef9bdad2cd8a5f4ecf580e97c"
    ),
}


@pytest.mark.parametrize("args", VERIFY_DIGESTS)
def test_verify_report_digests(args):
    code, out, err = run_in_process(["verify", "--suite", *args.split()])
    assert err == ""
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == VERIFY_DIGESTS[args]


# (exit code, sha256 of stdout) of in-process `glhecke` for every subcommand
# and --format, recorded before the commands returned their text to `main`
OUTPUT_DIGESTS = {
    "enumerate --lambda 2,1,0 --side real --format json": (
        0, "643461d1bb4e3e8adf67d55ede82666a739f209922cd0f057d74caac4b3cabff"
    ),
    "enumerate --lambda 2,1,0 --side real --format csv": (
        0, "ab7dcd1a0ec625503b25795e57562530cfb7827fb176357f8cf1769d90a0bc45"
    ),
    "enumerate --lambda 2,1,0 --side real --format text": (
        0, "d92b65888cd5547dda403db8524a3afdb92ad1fc3d0fdefe72a737a49fde5d11"
    ),
    "enumerate --lambda 2,1,0 --side hecke --format json": (
        0, "773b6d445e6bbefb0431ce0e6137c1d249c105d6f27612eb8180917924faa8d4"
    ),
    "enumerate --lambda 2,1,0 --side hecke --format csv": (
        0, "e66c08629c49f26489dfced0283e963e90d608dc61cc1d3a067ed3f024a1e32a"
    ),
    "enumerate --lambda 2,1,0 --side hecke --format text": (
        0, "613319cb17ef1810bd027188910015e206e2eb50211ddad8ea3d0be63bf02b0d"
    ),
    "enumerate --lambda 2,1,1,0 --side real --min-level 4 --format csv": (
        0, "f451e760972e0ab86db96cfbaa0134d1544137ad8fc0cddc166d1bc5a672edd2"
    ),
    "gamma --factors gl2(2,1/2);gl2(2,-1/2) --k 4": (
        0, "2c21dac849a8954c2496f385cecc65ec0cc8cf17d8e5830a6e15abc968af5926"
    ),
    "gamma --factors gl2(4,0) --k 3": (
        0, "b261f8facdaf29b1e22fb129924f92da03121d5801d795e4201cf6f0d5d98868"
    ),
    "dim --factors gl2(2,1/2);gl2(2,-1/2) --k 4": (
        0, "025bd1f99dcd33ced406d189ab4c888ca3b5238f6f32bc7bb4ece55f93d230c6"
    ),
    "dim --factors gl2(2,1/2);gl2(2,-1/2) --k 4 --format text": (
        0, "06e9d52c1720fca412803e3b07c4b228ff113e303f4c7ab94665319d832bbfb7"
    ),
    "oracle --factors gl2(3,0) --k 3": (
        0, "29056411a6c2c469defa14cd840f1cf419fc13aec9584ea46801d31b446862ef"
    ),
    "oracle --s 1 --m 1 --k 3": (
        0, "823ff6678eb9c5a99724677b1981fb0317d001cd95563d0b31230cb154b92c0a"
    ),
    "module --segments {1/2};{-1/2}": (
        0, "b81a6403578e935264b63fd98681d06d91dfa1b6fb4ac205cab7a56347e41be0"
    ),
    "module --segments {1/2,3/2};{-1/2,1/2};{0}": (
        0, "069fbfdc77f4428a6b159ea7d3bd3438ae816aaeab353bcc16f64a49ff107e10"
    ),
    "module --segments {4};{3};{2};{1};{0}": (
        0, "22ed2aded52951dcf83615ff4009022cd4076b182719261587785c2960c3e6cd"
    ),
    "module --segments {0};{1} --quotient": (
        0, "b088875b1d5907f1e81574a71fe1b540869a781eb6af3b88b082ae7d83af0da6"
    ),
    "quotient --segments {0,1};{2};{1}": (
        0, "cafa83c91d054d5cd79780344e7be51a1991b0fdd1d6c05cbc41f67ce413dd40"
    ),
    "psi --lambda 2,1,1,0 --segments {1,2};{0,1}": (
        0, "485af803a9fd2eb5eeb3e0400d5103b7ccefefd13508d022e48e81d99c4759db"
    ),
    "psi --lambda 2,1,1,0 --segments {1,2};{0,1} --format text": (
        0, "a45c03b0ab8a8336c60692d525fd7c79a55bfc0a172fcedd30710669287d0f26"
    ),
    # a class of 68 040 members, printed with its size and least member
    "psi --lambda 2,2,2,2,1,1,1,1,1,1,1,1,0,0,0,0"
    " --segments {0,1,2};{0,1,2};{0,1,2};{0,1,2};{1};{1};{1};{1}": (
        0, "d4f3bf43ad95f82df91074405e12975d3612eb9133000f275fbb80dc9cbd714b"
    ),
    "psi --lambda 2,2,2,2,1,1,1,1,1,1,1,1,0,0,0,0"
    " --segments {0,1,2};{0,1,2};{0,1,2};{0,1,2};{1};{1};{1};{1} --format text": (
        0, "2a6e05490ec12945e5fa1fb77a76614b24fdbf146a5d467a2ac2bc2998d4d3ba"
    ),
    "verify --suite psi --max-n 3": (
        0, "37fe70b0d43b6c1df6d309eb7d95b1bc517bce160c5d3db40b2bf457655ccf5e"
    ),
    "verify --suite bijection --lambda 2,0,0": (
        1, "469768d76eb53053ae5bf27b13e412b259590fc9fb4d913d46febebc5545618f"
    ),
}


@pytest.mark.parametrize("args", OUTPUT_DIGESTS)
def test_output_digests(args, tmp_path):
    code, out, err = run_in_process(args.split())
    assert err == ""
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == OUTPUT_DIGESTS[args]
    # --out writes the same bytes to the file, and nothing to stdout
    target = tmp_path / "out.txt"
    assert run_in_process([*args.split(), "--out", str(target)]) == (code, "", "")
    assert target.read_bytes() == out.encode()
    assert list(tmp_path.iterdir()) == [target]


# the library function each subcommand calls, keyed by an argv that reaches it
LIBRARY_CALLS = {
    "enumerate --lambda 1,0 --side real": "realparams.enumerate_real_params",
    "enumerate --lambda 1,0 --side hecke": "multisegments.enumerate_multisegments",
    "gamma --factors gl2(2,0) --k 2": "levelmap.gamma",
    "dim --factors gl2(2,0) --k 2": "levelmap.dimension_std",
    "oracle --factors gl2(2,0) --k 2": "branching.hom_multiplicity",
    "oracle --s 1 --m 0 --k 2": "branching.tensor_power_standard",
    "module --steinberg 2": "heckemod.build_standard_module",
    "module --steinberg 2 --quotient": "heckemod.irreducible_quotient",
    "quotient --steinberg 2": "heckemod.irreducible_quotient",
    "psi --lambda 1,0 --segments {0,1}": "orbits.build_diagram",
    "psi --lambda 1,0 --segments {0,1} --format text": "orbits.orbit_class",
    "verify --suite psi --max-n 2": "sweeps.run_suite",
}


def _raising(error):
    def call(*args, **kwargs):
        raise error("boom")

    return call


@pytest.mark.parametrize("error", [ValueError, RuntimeError])
@pytest.mark.parametrize("args", LIBRARY_CALLS)
def test_library_error_is_one_line_and_writes_nothing(args, error, monkeypatch, tmp_path):
    module, name = LIBRARY_CALLS[args].split(".")
    monkeypatch.setattr(getattr(cli, module), name, _raising(error))
    assert run_in_process(args.split()) == ("error: boom", "", "")
    # no target file and no temporary file is left behind
    out = str(tmp_path / "out.txt")
    assert run_in_process([*args.split(), "--out", out]) == ("error: boom", "", "")
    assert list(tmp_path.iterdir()) == []


def test_library_error_exits_with_one_stderr_line():
    script = (
        "import sys\n"
        "from glhecke import cli, sweeps\n"
        "def boom(*args):\n"
        "    raise RuntimeError('boom')\n"
        "sweeps.run_suite = boom\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, "verify", "--suite", "psi"],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "error: boom\n")


# malformed spec text: at most 4 weight entries, segment points or factors,
# so no draw starts exponential work
_NUMBER = st.one_of(
    st.integers(-2, 4).map(str),
    st.sampled_from(["", " ", "x", "1/2", "-1/2", "1/0", "1+1i", "1i", "+1", "--1", "1.5"]),
)
_LEAF = st.one_of(st.none(), st.booleans(), st.integers(-2, 2), st.floats(), st.text(max_size=3))


def _json_object(**fields):
    """A JSON object with any subset of ``fields``, each value drawn from
    its strategy or replaced by an arbitrary leaf."""
    return st.fixed_dictionaries(
        {}, optional={key: st.one_of(value, _LEAF) for key, value in fields.items()}
    )


_REAL_JSON = _json_object(
    factors=st.lists(
        _json_object(
            kind=st.sampled_from(["gl1", "gl2", "gl3"]),
            eps=st.sampled_from(["triv", "sgn"]),
            l=st.integers(-1, 4),
            nu=_json_object(re=_NUMBER, im=_NUMBER),
        ),
        max_size=4,
    )
)
_SEGMENTS_JSON = _json_object(
    segments=st.lists(_json_object(start=_NUMBER, len=st.integers(-1, 2)), max_size=2)
)


@st.composite
def _json_text(draw, objects):
    """JSON text of a drawn object, or of a leaf, possibly cut short."""
    text = json.dumps(draw(st.one_of(objects, _LEAF)))
    return text[: draw(st.integers(0, len(text)))] if draw(st.booleans()) else text


@st.composite
def _segments_text(draw):
    """Up to 4 points cut into braced segments, with junk around them."""
    points = draw(st.lists(_NUMBER, max_size=4))
    segments, current = [], []
    for point in points:
        current.append(point)
        if draw(st.booleans()):
            segments.append("{" + ",".join(current) + "}")
            current = []
    if current:
        segments.append("{" + ",".join(current) + draw(st.sampled_from(["}", ""])))
    junk = st.sampled_from(["", "(", ")", "{", "}", ";", "x"])
    return draw(junk) + draw(st.sampled_from([";", ",", "", " ; "])).join(segments) + draw(junk)


def _flag(name, text):
    # --flag=text, so argparse reads a leading '-' as part of the value
    return text.map(f"--{name}={{}}".format)


_LAMBDA = _flag("lambda", st.lists(_NUMBER, max_size=4).map(",".join))
_FACTOR = st.one_of(
    st.builds("gl1({},{})".format, st.sampled_from(["triv", "sgn", "x", ""]), _NUMBER),
    st.builds("gl2({},{})".format, _NUMBER, _NUMBER),
    st.sampled_from(["gl1(triv)", "gl2(", "gl3(1,0)", "x", "()", "gl2(1,2,3)"]),
)
_REAL_SPEC = st.one_of(
    _flag("factors", st.lists(_FACTOR, max_size=4).map(";".join)),
    _flag("param", _json_text(_REAL_JSON)),
)
_HECKE_SPEC = st.one_of(
    _flag("segments", _segments_text()), _flag("param", _json_text(_SEGMENTS_JSON))
)
_SPEC_ARGV = st.one_of(
    st.tuples(st.just("enumerate"), _LAMBDA, st.sampled_from(["--side=real", "--side=hecke"])),
    st.tuples(st.just("psi"), _LAMBDA, _HECKE_SPEC),
    st.tuples(st.sampled_from(["module", "quotient"]), _HECKE_SPEC),
    st.tuples(st.just("module"), st.just("--quotient"), _HECKE_SPEC),
    st.tuples(
        st.sampled_from(["gamma", "dim", "oracle"]),
        _REAL_SPEC,
        _flag("k", st.integers(-1, 4).map(str)),
    ),
)


@settings(max_examples=400, deadline=None)
@given(_SPEC_ARGV)
def test_spec_flags_fuzz_gives_output_or_one_error_line(argv):
    code, out, err = run_in_process(list(argv))
    if code == 0:
        assert out and err == "", argv
    else:
        assert isinstance(code, str) and code.startswith("error: "), (argv, code)
        assert "\n" not in code and out == "" and err == "", argv


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
