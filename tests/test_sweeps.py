"""Fault injection into the verification sweeps: each sweep must write the
exact failure record, report ``ok: false``, and make ``glhecke verify`` exit
1 with that report as its JSON."""

import dataclasses
import json

import pytest

from test_heckemod import _with_entry

from glhecke import branching, cli, heckemod, levelmap, multisegments, orbits, realparams, sweeps


def _corrupt_module(monkeypatch):
    # eps_0[0, 0] of the module of {1};{0} moved by one
    build = heckemod.build_standard_module

    def corrupted(ms):
        M = build(ms)
        return _with_entry(M, 0, 0, 0, 1) if multisegments.segments_str(ms) == "{1};{0}" else M

    monkeypatch.setattr(heckemod, "build_standard_module", corrupted)


def _with_flipped_sign(M):
    # s_0 e_0 = sign * e_target with the sign negated
    sign = M.s_sign.copy()
    sign[0, 0] *= -1
    sign.setflags(write=False)
    return dataclasses.replace(M, s_sign=sign)


def _flipped_sign(monkeypatch):
    # the s_0 sign table of the module of {0,1} with its one entry negated
    build = heckemod.build_standard_module

    def flipped(ms):
        M = build(ms)
        return _with_flipped_sign(M) if multisegments.segments_str(ms) == "{0,1}" else M

    monkeypatch.setattr(heckemod, "build_standard_module", flipped)


def test_flipped_sign_table_fails_relations():
    # across blocks the flip breaks s_0 * s_0 = 1; inside a block it keeps
    # s_0 * s_0 = 1 and breaks the commutator relation
    for tau in ("{1};{0}", "{0,1}"):
        M = heckemod.build_standard_module(multisegments.parse_segments(tau))
        assert heckemod.verify_relations(M)
        assert not heckemod.verify_relations(_with_flipped_sign(M)), tau


def _wrong_center(monkeypatch):
    # raises on moved eps_0[0, 0] and eps_1[0, 0] for {1};{0}, which fail
    # the relations; returns the weight in the wrong order for {2};{0}
    center = heckemod.central_character_of_module

    def wrong(M):
        tau = multisegments.segments_str(M.ms)
        if tau == "{1};{0}":
            return center(_with_entry(_with_entry(M, 0, 0, 0, 1), M.k - 1, 0, 0, -1))
        return center(M)[::-1] if tau == "{2};{0}" else center(M)

    monkeypatch.setattr(heckemod, "central_character_of_module", wrong)


def _off_by_one_oracle(monkeypatch):
    oracle = branching.hom_multiplicity
    monkeypatch.setattr(branching, "hom_multiplicity", lambda p, k: oracle(p, k) + 1)


def _false_eigenvalues(monkeypatch):
    identity = levelmap.eigenvalue_identity

    def false_on_gl2(param, k):
        return identity(param, k) and "gl2" not in realparams.factors_str(param)

    monkeypatch.setattr(levelmap, "eigenvalue_identity", false_on_gl2)


def _one_orbit_class(monkeypatch):
    # every multisegment at lam goes to the class of the first one
    psi_g = orbits.psi_g
    monkeypatch.setattr(
        orbits, "psi_g", lambda ms, lam: psi_g(multisegments.enumerate_multisegments(lam)[0], lam)
    )


_COLLISION = {
    "involution": {"n": 2, "arcs": [], "signs": {"1": "-", "2": "+"}},
    "taus": ["{1};{0}", "{0,1}"],
}

CASES = {
    "relations": (
        _corrupt_module,
        ["--suite", "relations", "--max-k", "2"],
        {"checked": 24, "relations_ok": False, "center_ok": True},
        [{"tau": "{1};{0}", "check": "relations"}],
    ),
    "sign": (
        _flipped_sign,
        ["--suite", "relations", "--max-k", "2"],
        {"checked": 24, "relations_ok": False, "center_ok": True},
        [{"tau": "{0,1}", "check": "relations"}],
    ),
    "center": (
        _wrong_center,
        ["--suite", "relations", "--max-k", "2"],
        {"checked": 24, "relations_ok": True, "center_ok": False},
        [
            {
                "tau": "{1};{0}",
                "check": "center",
                "error": "the module fails the defining relations",
            },
            {"tau": "{2};{0}", "check": "center-multiset"},
        ],
    ),
    "dims": (
        _off_by_one_oracle,
        ["--suite", "dims", "--max-n", "1", "--max-k", "1"],
        {"checked": 3},
        [
            {"param": "gl1(triv,0)", "k": 0, "formula": 0, "oracle": 1},
            {"param": "gl1(triv,0)", "k": 1, "formula": 1, "oracle": 2},
            {"param": "gl1(sgn,0)", "k": 0, "formula": 1, "oracle": 2},
        ],
    ),
    "eigenvalues": (
        _false_eigenvalues,
        ["--suite", "eigenvalues", "--max-n", "2", "--max-k", "2"],
        {"checked": 9},
        [{"param": "gl2(2,1/2)", "k": 2}],
    ),
    "psi": (
        _one_orbit_class,
        ["--suite", "psi", "--max-n", "2"],
        {"checked": 4},
        [
            {
                "lambda": [1, 0],
                "check": "wellposed",
                "report": {
                    "lambda": [1, 0],
                    "ok": False,
                    "entries": [
                        {"tau": "{1};{0}", "outputs": 1, "ok": True},
                        {"tau": "{0,1}", "outputs": 1, "ok": False},
                    ],
                },
            },
            {
                "lambda": [1, 0],
                "check": "injective",
                "report": {"lambda": [1, 0], "classes": 1, "ok": False, "collisions": [_COLLISION]},
            },
        ],
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_sweep_failure_record_and_verify_exit(monkeypatch, capsys, case):
    inject, argv, fields, failures = CASES[case]
    inject(monkeypatch)
    flags = dict(zip(argv[::2], argv[1::2]))
    max_n, max_k = int(flags.get("--max-n", 4)), int(flags.get("--max-k", 4))
    report = sweeps.run_suite(flags["--suite"], max_n, max_k)
    assert report["failures"] == failures
    assert report["ok"] is False
    assert {key: report[key] for key in fields} == fields
    assert cli.main(["verify", *argv]) == 1
    assert json.loads(capsys.readouterr().out) == report
