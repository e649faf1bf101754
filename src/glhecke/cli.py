"""Command-line front end.

Subcommands: enumerate, gamma, dim, oracle, module, quotient, psi, verify.
Each ``cmd_*`` returns its output, text or a JSON payload, and its exit
code, and :func:`main` writes the output once, to stdout or atomically to
``--out``; a payload is built in full before its indented JSON is encoded
and written chunk by chunk.  All output is deterministic (fixed orderings,
sorted JSON keys).  ``verify`` exits nonzero iff a check failed or the
sweep checked nothing, and refuses a bound flag its suite does not read
(``sweeps.SUITES`` names the bounds of each suite).

The boundary: a ``ValueError`` or ``RuntimeError`` raised by a command or
by the library it calls is a refusal of the input, and :func:`main` turns
it into the one line ``error: <message>`` and exit 1, with nothing
written.  Any other exception is a bug and keeps its traceback.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import os
import sys
import tempfile

from . import branching, heckemod, levelmap, multisegments, orbits, realparams, sweeps
from .scalars import scalar_str

__all__ = ["main"]


def _parse_lambda(text: str) -> tuple[int, ...]:
    try:
        entries = tuple(int(tok) for tok in text.replace(" ", "").split(",") if tok != "")
    except ValueError as exc:
        raise ValueError(f"--lambda must be comma-separated integers: {exc}")
    if not entries:
        raise ValueError("--lambda needs at least one entry")
    return multisegments._validate_integral_lambda(entries)


def _chunks(output):
    """Text as it is; a JSON payload, already built, as its JSON with sorted
    keys, an indent of 2 and a final newline, in runs of 4096 encoder
    chunks, so that neither the whole text nor a write per chunk is made."""
    if isinstance(output, str):
        yield output
        return
    encoded = itertools.chain(json.JSONEncoder(sort_keys=True, indent=2).iterencode(output), "\n")
    while run := "".join(itertools.islice(encoded, 4096)):
        yield run


def _emit(output, out: "str | None") -> None:
    if out is None:
        sys.stdout.writelines(_chunks(output))
        return
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(out)), prefix=".glhecke-")
        with os.fdopen(fd, "w") as fh:
            fh.writelines(_chunks(output))
        os.replace(tmp, out)
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc.strerror or exc}")
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# what a malformed spec raises: ValueError for a bad value, a missing field
# or JSON of the wrong shape (every *_from_json reads its fields through
# scalars._json_field), and OSError for an unreadable file
_SPEC_ERRORS = (ValueError, OSError)


def _load_real_param(args) -> realparams.RealParam:
    sources = [s for s in (args.factors, args.param, args.param_file) if s]
    if len(sources) != 1:
        raise ValueError("give exactly one of --factors, --param, --param-file")
    try:
        if args.factors:
            return realparams.parse_factors(args.factors)
        if args.param:
            return realparams.real_param_from_json(json.loads(args.param))
        with open(args.param_file) as fh:
            return realparams.real_param_from_json(json.load(fh))
    except _SPEC_ERRORS as exc:
        raise ValueError(f"bad parameter spec: {exc}")


def _load_multisegment(args) -> multisegments.Multisegment:
    sources = [s for s in (args.segments, args.param, getattr(args, "steinberg", None)) if s]
    if len(sources) != 1:
        raise ValueError("give exactly one of --segments, --param, --steinberg")
    try:
        if args.segments:
            return multisegments.parse_segments(args.segments)
        if args.param:
            return multisegments.multisegment_from_json(json.loads(args.param))
        return multisegments.steinberg_param(int(args.steinberg))
    except _SPEC_ERRORS as exc:
        raise ValueError(f"bad multisegment spec: {exc}")


def _add_real_param_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--factors", help="compact spec, e.g. 'gl2(2,1/2);gl1(sgn,-1)'")
    p.add_argument("--param", help="inline JSON parameter")
    p.add_argument("--param-file", help="path to a JSON parameter file")


def _add_segment_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--segments", help="inline spec, e.g. '{0,1};{-1,0}'")
    p.add_argument("--param", help="inline JSON multisegment")
    p.add_argument("--steinberg", metavar="K", help="single full segment centered at 0")


def _check_n(args, lam) -> None:
    if getattr(args, "n", None) is not None and args.n != len(lam):
        raise ValueError(f"--n {args.n} does not match the {len(lam)} lambda entries")


def cmd_enumerate(args) -> tuple[object, int]:
    lam = _parse_lambda(args.lam)
    _check_n(args, lam)
    # per class: its JSON object, name, size and character, under these keys
    if args.side == "real":
        if (args.min_level or 0) < 0:
            raise ValueError(f"--min-level must be nonnegative, got {args.min_level}")
        keys, m = ("param", "factors", "level", "infinitesimal_character"), realparams
        rows = [
            (m.real_param_to_json(p), m.factors_str(p), p.level, p.infinitesimal_character())
            for p in m.enumerate_real_params(lam, args.min_level or 0)
        ]
    elif args.min_level is not None:
        raise ValueError("--side hecke reads no --min-level; a multisegment has no level")
    else:
        keys, m = ("hecke", "segments", "k", "central_character"), multisegments
        rows = [
            (m.multisegment_to_json(ms), m.segments_str(ms), ms.k, m.central_character(ms))
            for ms in m.enumerate_multisegments(lam)
        ]
    if args.format == "json":
        return [
            {keys[0]: obj, keys[2]: size, keys[3]: [scalar_str(c) for c in chars]}
            for obj, _, size, chars in rows
        ], 0
    table = [[n, str(size), ",".join(map(scalar_str, chars))] for _, n, size, chars in rows]
    if args.format == "csv":
        return _csv_text(list(keys[1:]), table), 0
    return "\n".join("  ".join(r) for r in table) + "\n", 0


def cmd_gamma(args) -> tuple[object, int]:
    param = _load_real_param(args)
    image = levelmap.gamma(param, args.k)
    payload = {"k": args.k, "level": param.level}
    if image is None:
        payload["result"] = "zero"
    else:
        payload["hecke"] = multisegments.multisegment_to_json(image)
        payload["central_character"] = [
            scalar_str(c) for c in multisegments.central_character(image)
        ]
    return payload, 0


def cmd_dim(args) -> tuple[object, int]:
    param = _load_real_param(args)
    d = levelmap.dimension_std(param, args.k)
    if args.format == "text":
        return f"{d}\n", 0
    return {"k": args.k, "level": param.level, "dim": d}, 0


def cmd_oracle(args) -> tuple[object, int]:
    if args.factors or args.param or args.param_file:
        if args.s is not None or args.m is not None:
            raise ValueError("oracle reads a parameter or --s and --m, not both")
        param = _load_real_param(args)
        mult = branching.hom_multiplicity(param, args.k)
        return {"k": args.k, "level": param.level, "multiplicity": mult}, 0
    if args.s is None or args.m is None:
        raise ValueError("oracle needs either a parameter or --s and --m")
    for flag, value in (("--s", args.s), ("--m", args.m), ("--k", args.k)):
        if value < 0:
            raise ValueError(f"{flag} must be nonnegative, got {value}")
    decomp = branching.tensor_power_standard(args.s, args.m, args.k)
    rows = sorted(
        ["|".join(str(lab) for lab in labels), str(mult)] for labels, mult in decomp.items()
    )
    return _csv_text(["tuple", "multiplicity"], rows), 0


def cmd_module(args) -> tuple[object, int]:
    ms = _load_multisegment(args)
    module = heckemod.build_standard_module(ms)
    payload = heckemod.module_to_json(module)
    payload["central_character"] = [scalar_str(c) for c in module.chi]
    if args.quotient:
        dominant = multisegments.dominant_representative(ms)
        payload["quotient_dim"] = heckemod.irreducible_quotient(dominant).dim
    return payload, 0


def cmd_quotient(args) -> tuple[object, int]:
    ms = multisegments.dominant_representative(_load_multisegment(args))
    q = heckemod.irreducible_quotient(ms)
    std_dim = heckemod.build_standard_module(ms).dim
    return {"std_dim": std_dim, "quotient_dim": q.dim}, 0


def cmd_psi(args) -> tuple[object, int]:
    lam = _parse_lambda(args.lam)
    _check_n(args, lam)
    diagram = orbits.build_diagram(_load_multisegment(args), lam)
    sigma = orbits.flatten_diagram(diagram)
    cls = orbits.orbit_class(sigma, diagram.blocks())
    if args.format == "text":
        return (
            orbits.render_diagram(diagram)
            + "\n\nflattening: "
            + orbits.render_involution(sigma)
            + f"\nclass size: {cls.size}\ncanonical:  "
            + orbits.render_involution(cls.canonical)
            + "\n"
        ), 0
    return {
        "lambda": list(lam),
        "blocks": list(diagram.blocks().sizes),
        "flattening": orbits.involution_to_json(sigma),
        "canonical": orbits.involution_to_json(cls.canonical),
        "class_size": cls.size,
    }, 0


def cmd_verify(args) -> tuple[object, int]:
    _, bounds, text = sweeps.SUITES[args.suite]
    given = {"--max-n": args.max_n, "--max-k": args.max_k, "--lambda": args.lam}
    for flag, value in given.items():
        if value is not None and flag not in bounds:
            raise ValueError(f"--suite {args.suite} reads {text}, not {flag}")
    # a suite that reads --max-n or --lambda sweeps a window or checks one weight
    if args.max_n is not None and args.lam is not None:
        raise ValueError(f"--suite {args.suite} reads {text}, not both")
    lam = _parse_lambda(args.lam) if args.lam is not None else None
    max_n, max_k = (4 if v is None else v for v in (args.max_n, args.max_k))
    report = sweeps.run_suite(args.suite, max_n, max_k, lam)
    if report["checked"] == 0:
        raise ValueError(f"--suite {args.suite} checked 0 objects; it reads {text}")
    return report, 0 if report["ok"] else 1


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="glhecke",
        description="Exact parameter correspondences and induced modules for gl(k).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list parameter classes at a weight")
    p.add_argument("--lambda", dest="lam", required=True, help="e.g. '2,1,0'")
    p.add_argument("--n", type=int, help="expected number of lambda entries (guard)")
    p.add_argument("--side", choices=("real", "hecke"), required=True)
    p.add_argument("--min-level", type=int, help="real side only; default 0")
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("gamma", help="image of a real parameter at level k")
    _add_real_param_args(p)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("dim", help="dimension of the level-k image")
    _add_real_param_args(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("oracle", help="branching-rule multiplicities")
    _add_real_param_args(p)
    p.add_argument("--s", type=int, help="number of O(2) slots (dump mode)")
    p.add_argument("--m", type=int, help="number of O(1) slots (dump mode)")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("module", help="explicit induced module matrices")
    _add_segment_args(p)
    p.add_argument("--quotient", action="store_true", help="also report the quotient dimension")
    p.set_defaults(func=cmd_module)

    p = sub.add_parser("quotient", help="dimension of the unique irreducible quotient")
    _add_segment_args(p)
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("psi", help="orbit class of a multisegment")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--n", type=int, help="expected number of lambda entries (guard)")
    _add_segment_args(p)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_psi)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=sweeps.SUITES, required=True)
    p.add_argument("--max-n", type=int, help="default 4")
    p.add_argument("--max-k", type=int, help="default 4")
    p.add_argument("--lambda", dest="lam", help="restrict the bijection suite to one weight")
    p.set_defaults(func=cmd_verify)

    for p in sub.choices.values():
        p.add_argument("--out")  # last, where each command's --help lists it
    args = parser.parse_args(argv)
    try:
        output, code = args.func(args)
        _emit(output, args.out)
    except (ValueError, RuntimeError) as exc:
        raise SystemExit(f"error: {exc}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
