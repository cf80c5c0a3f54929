"""Command-line front end: build module files, run single computations,
and execute the verification suites.

Reports are JSON (default) or CSV and are byte-identical across runs
with the same arguments and seed; wall-clock timings go to stderr only.
Exit codes: 0 all checks pass, 1 any check failure, 2 usage error or
invalid input (bad parameters, module files or points).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .gf import BadParams, FieldCtx, field_create, power_blocks
from .linalg import MatF
from . import modrep as mr
from . import symrep as sr
from . import variety as vy
from . import suites
from .modrep import EAModule


class ParseFailure(ValueError):
    """Raised for malformed point/element syntax; carries the position."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class WriteFailure(OSError):
    """Raised when an output file cannot be written."""


def _digits(s: str, i: int):
    """The run of ASCII digits of s from i, and the index past it."""
    j = i
    while j < len(s) and s[j] in "0123456789":
        j += 1
    return s[i:j], j


def parse_element(field: FieldCtx, text: str, offset: int = 0) -> np.ndarray:
    """The (m,) coefficient vector of an integer or a polynomial in w ("2w+1", "w^2+2w", "-w").

    Over a prime field w reads as 1.  A power of w is one power_blocks
    call, and digits are ASCII only.
    """
    s = text.strip()
    if not s:
        raise ParseFailure("empty coordinate", offset)
    offset += len(text) - len(text.lstrip())  # positions count the leading spaces stripped
    w = np.eye(1, field.m, min(1, field.m - 1), dtype=np.int64)  # w, or 1 over a prime field
    value = np.zeros(field.m, dtype=np.int64)
    i = 0
    term_index = 0
    while i < len(s):
        while i < len(s) and s[i] == " ":
            i += 1
        if i >= len(s):
            break
        sign = 1
        saw_operator = False
        while i < len(s) and s[i] in "+- ":
            if s[i] == "-":
                sign = -sign
                saw_operator = True
            elif s[i] == "+":
                saw_operator = True
            i += 1
        if term_index > 0 and not saw_operator:
            raise ParseFailure("missing operator between terms", offset + i)
        if i >= len(s):
            raise ParseFailure("dangling sign", offset + i)
        digits, i = _digits(s, i)
        term = np.eye(1, field.m, dtype=np.int64)[0]
        if i < len(s) and s[i] == "w":
            i += 1
            power = 1
            if i < len(s) and s[i] == "^":
                exp_digits, i = _digits(s, i + 1)
                if not exp_digits:
                    raise ParseFailure("missing exponent after ^", offset + i)
                power = int(exp_digits)
            if power:
                term = power_blocks(field, w, power, np.int64)[0, :, 0]
        elif not digits:
            raise ParseFailure(f"unexpected character {s[i]!r}", offset + i)
        value = (value + sign * (int(digits or 1) % field.p) * term) % field.p
        term_index += 1
    return value


def parse_point(field: FieldCtx, text: str) -> np.ndarray:
    """The (k, m) coefficient array of comma-separated elements (parse_element)."""
    coords = []
    offset = 0
    for part in text.split(","):
        coords.append(parse_element(field, part, offset))
        offset += len(part) + 1
    return np.stack(coords)


def parse_vectors(field: FieldCtx, text: str):
    """Semicolon-separated vectors of comma-separated coordinates, one parse_point array each."""
    return [parse_point(field, chunk) for chunk in text.split(";") if chunk.strip()]


def _emit(payload, out_path):
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise WriteFailure(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _load(path: str) -> EAModule:
    try:
        return EAModule.load(path)
    except FileNotFoundError as exc:
        raise BadParams(f"module file not found: {path}") from exc


def _given(**options) -> dict:
    """The options given on the command line; the callee's signature holds the defaults."""
    return {key: value for key, value in options.items() if value is not None}


# the options each build kind and query command takes besides --out (and
# query's --module); any other option given is refused, naming it
BUILD_TAKES = {
    "d1": ("--p", "--k", "--ext"),
    "dr": ("--p", "--k", "-r", "--ext"),
    "benson": ("--p", "--ext", "--lambda", "--mu"),
    "linear": ("--p", "--k", "--ext", "--w"),
    "induce": ("--p", "--ext", "--w", "--module"),
    "sum": ("--modules",),
    "tensor": ("--modules",),
    "wedge": ("--module", "-r"),
    "dual": ("--module",),
    "regular": ("--p", "--k", "--ext"),
}
QUERY_TAKES = {
    "jordan": ("--alpha", "--ext"),
    "generic": ("--ext", "--trials", "--seed"),
    "variety": ("--ext", "--poly", "--compare", "--format"),
    "projective": (),
    "decompose": ("--trials", "--seed"),
    "green": ("--ext",),
}


def _refuse_unused(args, command: str, name: str, takes: dict) -> None:
    """Refuse (BadParams) every option given that `command name` does not take."""
    offered = dict.fromkeys(flag for flags in takes.values() for flag in flags)
    unused = [flag for flag in offered if flag not in takes[name]
              and getattr(args, {"--lambda": "lam"}.get(flag, flag.lstrip("-"))) is not None]
    if unused:
        raise BadParams(f"{command} {name} takes no {', '.join(unused)}")


def cmd_build(args) -> int:
    kind = args.kind
    _refuse_unused(args, "build", kind, BUILD_TAKES)
    if kind in ("d1", "dr", "regular", "linear") and (args.p is None or args.k is None):
        raise BadParams(f"build {kind} needs --p and --k")
    field = None if args.p is None else field_create(args.p, 1 if args.ext is None else args.ext)
    if kind == "d1":
        module = sr.block_model_d1(sr.SymContext(args.p, args.k), field)
    elif kind == "dr":
        if args.r is None:
            raise BadParams("build dr needs -r")
        module = sr.d_r(sr.SymContext(args.p, args.k), field, args.r)
    elif kind == "benson":
        if args.p is None:
            raise BadParams("build benson needs --p")
        lam = parse_element(field, "0" if args.lam is None else args.lam)
        mu = parse_element(field, "0" if args.mu is None else args.mu)
        x1 = MatF.from_rows(field, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        x2 = MatF.from_rows(field, [[0, 0, 0], [lam, 0, 0], [mu, lam, 0]])
        module = EAModule(args.p, 2, field, [x1, x2])
    elif kind == "linear":
        vectors = parse_vectors(field, args.w) if args.w else []
        if any(len(v) != args.k for v in vectors):
            raise BadParams("span vectors must have length k")
        module = mr.linear_variety_module(args.p, args.k, field, vectors)
    elif kind == "regular":
        module = mr.regular_module(args.p, args.k, field)
    elif kind == "induce":
        if not args.w:
            raise BadParams("build induce needs --w (embed vectors)")
        if args.module:
            if args.p is not None or args.ext is not None:
                raise BadParams("build induce --module takes no --p or --ext: the module fixes the field")
            base = _load(args.module)
            embed = [v[:, 0].tolist() for v in parse_vectors(field_create(base.p, 1), args.w)]
        else:
            if args.p is None:
                raise BadParams("build induce needs --module or --p")
            prime = field_create(args.p, 1)
            embed = [v[:, 0].tolist() for v in parse_vectors(prime, args.w)]
            base = mr.trivial_module(args.p, len(embed), field)
        module = mr.induce(base, embed)
    elif kind in ("sum", "tensor"):
        if not args.modules or len(args.modules) != 2:
            raise BadParams(f"build {kind} needs exactly two --modules")
        a, b = (_load(path) for path in args.modules)
        module = mr.direct_sum(a, b) if kind == "sum" else mr.tensor(a, b)
    elif kind == "wedge":
        if not args.module or args.r is None:
            raise BadParams("build wedge needs --module and -r")
        module = mr.wedge(_load(args.module), args.r)
    elif kind == "dual":
        if not args.module:
            raise BadParams("build dual needs --module")
        module = mr.dual(_load(args.module))
    else:
        raise BadParams(f"unknown build kind {kind!r}")
    mr.validate(module)
    if not args.out:
        raise BadParams("build needs --out")
    try:
        module.save(args.out)
    except OSError as exc:
        raise WriteFailure(f"cannot write {args.out}: {exc}") from exc
    _emit({"written": args.out, "dim": module.n, "p": module.p, "k": module.k,
           "validated": True}, None)
    return 0


def _module_over_ext(args) -> EAModule:
    module = _load(args.module)
    if args.ext is not None and args.ext != module.field.m:
        module = mr.lift_to_extension(module, field_create(module.p, args.ext))
    return module


def cmd_query(args) -> int:
    command = args.command
    _refuse_unused(args, "query", command, QUERY_TAKES)
    if command == "jordan":
        module = _module_over_ext(args)
        if not args.alpha:
            raise BadParams("jordan needs --alpha")
        alpha = parse_point(module.field, args.alpha)
        jt = mr.point_jordan_type(module, alpha)
        name = vy.code_points(module.field, [module.field.to_codes(alpha).tolist()])[0]
        _emit(
            {
                "point": str(name),
                "jordan_type": str(jt),
                "multiplicities": list(jt.mult),
                "free": jt.is_free(),
            },
            args.out,
        )
        return 0
    if command == "generic":
        module = _load(args.module)
        jt, ev = vy.generic_type(
            module, **_given(ext_degree=args.ext, trials=args.trials, seed=args.seed)
        )
        _emit(
            {
                "generic_type": str(jt) if jt is not None else None,
                "inconclusive": ev.inconclusive,
                "samples": ev.samples,
                "attained": ev.attained,
                "ext_degree": ev.ext_degree,
                "retried": ev.retried,
            },
            args.out,
        )
        return 0
    if command == "variety":
        module = _module_over_ext(args)
        report = vy.variety_points(module, module.field)
        if args.compare and not args.poly:
            raise BadParams("--compare needs --poly pk")
        if args.poly:
            if args.poly != "pk":
                raise BadParams(f"unknown polynomial {args.poly!r}")
            zeros = vy.zero_points(sr.PkPoly(module.p, module.k), module.field)
            if args.compare:
                vy.compare_sets(report, zeros, target_tag="pk")
            else:
                report.target = "pk"
        if args.format == "csv":
            if not args.out:
                raise BadParams("csv output needs --out")
            report.write_csv(args.out)
            sys.stdout.write(json.dumps({"written": args.out, "verdict": report.verdict},
                                        sort_keys=True) + "\n")
        else:
            _emit(report.to_dict(), args.out)
        return 0
    if command == "projective":
        module = _load(args.module)
        is_proj, free = mr.projective_test(module)
        _emit({"is_projective": is_proj, "free_summands": free}, args.out)
        return 0
    if command == "decompose":
        module = _load(args.module)
        result = mr.fitting_decompose(module, **_given(trials=args.trials, seed=args.seed))
        _emit(
            {
                "status": result.status,
                "trials": result.trials,
                "summand_dims": [s.n for s in result.summands],
            },
            args.out,
        )
        return 0
    if command == "green":
        module = _module_over_ext(args)
        witness = vy.green_witness(module, module.field)
        name = None if witness is None else str(vy.code_points(module.field, [witness])[0])
        _emit({"witness": name}, args.out)
        return 0
    raise BadParams(f"unknown query command {command!r}")


def cmd_verify(args) -> int:
    start = time.perf_counter()
    reports = suites.run_suite(args.suite, p=args.p, k=args.k, ext=args.ext,
                               trials=args.trials, seed=args.seed)
    total = time.perf_counter() - start
    payload = [r.to_dict() for r in reports]
    _emit(payload if len(payload) > 1 else payload[0], args.out)
    fails = sum(1 for r in reports for c in r.checks if not c.ok and not r.exploratory)
    print(f"suite {args.suite}: {sum(len(r.checks) for r in reports)} checks, "
          f"{fails} failures, {total:.1f}s", file=sys.stderr)
    return 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eamod",
        description="Exact Jordan types and rank varieties for modules over "
        "elementary abelian p-groups",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="construct a module and write an eamod-v1 file")
    b.add_argument("kind", choices=["d1", "dr", "benson", "linear", "induce",
                                    "sum", "tensor", "wedge", "dual", "regular"])
    b.add_argument("--p", type=int)
    b.add_argument("--k", type=int)
    b.add_argument("-r", type=int, dest="r")
    b.add_argument("--ext", type=int, help="extension degree of the field (default 1)")
    b.add_argument("--lambda", dest="lam", help="benson parameter (w-polynomial, default 0)")
    b.add_argument("--mu", help="benson parameter (w-polynomial, default 0)")
    b.add_argument("--w", help="vectors: comma coords, semicolon separated")
    b.add_argument("--module", help="input module file")
    b.add_argument("--modules", nargs="*", help="input module files (sum/tensor)")
    b.add_argument("--out", required=False)
    b.set_defaults(fn=cmd_build)

    q = sub.add_parser("query", help="run one computation on a module file")
    q.add_argument("command", choices=["jordan", "generic", "variety",
                                       "projective", "decompose", "green"])
    q.add_argument("--module", required=True)
    q.add_argument("--alpha", help="point: comma-separated w-polynomials")
    q.add_argument("--ext", type=int)
    q.add_argument("--trials", type=int)
    q.add_argument("--seed", type=int)
    q.add_argument("--poly", help="target zero set (pk)")
    q.add_argument("--compare", action="store_true", default=None)
    q.add_argument("--out")
    q.add_argument("--format", choices=["json", "csv"], help="variety report format (default json)")
    q.set_defaults(fn=cmd_query)

    v = sub.add_parser("verify", help="run a named verification suite")
    v.add_argument("--suite", required=True, choices=list(suites.SUITE_NAMES) + ["all"])
    v.add_argument("--p", type=int)
    v.add_argument("--k", type=int)
    v.add_argument("--ext", type=int)
    v.add_argument("--trials", type=int)
    v.add_argument("--seed", type=int)
    v.add_argument("--out")
    v.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
