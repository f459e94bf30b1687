"""Command-line interface.

Subcommands: construct, lambda, qlambda, charpoly, check, turannum, brute,
brutef, family, verify.  Exit codes: 0 success, 1 reserved for `check`
meaning the pattern was found, 2 bad arguments, 3 computation failure
(e.g. the eigen-residual did not meet tolerance).

Graphs come from graph6 strings (argument, file, or newline-separated
stdin) or from the constructor mini-language, the one way to name a built
graph (`construct SPEC` prints a spec's graph as graph6):

    turan:n,p  multipartite:a,b,c  fan:k,r  extremal:n,k,r[,part]
    split:n,k  ch:k

`family` and `verify` take n, k and r and nothing else that changes their
report.  All floating output uses 12 significant digits.  FANSPEC_MAX_N
raises the enumeration cap of the brute-force runs, `brute` and `brutef`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .families import (
    chvatal_hanson_extremal,
    complete_multipartite,
    extremal_fan_graph,
    fan_graph,
    split_graph,
    turan_graph,
)
from .formulas import fan_extremal_number
from .graphs import AnyGraph, Graph6Error, from_graph6, to_graph6
from .oracle import (
    DEFAULT_ENUM_CAP,
    _fields_json,
    _json_value,
    brute_force_extremal,
    brute_force_f_report,
    family_search,
    verify_main_theorem,
)
from .patterns import contains_fan
from .spectral import (
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    ConvergenceError,
    multipartite_charpoly_eval,
    signless_laplacian_spectrum,
    spectral_radius,
)

def fmt12(x: float) -> str:
    """12 significant digits, positional (trailing zeros kept)."""
    import numpy as np

    return np.format_float_positional(
        float(x), precision=12, unique=False, fractional=False, trim="k"
    )


def parse_construct_spec(text: str) -> AnyGraph:
    name, _, rest = text.partition(":")
    try:
        args = [int(a) for a in rest.split(",")] if rest else []
    except ValueError as exc:
        raise ValueError(f"bad constructor arguments in {text!r}") from exc
    if name == "turan" and len(args) == 2:
        return turan_graph(*args)
    if name == "multipartite" and len(args) >= 1:
        return complete_multipartite(args)[0]
    if name == "fan" and len(args) == 2:
        return fan_graph((args[0], args[1]))
    if name == "extremal" and len(args) in (3, 4):
        n, k, r = args[:3]
        part = args[3] if len(args) == 4 else None
        return extremal_fan_graph(n, (k, r), part)[0]
    if name == "split" and len(args) == 2:
        return split_graph(*args)
    if name == "ch" and len(args) == 1:
        return chvatal_hanson_extremal(args[0])
    raise ValueError(f"unrecognized constructor spec {text!r}")


def _input_graphs(args) -> list[AnyGraph]:
    if sum(1 for s in (args.construct, args.g6, args.file) if s is not None) > 1:
        raise ValueError("give exactly one graph source")
    if args.construct is not None:
        return [parse_construct_spec(args.construct)]
    if args.g6 is not None:
        return [from_graph6(args.g6)]
    if args.file is not None:
        with open(args.file) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    else:
        lines = [ln.strip() for ln in sys.stdin if ln.strip()]
    return [from_graph6(ln) for ln in lines]


def _spectrum_json(res, want_vector: bool) -> dict:
    d = {"lambda": res.lam, "residual": res.residual, "iterations": res.iterations}
    if want_vector:
        d["vector"] = res.vector.tolist()
    return _json_value(d)


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_construct(args) -> int:
    print(to_graph6(parse_construct_spec(args.spec)))
    return 0


def _parse_sweep(text: str) -> tuple[str, range]:
    var, _, spec = text.partition("=")
    try:
        start, step, stop = (int(x) for x in spec.split(":"))
    except ValueError:
        raise ValueError(f"--sweep takes n=START:STEP:STOP, not {text!r}") from None
    if step == 0:
        raise ValueError("--sweep step must not be 0")
    return var, range(start, stop + (1 if step > 0 else -1), step)


def _cmd_lambda(args) -> int:
    if args.sweep:
        if args.g6 is not None or args.file is not None:
            raise ValueError("give exactly one graph source")
        if args.raw or args.vector:
            raise ValueError("--sweep prints CSV and takes neither --raw nor --vector")
        if not args.construct or "{n}" not in args.construct:
            raise ValueError("--sweep needs --construct with an {n} placeholder")
        var, rng = _parse_sweep(args.sweep)
        if var != "n":
            raise ValueError("only n-sweeps are supported")
        lines = ["n,lambda,residual,iterations"]
        for n in rng:
            g = parse_construct_spec(args.construct.replace("{n}", str(n)))
            res = _run_spectrum(g, args)
            lines.append(f"{n},{fmt12(res.lam)},{fmt12(res.residual)},{res.iterations}")
        _emit(args, "\n".join(lines))
        return 0
    graphs = _input_graphs(args)
    outputs = []
    for g in graphs:
        res = _run_spectrum(g, args)
        if args.raw:
            outputs.append(fmt12(res.lam))
        else:
            outputs.append(json.dumps(_spectrum_json(res, args.vector)))
    _emit(args, "\n".join(outputs))
    return 0


def _run_spectrum(g: AnyGraph, args):
    if args.signless:
        return signless_laplacian_spectrum(g, tol=args.tol, max_iters=args.max_iters)
    return spectral_radius(g, tol=args.tol, max_iters=args.max_iters)


def _cmd_charpoly(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",")]
    try:  # an integer literal is evaluated exactly, not through a float
        x: float | int = int(args.x)
    except ValueError:
        xf = float(args.x)
        if not math.isfinite(xf):
            raise ValueError(f"--x must be finite, not {args.x}") from None
        x = int(xf) if xf.is_integer() else xf
    try:
        value = multipartite_charpoly_eval(sizes, x)
    except OverflowError:
        value = math.inf
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"the value at x={x} overflows a float; give an integer x, which is exact")
    if args.raw:
        print(value if isinstance(value, int) else fmt12(value))
    else:
        single = len(sizes) == 1
        print(json.dumps({"value": value, "x": x, "single_part": single}))
    return 0


def _cmd_check(args) -> int:
    graphs = _input_graphs(args)
    any_contains = False
    lines = []
    for g in graphs:
        witness = contains_fan(g, (args.k, args.r))
        rec: dict = {"contains": witness is not None}
        if witness is not None:
            any_contains = True
            if args.witness:
                rec["witness"] = _fields_json(witness)
        lines.append(json.dumps(rec))
    _emit(args, "\n".join(lines))
    return 1 if any_contains else 0


def _cmd_turannum(args) -> int:
    res = fan_extremal_number(args.n, (args.k, args.r))
    print(res.value if args.raw else json.dumps(_fields_json(res)))
    return 0


def _enum_cap() -> int:
    return int(os.environ.get("FANSPEC_MAX_N", DEFAULT_ENUM_CAP))


def _report(args, report) -> int:
    _emit(args, report.to_json(timing=not args.no_timing))
    return 0


def _cmd_brute(args) -> int:
    report = brute_force_extremal(
        args.n,
        (args.k, args.r),
        args.mode,
        jobs=args.jobs,
        cap=_enum_cap(),
        checkpoint_path=args.checkpoint,
    )
    return _report(args, report)


def _cmd_brutef(args) -> int:
    report = brute_force_f_report(
        args.beta, args.delta, args.nmax, jobs=args.jobs, cap=_enum_cap()
    )
    return _report(args, report)


def _cmd_family(args) -> int:
    """`family`, or `verify` when args.theorem is set."""
    search = verify_main_theorem if args.theorem else family_search
    return _report(args, search(args.n, (args.k, args.r), jobs=args.jobs))


def _add_graph_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--construct", help="constructor mini-language spec")
    p.add_argument("--g6", help="graph6 string")
    p.add_argument("--file", help="file of newline-separated graph6 strings")


def _add_common_numeric(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="eigen-residual tolerance")
    p.add_argument(
        "--max-iters", type=int, default=DEFAULT_MAX_ITERS, help="power-iteration budget"
    )


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _add_search(sub, name: str, what: str, func, *required_ints: str) -> argparse.ArgumentParser:
    """A search command's parser with the flags every search takes: its
    required integers, then --jobs, --out and --no-timing."""
    p = sub.add_parser(name, help=what)
    for flag in required_ints:
        p.add_argument(f"--{flag}", type=int, required=True)
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--out", help="write the JSON report to this file")
    p.add_argument("--no-timing", action="store_true", help="null wall_seconds")
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="fanspec",
        description="Spectral/Turan extremal graph toolkit with exhaustive oracle",
    )
    sub = top.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("construct", help="emit a constructor spec's graph as graph6")
    pc.add_argument("spec", help="constructor spec, e.g. turan:5,2 or extremal:20,2,3")
    pc.set_defaults(func=_cmd_construct)

    for name, what, vector, signless in (
        ("lambda", "adjacency spectral radius", "include the Perron vector", False),
        ("qlambda", "signless Laplacian spectral radius", "include the eigenvector", True),
    ):
        pl = sub.add_parser(name, help=what)
        _add_graph_source(pl)
        _add_common_numeric(pl)
        pl.add_argument("--vector", action="store_true", help=vector)
        pl.add_argument("--raw", action="store_true", help="print only the 12-digit value")
        pl.add_argument("--sweep", help="n-sweep start:step:stop, stop included, CSV output")
        pl.add_argument("--out", help="write output to this file")
        pl.set_defaults(func=_cmd_lambda, signless=signless)

    pp = sub.add_parser("charpoly", help="multipartite characteristic polynomial")
    pp.add_argument("--sizes", required=True, help="comma-separated part sizes")
    pp.add_argument("--x", required=True, help="evaluation point")
    pp.add_argument("--raw", action="store_true", help="print the bare value")
    pp.set_defaults(func=_cmd_charpoly)

    pk = sub.add_parser("check", help="fan containment check (exit 1 = contains)")
    _add_graph_source(pk)
    pk.add_argument("--k", type=int, required=True)
    pk.add_argument("--r", type=int, required=True)
    pk.add_argument("--witness", action="store_true", help="include a JSON witness")
    pk.add_argument("--out", help="write output to this file")
    pk.set_defaults(func=_cmd_check)

    pt = sub.add_parser("turannum", help="closed-form extremal edge count")
    pt.add_argument("--n", type=int, required=True)
    pt.add_argument("--k", type=int, required=True)
    pt.add_argument("--r", type=int, required=True)
    pt.add_argument("--raw", action="store_true", help="print the bare integer")
    pt.set_defaults(func=_cmd_turannum)

    pb = _add_search(sub, "brute", "exhaustive extremal search", _cmd_brute, "n", "k", "r")
    pb.add_argument("--mode", choices=["edges", "lambda"], default="edges")
    pb.add_argument("--checkpoint", help="resumed if it matches the run; saved every 10^6 classes")

    _add_search(
        sub, "brutef", "bounded degree+matching edge maximum", _cmd_brutef, "beta", "delta", "nmax"
    )

    for name, what, theorem in (
        ("family", "structured family spectral search", False),
        ("verify", "family winner vs closed-form edge count", True),
    ):
        _add_search(sub, name, what, _cmd_family, "n", "k", "r").set_defaults(theorem=theorem)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConvergenceError as exc:
        print(json.dumps({"error": str(exc), **_spectrum_json(exc.result, False)}), file=sys.stderr)
        return 3
    except (ValueError, Graph6Error, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
