"""One benchmark job, run in a fresh interpreter by ``run.py``.

    python3 perfbench/job.py SPEC.json RESULT.json [--trace SPANS.tsv]

SPEC.json is either ``{"kind": "cli", "argv": [...]}`` (``fanspec.cli.main``
called in this process) or ``{"kind": "queries", "queries": [...]}`` (the
structured stream, called as a library user would).  RESULT.json receives
the wall time of the job and, for queries, each answer with its latency and
the spins of the host-speed loop taken between queries.
With ``--trace`` the layers are wrapped first and the spans are written to
SPANS.tsv after the job ends.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from fanspec import cli, families, patterns, spectral
from workloads import spin


def _query(q: dict) -> dict:
    op = q["op"]
    try:
        if op == "check":
            g, _ = families.extremal_fan_graph(q["n"], (q["host_k"], q["r"]))
            w = patterns.contains_fan(g, (q["k"], q["r"]))
            if w is None:
                return {"witness": None}
            return {"witness": {"center": w.center, "cliques": [sorted(c) for c in w.cliques]}}
        if op == "lambda":
            g, _ = families.extremal_fan_graph(q["n"], (q["k"], q["r"]))
            res = spectral.spectral_radius(g, tol=q["tol"], max_iters=q["max_iters"])
        else:
            g = families.split_graph(q["n"], q["s"])
            res = spectral.signless_laplacian_spectrum(g, tol=q["tol"], max_iters=q["max_iters"])
        return {"lam": res.lam, "residual": res.residual, "iterations": res.iterations}
    except spectral.ConvergenceError as exc:
        best = exc.result
        return {
            "error": "nonconverged",
            "lam": best.lam,
            "residual": best.residual,
            "iterations": best.iterations,
        }
    except Exception as exc:  # a crash is an answer the benchmark counts as failed
        return {"error": repr(exc)}


def _run_queries(queries: list[dict], spin_every: int) -> tuple[list[dict], list[float], float]:
    """The answers, the spin times, and the CPU time the spins took."""
    out, spins, spin_cpu = [], [], 0.0
    clock = time.perf_counter
    for i, q in enumerate(queries, 1):
        t0 = clock()
        ans = _query(q)
        ans["latency_s"] = clock() - t0
        out.append(ans)
        if spin_every and i % spin_every == 0:
            c0 = time.process_time()
            spins.append(spin())
            spin_cpu += time.process_time() - c0
    return out, spins, spin_cpu


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("spec")
    ap.add_argument("result")
    ap.add_argument("--trace")
    args = ap.parse_args()
    with open(args.spec) as fh:
        spec = json.load(fh)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    result: dict = {}
    t0 = time.perf_counter()
    if spec["kind"] == "cli":
        result["exit_code"] = cli.main(spec["argv"])
    else:
        run = _run_queries
        if tracer is not None:
            run = tracer.wrap(run, "client.queries")
        result["answers"], result["spin_s"], result["spin_cpu_s"] = run(spec["queries"], spec["spin_every"])
    result["wall_s"] = time.perf_counter() - t0

    if tracer is not None:
        tracer.write(args.trace)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
