"""fanspec benchmark: one command per workload, answers checked, metrics printed.

    python3 perfbench/run.py --workload {enum7,enum8,family450,structured}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout (it needs ``src/fanspec``).  Each
workload is a closed loop with one client: jobs run back to back in fresh
child processes for about ``--seconds`` (at least one job; see
``_another_job``).

* ``--trace 0`` prints the end-to-end metrics: the lower quartile of the
  job wall and CPU times (``wait4`` over the job and every process it
  reaped), the median peak RSS, and the median set-up time of a fresh
  ``import fanspec.cli``.  The times are scaled to a reference host speed,
  measured by a fixed loop spun between the jobs (see ``end_to_end``).
* ``--trace 1`` runs the same job in-process with ``--jobs 1``, once plain
  and once with every layer wrapped (see ``tracing.py``), and prints the
  per-layer metrics plus the tracing overhead.

Every answer is checked against a reference computed here; a wrong,
crashed or unexpectedly non-converged answer counts as failed.  The last
line of standard output is the JSON result; the line before it holds the
details (environment, samples, latency percentiles, layer shares).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
DEFAULT_SEED = 0
# a run, jobs included, must end within 180 s; a job still running at this
# point is killed and its answers count as failed
RUN_DEADLINE = time.monotonic() + 170.0
# set-up starts before each job, so that they are spread over the run;
# one before each of the ~1-s enum7 jobs gives about as many as three
# before each ~10-s job of the others
SETUP_STARTS_PER_JOB = {"enum7": 1, "enum8": 3, "family450": 3, "structured": 3}
# spins of the host-speed loop after each job (~20 ms each), about 5% of
# the run; a structured round also spins after every SPIN_EVERY-th query
SPINS_PER_JOB = {"enum7": 3, "enum8": 25, "family450": 25, "structured": 3}
SPIN_EVERY = 4
# about the lower quartile of a spin on the reference host (a 2-core x86-64
# KVM guest, Intel Xeon, Python 3.11); wall_s, cpu_s and setup_s are given
# for a host this fast
SPIN_REF_S = 0.021

sys.path.insert(0, str(SRC))  # the answer checks build graphs with fanspec
import workloads as wl  # noqa: E402

WORKLOADS = ("enum7", "enum8", "family450", "structured")
# metric names and units, in the order BENCHMARK.json lists them
_BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _BENCH["per_layer"]}


# One BLAS thread: the two vCPUs of this VM slow each other down, and on
# `structured` a second OpenBLAS thread (for dot products over 10^6 entries)
# spun for ~5 s of CPU per round without shortening its wall time.
CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}


@dataclass
class Job:
    """Outcome of one child process."""

    wall: float
    cpu: float
    rss_mb: float
    code: int
    err: str


def spawn(cmd: list[str], workdir: Path) -> Job:
    """Run a child to completion; wall from start to reap, CPU and peak RSS
    from ``wait4`` (which folds in every descendant the child reaped)."""
    timeout = max(1.0, RUN_DEADLINE - time.monotonic())
    errpath = workdir / "stderr.txt"
    with open(errpath, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=CHILD_ENV, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err
        )
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Job(
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
        proc.returncode,
        errpath.read_text()[-2000:],
    )


def setup_start(workdir: Path) -> float:
    """Wall time of a fresh interpreter importing fanspec.cli."""
    job = spawn([sys.executable, "-c", "import fanspec.cli"], workdir)
    if job.code != 0:
        raise RuntimeError(f"import fanspec.cli failed: {job.err}")
    return job.wall


def lower_quartile(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def _read_json(path: Path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


# --- one job per workload -------------------------------------------------


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.answers: list[tuple[dict, dict]] = []  # structured (query, answer)

    def add(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)


def _graph_for(n: int, spec: tuple[int, int]):
    from fanspec.families import extremal_fan_graph

    g, _ = extremal_fan_graph(n, spec)
    edges = g.edge_count() if callable(g.edge_count) else g.edge_count
    if edges != wl.fan_extremal_edges(n, spec[0], spec[1]):
        raise ValueError(f"construction for n={n}, {spec} has {edges} edges")
    return g


def check_answers(workload: str, seed: int, job: Job, output, tally: Tally, queries) -> None:
    """Count the job's operations and the failed ones.  ``output`` is the
    report of a CLI job or the answer list of a query stream."""
    if workload == "structured":
        answers = output or []
        for i, q in enumerate(queries):
            ans = answers[i] if i < len(answers) else {}
            try:
                problem = wl.check_query(q, ans, _graph_for)
            except ValueError as exc:
                problem = str(exc)
            tally.add(problem and f"query {i} {q}: {problem}")
            tally.answers.append((q, ans))
        return
    if job.code != 0 or output is None:
        tally.add(f"exit code {job.code}: {job.err.strip()[-300:]}")
        return
    if workload in wl.ENUM_N:
        bad = wl.check_enum(wl.ENUM_N[workload], output)
    else:
        bad = wl.check_family(seed, output)
    tally.add("; ".join(bad) if bad else None)


def cli_argv(workload: str, seed: int, jobs: int) -> list[str]:
    if workload in wl.ENUM_N:
        return wl.enum_argv(wl.ENUM_N[workload], jobs)
    return wl.family_argv(seed, jobs)


def run_cli_job(workload: str, seed: int, workdir: Path, tally: Tally) -> Job:
    report = workdir / "report.json"
    argv = cli_argv(workload, seed, jobs=2 if workload in wl.ENUM_N else 1)
    report.unlink(missing_ok=True)
    job = spawn([sys.executable, "-m", "fanspec.cli", *argv, "--out", str(report)], workdir)
    check_answers(workload, seed, job, _read_json(report), tally, None)
    return job


def run_inprocess_job(
    workload: str, seed: int, workdir: Path, tally: Tally, queries, spans: Path | None = None, spin_every: int = 0
) -> tuple[Job, dict | None]:
    """Run job.py once: the CLI job with --jobs 1 or the query stream, with
    a spin after every ``spin_every``-th query (none for 0)."""
    spec_path = workdir / "spec.json"
    result_path = workdir / "result.json"
    report = workdir / "report.json"
    if workload == "structured":
        spec = {"kind": "queries", "queries": queries, "spin_every": spin_every}
    else:
        argv = cli_argv(workload, seed, jobs=1) + ["--out", str(report)]
        spec = {"kind": "cli", "argv": argv}
    spec_path.write_text(json.dumps(spec))
    for stale in (result_path, report):
        stale.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "job.py"), str(spec_path), str(result_path)]
    if spans is not None:
        cmd += ["--trace", str(spans)]
    job = spawn(cmd, workdir)
    output = _read_json(result_path)
    if workload == "structured":
        answers = output and output.get("answers")
    else:
        if output is not None and output.get("exit_code") != 0:
            job.code = job.code or 1
        answers = _read_json(report)
    check_answers(workload, seed, job, answers, tally, queries)
    return job, output


# --- the two kinds of run -----------------------------------------------------

def _another_job(t0: float, seconds: float, last_wall: float) -> bool:
    """Start another job only if, taking as long as the last one, it ends
    within the run's seconds."""
    return time.perf_counter() - t0 + last_wall <= seconds


def measure(workload: str, seed: int, seconds: float, workdir: Path, tally: Tally) -> tuple[dict, dict]:
    """End-to-end metrics.  Jobs, set-up starts and spins of the host-speed
    loop alternate over the whole run, so that each spell of the shared
    host touches all three alike (see ``end_to_end``)."""
    setup_start(workdir)  # may compile bytecode; not counted
    setup: list[float] = []
    spins = [wl.spin() for _ in range(SPINS_PER_JOB[workload])]
    jobs: list[Job] = []
    queries = wl.structured_queries(seed) if workload == "structured" else None
    t0 = time.perf_counter()
    while True:
        t_job = time.perf_counter()
        setup += [setup_start(workdir) for _ in range(SETUP_STARTS_PER_JOB[workload])]
        if workload == "structured":
            job, out = run_inprocess_job(workload, seed, workdir, tally, queries, spin_every=SPIN_EVERY)
            # the spins inside the round sample the host while it runs; the
            # round's time is its own without them
            round_spins = (out or {}).get("spin_s", [])
            spins += round_spins
            job.wall -= sum(round_spins)
            job.cpu -= (out or {}).get("spin_cpu_s", 0.0)
        else:
            job = run_cli_job(workload, seed, workdir, tally)
        jobs.append(job)
        spins += [wl.spin() for _ in range(SPINS_PER_JOB[workload])]
        if not _another_job(t0, seconds, time.perf_counter() - t_job):
            break
    metrics, raw = end_to_end(jobs, setup, spins)
    details = {
        "jobs": len(jobs),
        "unscaled": raw,
        "wall_s_samples": [j.wall for j in jobs],
        "cpu_s_samples": [j.cpu for j in jobs],
        "peak_rss_mb_samples": [j.rss_mb for j in jobs],
        "setup_s_samples": setup,
        "spin_s_samples": spins,
    }
    if workload == "structured":
        details.update(structured_latency(tally.answers))
    return metrics, details


def end_to_end(jobs: list[Job], setup: list[float], spins: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics and the unscaled times behind them.

    The shared 2-core host slows all CPU-bound code, process CPU time
    included, by up to 50% in spells of a second to minutes.  A job time
    is therefore the lower quartile over the run's jobs (a piece of the run
    the spells touched least), scaled by SPIN_REF_S over the lower quartile
    of the run's spins: the time the job would take on a host where the
    spin takes SPIN_REF_S.  A slower fanspec raises the job times and leaves
    the spins as they are; a slower host raises both.  Set-up time is the
    median start, scaled the same way."""
    scale = SPIN_REF_S / lower_quartile(spins)
    raw = {
        "wall_s": lower_quartile([j.wall for j in jobs]),
        "cpu_s": lower_quartile([j.cpu for j in jobs]),
        "setup_s": statistics.median(setup),
        "spin_s": lower_quartile(spins),
    }
    metrics = {
        "wall_s": raw["wall_s"] * scale,
        "cpu_s": raw["cpu_s"] * scale,
        "setup_s": raw["setup_s"] * scale,
        "peak_rss_mb": statistics.median(j.rss_mb for j in jobs),
    }
    return metrics, raw


def structured_latency(pairs: list[tuple[dict, dict]]) -> dict:
    """Per-query latency percentiles over the run's rounds; failed queries
    count at the time they returned.  A run has about 100 check answers,
    12 a round, so p75 is the highest percentile with ten samples beyond it
    even when a slow run fits only four rounds."""
    spectral = [a.get("latency_s", 0.0) * 1e3 for q, a in pairs if q["op"] != "check"]
    check = [a.get("latency_s", 0.0) * 1e3 for q, a in pairs if q["op"] == "check"]
    defect = [a for q, a in pairs if q.get("defect")]
    return {
        "spectral_p50_ms": wl.percentile(spectral, 50),
        "spectral_p90_ms": wl.percentile(spectral, 90),
        "spectral_samples": len(spectral),
        "check_p50_ms": wl.percentile(check, 50),
        "check_p75_ms": wl.percentile(check, 75),
        "check_samples": len(check),
        "defect_queries": len(defect),
        "defect_nonconverged": sum(1 for a in defect if a.get("error") == "nonconverged"),
    }


def traced(workload: str, seed: int, seconds: float, workdir: Path, tally: Tally) -> tuple[dict, dict]:
    from tracing import read_spans, summarize

    spans_path = OUT / f"spans-{workload}.tsv"
    rounds = []
    t0 = time.perf_counter()
    while True:
        queries = wl.structured_queries(seed) if workload == "structured" else None
        plain, plain_out = run_inprocess_job(workload, seed, workdir, tally, queries)
        job, out = run_inprocess_job(workload, seed, workdir, tally, queries, spans=spans_path)
        if plain_out is None or out is None or job.code != 0:
            raise RuntimeError(f"traced job failed: {job.err.strip()[-500:]}")
        layer = summarize(read_spans(str(spans_path)))
        layer["trace.wall_s"] = out["wall_s"]
        layer["trace.overhead_s"] = out["wall_s"] - plain_out["wall_s"]
        rounds.append(layer)
        if not _another_job(t0, seconds, plain.wall + job.wall):
            break
    metrics = {k: statistics.median_low(r[k] for r in rounds) for k in rounds[0]}
    wall = metrics["trace.wall_s"]
    shares = {
        layer: metrics[f"{layer}.self_s"] / wall
        for layer in ("canon", "oracle", "patterns", "spectral", "graphs", "cli")
    }
    shares["families"] = metrics["families.build.busy_s"] / wall
    details = {
        "pairs": len(rounds),
        "self_share_of_traced_wall": shares,
        "patterns.fan_share": metrics["patterns.fan.busy_s"] / wall,
        "canon_share": metrics["canon.busy_s"] / wall,
        "unaccounted_s": metrics["trace.unaccounted_s"],
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return {k: metrics[k] for k in PER_LAYER}, details


# --- environment -------------------------------------------------------------


def environment(seed: int) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "fanspec").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "fanspec" / "__init__.py").is_file():
        print(f"error: no fanspec sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    env = environment(args.seed)
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT, prefix=f"{args.workload}-"))
    tally = Tally()
    try:
        if args.trace:
            metrics, details = traced(args.workload, args.seed, args.seconds, workdir, tally)
            units = PER_LAYER
        else:
            metrics, details = measure(args.workload, args.seed, args.seconds, workdir, tally)
            units = END_TO_END
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_end"] = list(os.getloadavg())

    details.update(
        workload=args.workload,
        trace=args.trace,
        env=env,
        fail_frac=tally.failed / tally.attempted,
        problems=tally.problems,
    )
    print(json.dumps({"details": details}))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
