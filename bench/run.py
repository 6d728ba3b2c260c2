"""The gainspec benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--scale full|toy]

Run from the root of a checkout; the program is imported from its ``src``.
Workloads are defined in ``workloads.py``, metric names and units in
``BENCHMARK.json``; ``bench/README.md`` says what each metric should move.

``--trace 0`` drives ``python -m gainspec`` as a closed loop with one
client: each invocation starts after the previous one has exited, until
``--seconds`` are used (at least three).  It reports the median wall time of
one invocation, including interpreter start, the median peak RSS of the
child, and the median of five set-up calls (``gainspec generate`` for the
analyze workloads, ``python -c "import gainspec"`` for the lemma sweep).

``--trace 1`` runs the same work in-process, alternating an untraced round
with a traced one, and reports the per-layer metrics of ``tracing.py``:
medians over the traced rounds; counts must repeat exactly across them.

Every invocation's output is checked (see ``workloads.py``); a failed check
counts into ``failed``.  The last line of standard output is the result
object; the full record, with machine metadata and every sample, goes to
``bench/out/``.  Exit status: 0 when every check passed, 1 when one failed,
2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import importlib
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import (
    BENCH_DIR, BLAS_THREADS, PINNED_ENV, WORKLOADS, ChildResult, Workload, analyze_reference,
    check_analyze, check_lemmas, child_env, gainspec_args, generate_args,
    load_golden, pin_environment, run_child,
)

OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 5
MIN_SAMPLES = 3
MIN_TRACED_ROUNDS = 2
RUN_BUDGET_S = 170.0   # every child is killed before a run can reach 180 s


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def metadata(root: Path, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": BLAS_THREADS,
        "pinned_env": PINNED_ENV,
        "commit": commit,
        "seed": seed,
    }


class Run:
    """State of one benchmark run: attempts, failures and the time budget."""

    def __init__(self, workload: Workload, scale: str, seed: int, seconds: float,
                 workdir: Path):
        self.workload, self.scale, self.seed = workload, scale, seed
        self.seconds, self.workdir = seconds, workdir
        self.input = workdir / "input.ugg"
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, what: str, fails: list[str]) -> None:
        """Count one invocation and its failed checks, if any."""
        self.attempted += 1
        if fails:
            self.failed += 1
            self.failures.append(f"{what}: {'; '.join(fails)}")

    def timeout(self) -> float:
        left = self.deadline - time.perf_counter()
        if left <= 0:
            raise BenchError("run budget exhausted")
        return left

    def checker(self):
        """Output check for the workload's timed command."""
        if self.workload.command == "analyze":
            ref = analyze_reference(self.input.read_text(encoding="utf-8"))
            mu = self.workload.expected_mu(self.scale)
            return lambda result: check_analyze(result, ref, mu)
        golden = load_golden(self.workload.params(self.scale), self.seed)
        return lambda result: check_lemmas(result, golden)


def measure_cli(run: Run, env: dict[str, str]) -> tuple[dict, dict]:
    """End-to-end metrics, tracing off."""
    w = run.workload
    if w.command == "analyze":
        setup_argv = [sys.executable, "-m", "gainspec",
                      *generate_args(w, run.scale, run.seed, run.input)]
    else:
        setup_argv = [sys.executable, "-c", "import gainspec"]
    setup_walls, digests = [], set()
    for _ in range(SETUP_REPEATS):
        result = run_child(setup_argv, env, run.workdir, run.timeout())
        fails = [] if result.exit_code == 0 else [f"exit code {result.exit_code}"]
        run.record("setup", fails)
        if not fails:
            setup_walls.append(result.wall_s)
            if w.command == "analyze":
                digests.add(hashlib.sha256(run.input.read_bytes()).hexdigest())
    if not setup_walls:
        raise BenchError("every set-up call failed: " + "; ".join(run.failures))
    if len(digests) > 1:
        run.failures.append("setup: generate wrote different files for one seed")

    check = run.checker()
    argv = [sys.executable, "-m", "gainspec", *gainspec_args(w, run.scale, run.seed, run.input)]
    walls, rss = [], []
    start = time.perf_counter()
    while len(walls) < MIN_SAMPLES or (
        time.perf_counter() - start + statistics.median(walls) <= run.seconds
    ):
        result = run_child(argv, env, run.workdir, run.timeout())
        run.record(w.command, check(result))
        walls.append(result.wall_s)
        rss.append(result.peak_rss_mb)
    metrics = {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setup_walls),
    }
    samples = {"wall_s": walls, "peak_rss_mb": rss, "setup_s": setup_walls}
    return metrics, samples


def _invoke(cli, argv: list[str]) -> ChildResult:
    """``gainspec.cli.main`` in-process, output captured."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:          # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return ChildResult(time.perf_counter() - start, 0.0, code,
                       out.getvalue(), err.getvalue())


def measure_traced(run: Run, startup_s: float) -> tuple[dict, dict, list]:
    """Per-layer metrics from in-process rounds, untraced and traced in turn."""
    import gainspec.cli as cli
    from tracing import Tracer, is_count, layer_metrics, traced

    w = run.workload
    invocations = [gainspec_args(w, run.scale, run.seed, run.input)]
    if w.command == "analyze":
        invocations.insert(0, generate_args(w, run.scale, run.seed, run.input))
        setup = _invoke(cli, invocations[0])
        if setup.exit_code != 0:
            raise BenchError(f"generate failed: {setup.stderr.strip()}")
    check = run.checker()
    expected_input = run.input.read_bytes() if w.command == "analyze" else None

    def one_round(tracer: Tracer | None) -> float:
        start = time.perf_counter()
        for argv in invocations:
            if tracer is not None:
                tracer.invocation += 1
            result = _invoke(cli, argv)
            if argv[0] == "generate":
                fails = [] if result.exit_code == 0 else [f"exit code {result.exit_code}"]
                if not fails and run.input.read_bytes() != expected_input:
                    fails.append("generate wrote a different file")
            else:
                fails = check(result)
            run.record(argv[0], fails)
        return time.perf_counter() - start

    plain, traced_walls, rounds = [], [], []
    spans: list = []
    start = time.perf_counter()
    while len(rounds) < MIN_TRACED_ROUNDS or (
        time.perf_counter() - start + statistics.median(plain) + statistics.median(traced_walls)
        <= run.seconds
    ):
        run.timeout()
        plain.append(one_round(None))
        tracer = Tracer()
        with traced(tracer):
            traced_walls.append(one_round(tracer))
        rounds.append(layer_metrics(tracer.spans))
        spans = tracer.spans

    metrics = {}
    for name in rounds[0]:
        values = [r[name] for r in rounds]
        if not is_count(name):
            metrics[name] = statistics.median(values)
            continue
        metrics[name] = values[0]
        if len(set(values)) != 1:
            run.failures.append(f"trace: {name} differs across traced rounds: {values}")
    metrics["cli.startup_s"] = startup_s
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced_walls) / statistics.median(plain)
    )
    samples = {"untraced_round_s": plain, "traced_round_s": traced_walls, "rounds": rounds}
    return metrics, samples, spans


def write_spans(path: Path, spans: list) -> None:
    from tracing import span_records

    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for record in span_records(spans):
            fh.write(json.dumps(record) + "\n")


def _terminate(signum, frame) -> None:
    # Unwind, so the running child is killed and reaped and the work
    # directory removed.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description="gainspec benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=("full", "toy"),
                        help="toy runs the workloads at smoke-test size")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    try:
        if not (src / "gainspec" / "__init__.py").is_file():
            raise BenchError(f"no gainspec sources under {src}; run from a checkout root")
        spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
        pin_environment()
        startup_s = 0.0
        if args.trace:
            # Time the first import, before this process has imported numpy.
            sys.path.insert(0, str(src))
            start = time.perf_counter()
            gainspec = importlib.import_module("gainspec.cli")
            startup_s = time.perf_counter() - start
            if not Path(gainspec.__file__).resolve().is_relative_to(src.resolve()):
                raise BenchError(f"imported gainspec from {gainspec.__file__}, not {src}")
        OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(prefix="work-", dir=OUT_DIR) as tmp:
            run = Run(WORKLOADS[args.workload], args.scale, args.seed, args.seconds, Path(tmp))
            if args.trace:
                values, samples, spans = measure_traced(run, startup_s)
            else:
                values, samples = measure_cli(run, child_env(root))
    except (BenchError, OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    listed = spec["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in listed} != set(values):
        print("bench: metrics computed and metrics listed in BENCHMARK.json differ: "
              f"{sorted({m['name'] for m in listed} ^ set(values))}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    meta = metadata(root, args.seed)
    stem = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        write_spans(OUT_DIR / f"{stem}-spans.jsonl.gz", spans)
    record = {
        "workload": args.workload, "scale": args.scale, "seconds": args.seconds,
        "metadata": meta, "metrics": metrics, "samples": samples,
        "attempted": run.attempted, "failed": run.failed, "failures": run.failures,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n",
                                         encoding="utf-8")

    print("metadata: " + json.dumps(meta))
    if args.trace:
        print(f"{args.workload}: per-layer medians of {len(samples['rounds'])} traced rounds; "
              "cli.startup_s is the one first import")
    for name, metric in metrics.items():
        count = f" (median of {len(samples[name])})" if name in samples else ""
        print(f"{args.workload} {name}: {metric['value']:.6g} {metric['unit']}{count}")
    print(f"{args.workload} failed_ratio: {run.failed}/{run.attempted} = "
          f"{run.failed / run.attempted:.3g}")
    if not args.trace:
        print(f"{args.workload} wall_s: no tail percentile "
              f"(a percentile needs 10 samples beyond it; this run has {len(samples['wall_s'])})")
    for failure in run.failures[:10]:
        print(f"bench: FAILED {failure}", file=sys.stderr)
    if len(run.failures) > 10:
        print(f"bench: ... {len(run.failures) - 10} more failures in the record", file=sys.stderr)
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if not run.failures else 1


if __name__ == "__main__":
    sys.exit(main())
