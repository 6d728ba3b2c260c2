"""Workload definitions, child-process plumbing and output checks.

Every workload drives the ``gainspec`` command line.  The benchmark builds
its own references from the input text (numpy ``eigvalsh`` for the energy,
networkx for the matching number) and never trusts the program's report of
itself.  numpy and networkx are imported lazily so that the traced run can
time the first import of the package.
"""

from __future__ import annotations

import json
import math
import os
import signal
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_PATH = BENCH_DIR / "golden_lemmas.json"

# One BLAS/OpenMP thread for every child and for the in-process traced run:
# on a small shared machine multithreaded LAPACK competes with other load and
# makes timings unsteady, and the small-matrix lemma sweep runs faster with
# one thread anyway.  Both sides of any comparison use this value.
BLAS_THREADS = 1
# glibc raises its mmap threshold each time a large block is freed, so whether
# a later 16 MB array is mapped (and unmapped when freed) or carved from the
# heap depends on allocation order; that made the peak RSS of one input
# differ from another's by a whole n x n matrix.  Fixing the threshold at its
# default 128 KiB makes peak RSS follow live memory.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
    "OMP_NUM_THREADS": str(BLAS_THREADS),
    "MKL_NUM_THREADS": str(BLAS_THREADS),
    "MALLOC_MMAP_THRESHOLD_": "131072",
}

ENERGY_TOL_PER_VERTEX = 1e-9   # |energy - reference| <= 1e-9 * n
MARGIN_TOL = 1e-9              # golden worst margins


@dataclass(frozen=True)
class Workload:
    """One named workload.  ``full`` and ``toy`` are the ``generate``
    parameters (analyze workloads) or the ``lemmas`` options (the sweep);
    ``parts`` are the K_{t,t} sides of an extremal union, whose matching
    number must be their sum."""

    name: str
    command: str
    full: tuple[str, ...]
    toy: tuple[str, ...]
    parts: tuple[int, ...] | None = None
    toy_parts: tuple[int, ...] | None = None

    def params(self, scale: str) -> tuple[str, ...]:
        return self.full if scale == "full" else self.toy

    def expected_mu(self, scale: str) -> int | None:
        parts = self.parts if scale == "full" else self.toy_parts
        return None if parts is None else sum(parts)


# Why these three: analyze_extremal is the paper's equality case, where
# parse, balance (run to completion) and the dense solve are all heavy and
# the spectrum comes from K_{t,t} blocks; analyze_sparse spends ~90% in a
# dense solve of a >99%-zero matrix and almost nothing in parse or balance,
# so a bipartite-only kernel must leave it unchanged; lemmas_sweep is
# thousands of tiny solves, matchings and traversals, where per-call
# overhead and repeated work dominate and large-matrix kernels do nothing.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "analyze_extremal", "analyze",
            full=("extremal-union", "300,200", "--switched", "--isolated", "5"),
            toy=("extremal-union", "3,2", "--switched", "--isolated", "5"),
            parts=(300, 200), toy_parts=(3, 2),
        ),
        Workload(
            "analyze_sparse", "analyze",
            full=("gnp", "1000", "0.002"),
            toy=("gnp", "40", "0.05"),
        ),
        Workload(
            "lemmas_sweep", "lemmas",
            full=("--trials", "1000", "--nmax", "16"),
            toy=("--trials", "10", "--nmax", "16"),
        ),
    )
}


def pin_environment() -> None:
    """Pin BLAS/OpenMP threads in this process (before numpy is imported);
    children inherit the pinned environment."""
    os.environ.update(PINNED_ENV)


def child_env(root: Path) -> dict[str, str]:
    """Environment for a CLI child: the checkout's ``src`` first on the path,
    PINNED_ENV, and no seed override."""
    env = {**os.environ, **PINNED_ENV}
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("GAINSPEC_SEED", None)
    return env


def gainspec_args(workload: Workload, scale: str, seed: int, path: Path) -> list[str]:
    """Arguments of the timed ``gainspec`` invocation."""
    if workload.command == "analyze":
        return ["analyze", str(path)]
    return ["lemmas", "--seed", str(seed), *workload.params(scale)]


def generate_args(workload: Workload, scale: str, seed: int, path: Path) -> list[str]:
    return ["generate", *workload.params(scale), "--seed", str(seed), "--out", str(path)]


@dataclass(frozen=True)
class ChildResult:
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: str
    stderr: str


def run_child(argv: list[str], env: dict[str, str], workdir: Path,
              timeout_s: float) -> ChildResult:
    """Run one child to completion and time it from spawn to reap.

    Output goes to files, so no pipe can fill and stall the child; the peak
    RSS comes from the child's own rusage.  A child still running after
    ``timeout_s`` is killed through a pidfd, which cannot hit a reused pid.
    """
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    killer = threading.Timer(
        max(timeout_s, 0.0), signal.pidfd_send_signal, (pidfd, signal.SIGKILL)
    )
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    except BaseException:
        signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        killer.cancel()
        killer.join()
        os.close(pidfd)
    return ChildResult(
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss * 1024 / 1e6,   # ru_maxrss is in KiB
        exit_code=os.waitstatus_to_exitcode(status),
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


# ---------------------------------------------------------------------------
# References and checks.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnalyzeReference:
    n: int
    m: int
    energy: float
    mu: int


def analyze_reference(text: str) -> AnalyzeReference:
    """Energy and matching number of a ``ugg`` file, computed without
    gainspec: the benchmark parses the text, builds the Hermitian adjacency
    itself and solves it with ``numpy.linalg.eigvalsh``; the matching number
    is networkx's maximum-cardinality matching."""
    import networkx as nx
    import numpy as np

    rows = [ln.split() for ln in text.splitlines()
            if ln.strip() and not ln.lstrip().startswith("#")]
    if not rows or rows[0][0] != "ugg":
        raise ValueError("reference: missing 'ugg <n>' header")
    n = int(rows[0][1])
    edges = [(int(u), int(v), float(t)) for u, v, t in rows[1:]]
    a = np.zeros((n, n), dtype=complex)
    for u, v, theta in edges:
        z = complex(math.cos(theta), math.sin(theta))
        a[u, v] = z
        a[v, u] = z.conjugate()
    energy = float(np.sum(np.abs(np.linalg.eigvalsh(a)))) if n else 0.0
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from((u, v) for u, v, _ in edges)
    mu = len(nx.max_weight_matching(g, maxcardinality=True))
    return AnalyzeReference(n, len(edges), energy, mu)


def check_analyze(result: ChildResult, ref: AnalyzeReference,
                  expected_mu: int | None) -> list[str]:
    """Failures of one ``analyze`` invocation; empty when it is correct."""
    if result.exit_code != 0:
        return [f"exit code {result.exit_code}: {result.stderr.strip()[-300:]}"]
    try:
        doc = json.loads(result.stdout)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    fails = []
    if doc.get("n") != ref.n or doc.get("m") != ref.m:
        fails.append(f"n/m {doc.get('n')}/{doc.get('m')} != file {ref.n}/{ref.m}")
    if doc.get("consistent") is not True:
        fails.append("consistent is not true")
    if doc.get("mu") != ref.mu:
        fails.append(f"mu {doc.get('mu')} != networkx {ref.mu}")
    energy = doc.get("energy")
    if not isinstance(energy, (int, float)) or not (
        abs(energy - ref.energy) <= ENERGY_TOL_PER_VERTEX * max(ref.n, 1)
    ):
        fails.append(f"energy {energy} != eigvalsh {ref.energy!r} within 1e-9*n")
    if expected_mu is not None:
        if doc.get("numerically_tight") is not True:
            fails.append("extremal input is not numerically tight")
        if doc.get("structurally_extremal") is not True:
            fails.append("extremal input is not structurally extremal")
        if doc.get("mu") != expected_mu:
            fails.append(f"mu {doc.get('mu')} != sum of parts {expected_mu}")
    return fails


def load_golden(params: tuple[str, ...], seed: int) -> list[dict] | None:
    """The recorded lemma report for these ``lemmas`` options and seed."""
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    return golden.get(" ".join(params), {}).get(str(seed))


def golden_view(doc: dict) -> list[dict]:
    """The parts of a lemma report that must repeat exactly (margins within
    MARGIN_TOL)."""
    return [
        {k: entry[k] for k in ("lemma", "instances", "skip_reasons", "worst_margin")}
        for entry in doc["lemmas"]
    ]


def check_lemmas(result: ChildResult, golden: list[dict] | None) -> list[str]:
    """Failures of one ``lemmas`` invocation; empty when it is correct."""
    if result.exit_code != 0:
        return [f"exit code {result.exit_code}: {result.stderr.strip()[-300:]}"]
    try:
        doc = json.loads(result.stdout)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    fails = []
    if doc.get("ok") is not True or doc.get("total_violations") != 0:
        fails.append(f"violations: {doc.get('total_violations')}")
    entries = doc.get("lemmas", [])
    if not entries or any(e.get("instances", 0) <= 0 for e in entries):
        fails.append("a lemma ran zero instances")
    if golden is not None and not fails:
        got = golden_view(doc)
        if [(g["lemma"], g["instances"], g["skip_reasons"]) for g in got] != [
            (g["lemma"], g["instances"], g["skip_reasons"]) for g in golden
        ]:
            fails.append("instances or skip reasons differ from the golden report")
        for g, want in zip(got, golden):
            a, b = g["worst_margin"], want["worst_margin"]
            if (a is None) != (b is None) or (a is not None and abs(a - b) > MARGIN_TOL):
                fails.append(f"{g['lemma']}: worst margin {a!r} != golden {b!r}")
    return fails
