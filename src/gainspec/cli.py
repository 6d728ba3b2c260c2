"""Command-line surface.

    gainspec analyze <file>       full report for one gain-graph file
    gainspec lemmas               run the seeded lemma sweeps
    gainspec generate <kind> ...  write instance files
    gainspec double <file>        bipartite double plus spectrum-doubling check

Reports go to standard output as JSON (default) or flat text.  Exit codes:
0 all checks passed, 1 a check failed, 2 bad usage, unparseable input,
input too large to solve densely, running out of memory, or an output path
that cannot be written.
GAINSPEC_SEED overrides the default seed when --seed is absent.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from typing import Any, Sequence

from . import bounds, corpus, fileio, gains, graphs, spectra
from .gains import GainGraph

DEFAULT_SEED = 42

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

# The kinds ``generate`` builds: every named construction, plus two seeded ones.
GENERATE_KINDS = (*graphs.NAMED_GRAPHS, "gnp", "extremal-union")


def _seed(args: argparse.Namespace) -> int:
    """``--seed`` when given, else GAINSPEC_SEED, else ``DEFAULT_SEED``."""
    if args.seed is not None:
        return args.seed
    env = os.environ.get("GAINSPEC_SEED")
    if env is None:
        return DEFAULT_SEED
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"bad GAINSPEC_SEED value {env!r}") from None


def _emit(doc: dict[str, Any], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(doc, indent=2))
    else:
        for key, value in doc.items():
            print(f"{key}: {_render(value)}")


def _render(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_render(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_render(v)}" for k, v in value.items()) + "}"
    return str(value)


def analysis_report(phi: GainGraph) -> dict[str, Any]:
    """The analyze document: structure, spectrum, bound, and balance."""
    g = phi.graph
    report = bounds.bound_report(phi)
    cert = report.balance
    doc: dict[str, Any] = {
        "n": g.n,
        "m": g.m,
        "components": [list(c) for c in graphs.components(g)],
        "eigenvalues": [float(v) for v in report.spectrum.eigenvalues],
        "energy": report.energy,
        "mu": report.mu,
        "gap": report.gap,
        "numerically_tight": report.numerically_tight,
        "balanced": cert.balanced,
        "switching_witness_angles": (
            [gains.gain_angle(z) for z in cert.witness.values]
            if cert.balanced
            else None
        ),
        "violating_cycle": (
            list(cert.violating_cycle) if cert.violating_cycle else None
        ),
        "violating_cycle_gain": (
            [cert.violation_gain.real, cert.violation_gain.imag]
            if cert.violation_gain is not None
            else None
        ),
        "structurally_extremal": report.structurally_extremal,
        "consistent": report.consistent,
    }
    return doc


def _load(path: str) -> GainGraph:
    """The gain graph in ``path``; a parse error names the file."""
    try:
        return fileio.load_gain_graph(path)
    except fileio.GainGraphParseError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _write(phi: GainGraph, out: str | None, comment: str) -> None:
    """Save ``phi`` to ``out``, or write it to stdout when there is none."""
    if out:
        fileio.save_gain_graph(phi, out, comment=comment)
    else:
        sys.stdout.writelines(fileio._ugg_chunks(phi, comment))


def _cmd_analyze(args: argparse.Namespace) -> int:
    doc = analysis_report(_load(args.file))
    _emit(doc, args.format)
    return EXIT_OK if doc["consistent"] else EXIT_CHECK_FAILED


def lemma_suite_report(seed: int, trials: int, nmax: int) -> dict[str, Any]:
    reports = bounds.run_lemma_suite(seed=seed, trials=trials, nmax=nmax)
    doc: dict[str, Any] = {
        "seed": seed,
        "trials": trials,
        "nmax": nmax,
        "lemmas": [
            {
                "lemma": r.lemma,
                "instances": r.instances,
                "skips": r.skips,
                "skip_reasons": dict(sorted(r.skip_reasons.items())),
                "worst_margin": r.worst_margin,
                "violations": list(r.violations),
            }
            for r in reports
        ],
    }
    doc["total_violations"] = sum(len(r.violations) for r in reports)
    doc["ok"] = doc["total_violations"] == 0
    return doc


def _cmd_lemmas(args: argparse.Namespace) -> int:
    doc = lemma_suite_report(_seed(args), args.trials, args.nmax)
    _emit(doc, args.format)
    for entry in doc["lemmas"]:
        if entry["instances"] == 0:
            print(
                f"gainspec: warning: {entry['lemma']} ran zero instances",
                file=sys.stderr,
            )
    return EXIT_OK if doc["ok"] else EXIT_CHECK_FAILED


def _parse_parts(text: str) -> list[int]:
    try:
        parts = [int(p) for p in text.split(",") if p != ""]
    except ValueError:
        raise ValueError(f"bad block list {text!r}, expected like 2,2,1")
    if not parts:
        raise ValueError("block sides must be positive integers")
    return parts


def _build_instance(kind: str, params: list[str], seed: int, switched: bool,
                    isolated: int) -> GainGraph:
    """The seeded kinds here; every other kind is a named all-ones graph."""
    rng = random.Random(seed)
    if kind != "extremal-union" and (switched or isolated):
        raise ValueError("--switched and --isolated apply to extremal-union only")
    if kind == "gnp":
        if len(params) != 2:
            raise ValueError(f"gnp takes 2 parameter(s), got {len(params)}")
        n, p = int(params[0]), float(params[1])
        return gains.random_gain_graph(graphs.gnp_graph(n, p, rng), rng)
    if kind == "extremal-union":
        if len(params) != 1:
            raise ValueError(f"extremal-union takes 1 parameter(s), got {len(params)}")
        parts = _parse_parts(params[0])
        return corpus.extremal_union(
            parts, isolated=isolated, switch_seed=rng if switched else None
        )
    return gains.all_ones(graphs.named_graph(kind, *map(int, params)))


def _cmd_generate(args: argparse.Namespace) -> int:
    seed = _seed(args)
    kind = args.kind
    phi = _build_instance(kind, args.params, seed, args.switched, args.isolated)
    comment = f"gainspec generate {kind} {' '.join(args.params)} seed={seed}".rstrip()
    _write(phi, args.out, comment)
    return EXIT_OK


def _cmd_double(args: argparse.Namespace) -> int:
    phi = _load(args.file)
    check = spectra.kronecker_spectrum_check(phi, graphs.complete_graph(2))
    doc = {
        "n": phi.graph.n,
        "m": phi.graph.m,
        "energy": check.energy,
        "double_n": check.product.graph.n,
        "double_energy": check.double_energy,
        "expected_double_energy": check.expected_double_energy,
        "spectrum_deviation": check.spectrum_deviation,
        "ok": check.ok,
    }
    _write(check.product, args.out, f"bipartite double of {args.file}")
    if args.out:
        _emit(doc, args.format)
    else:
        print(json.dumps(doc) if args.format == "json" else _render(doc),
              file=sys.stderr)
    return EXIT_OK if check.ok else EXIT_CHECK_FAILED


def non_negative_int(text: str) -> int:
    """argparse type for counts; argparse names it when ``int`` fails."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a count >= 0, got {value}")
    return value


def graph_order(text: str) -> int:
    """argparse type for ``--nmax``: the corpora need orders of at least 2."""
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"expected an order >= 2, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gainspec",
        description="Spectra, energy, matching and balance for complex unit "
        "gain graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="report on one gain-graph file")
    p_analyze.add_argument("file")
    p_analyze.add_argument("--format", choices=("json", "text"), default="json")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_lemmas = sub.add_parser("lemmas", help="run the seeded lemma sweeps")
    p_lemmas.add_argument("--seed", type=int, default=None)
    p_lemmas.add_argument("--trials", type=non_negative_int, default=200)
    p_lemmas.add_argument("--nmax", type=graph_order, default=10)
    p_lemmas.add_argument("--format", choices=("json", "text"), default="json")
    p_lemmas.set_defaults(func=_cmd_lemmas)

    p_gen = sub.add_parser("generate", help="write an instance file")
    p_gen.add_argument("kind", help=" | ".join(GENERATE_KINDS))
    p_gen.add_argument("params", nargs="*")
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--out", default=None)
    p_gen.add_argument("--switched", action="store_true",
                       help="apply a random switching (extremal-union)")
    p_gen.add_argument("--isolated", type=int, default=0,
                       help="extra isolated vertices (extremal-union)")
    p_gen.set_defaults(func=_cmd_generate)

    p_double = sub.add_parser(
        "double", help="bipartite double with spectrum-doubling check"
    )
    p_double.add_argument("file")
    p_double.add_argument("--out", default=None)
    p_double.add_argument("--format", choices=("json", "text"), default="json")
    p_double.set_defaults(func=_cmd_double)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command; any ``ValueError`` or ``OSError`` it raises becomes
    ``gainspec: <message>`` on stderr and exit 2, and a ``MemoryError``
    becomes ``gainspec: out of memory`` and exit 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"gainspec: {exc}", file=sys.stderr)
    except MemoryError:
        print("gainspec: out of memory", file=sys.stderr)
    return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
