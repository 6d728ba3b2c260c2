"""Record the golden lemma reports that the benchmark compares against.

    python3 bench/record_golden.py

Run from the root of a checkout.  For seeds 0 to 99 and for the
full and toy options of ``lemmas_sweep``, it runs ``gainspec lemmas`` with the
benchmark's pinned environment and stores per-lemma instances, skip reasons
and worst margins in ``bench/golden_lemmas.json``.  Record only from a commit
whose lemma reports are known to be right; later commits must reproduce them.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from workloads import GOLDEN_PATH, WORKLOADS, child_env, golden_view, run_child

SEEDS = range(100)


def main() -> int:
    root = Path.cwd()
    env = child_env(root)
    workload = WORKLOADS["lemmas_sweep"]
    golden: dict[str, dict[str, list[dict]]] = {}
    out = GOLDEN_PATH.parent / "out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="golden-", dir=out) as tmp:
        for scale in ("full", "toy"):
            params = workload.params(scale)
            by_seed = golden.setdefault(" ".join(params), {})
            for seed in SEEDS:
                argv = [sys.executable, "-m", "gainspec", "lemmas", "--seed", str(seed), *params]
                result = run_child(argv, env, Path(tmp), timeout_s=600)
                if result.exit_code != 0:
                    raise SystemExit(f"seed {seed}: exit {result.exit_code}\n{result.stderr}")
                by_seed[str(seed)] = golden_view(json.loads(result.stdout))
    # One line per seed keeps the file short and its diffs readable.
    blocks = [
        f"{json.dumps(params)}: {{\n"
        + ",\n".join(f" {json.dumps(s)}: {json.dumps(r)}" for s, r in by_seed.items())
        + "\n}"
        for params, by_seed in golden.items()
    ]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
