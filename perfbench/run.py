"""deidkit benchmark: the CLI pipeline on four seeded workloads.

    python3 perfbench/run.py --workload short_notes --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --self-check

Workloads: short_notes, long_ladder, backend_wire, syngen_filter (see
workloads.py for what each one stresses and why). Every stage is a real
`deidkit.cli.main(argv)` call, in this process.

With `--trace 0` a workload's iterations repeat until `--seconds` would be
exceeded (at least one), and the end-to-end metrics are medians over them.
With `--trace 1` one untraced and one traced iteration run; the per-layer
metrics come from spans that spans.py records around every public deidkit
function. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it print every
metric by name with its unit. The full results, stamped with the machine
and the inputs, go to perfbench/out/BENCH_<workload>_seed<n>_trace<t>.json;
traced runs also write their spans there.

This file only checks that it runs inside a deidkit checkout and fixes the
environment (PYTHONHASHSEED, no DEIDKIT_BACKEND, sources on PYTHONPATH, the
same interpreter for the mock backend), then hands over to bench.py.
"""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
HASH_SEED = "0"


def ensure_environment(argv) -> None:
    """Exit 2 outside a deidkit checkout; otherwise re-exec once with the
    fixed environment, which the mock children then inherit."""
    needed = (SRC / "deidkit" / "cli.py", ROOT / "scripts" / "make_demo_corpus.py")
    missing = [p for p in needed if not p.is_file()]
    if missing:
        sys.stderr.write(f"perfbench: not a deidkit checkout, missing {missing[0]}\n")
        sys.exit(2)
    if os.environ.get("PYTHONHASHSEED") == HASH_SEED and "DEIDKIT_BACKEND" not in os.environ \
            and os.environ.get("PYTHONPATH") == str(SRC):
        return
    env = {k: v for k, v in os.environ.items() if k != "DEIDKIT_BACKEND"}
    env.update(PYTHONHASHSEED=HASH_SEED, PYTHONPATH=str(SRC))
    os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)


if __name__ == "__main__":
    ensure_environment(sys.argv[1:])
    import bench

    sys.exit(bench.main(sys.argv[1:]))
