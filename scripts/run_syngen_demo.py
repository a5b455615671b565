"""Generate synthetic summaries from exemplars through a pluggable backend.

Defaults to the in-repo deterministic mock so the demo runs offline; point
--backend at any command that speaks the line-delimited JSON protocol to use
a real model. Prints the job summary and a quality score of accepted docs
against the exemplars.
"""

import argparse
import json
import sys
from pathlib import Path

from deidkit import GenerationJob, load_template, read_corpus, run_generation_job
from deidkit.corpusstats import score_generation_quality
from deidkit.recognize import EXTERNAL, RecognizerBackend


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--exemplars", type=Path,
                    default=Path("demo_corpus/gold.jsonl"))
    ap.add_argument("--template", default="B")
    ap.add_argument("--fanout", type=int, default=3)
    ap.add_argument("--backend",
                    default=f"{sys.executable} -m deidkit.mock_backend")
    ap.add_argument("--out-dir", type=Path, default=Path("syngen_run"))
    args = ap.parse_args()

    exemplars = read_corpus(args.exemplars)
    backend = RecognizerBackend(kind=EXTERNAL, endpoint=args.backend,
                                timeout_ms=30_000)
    job = GenerationJob(template=load_template(args.template),
                        exemplars=exemplars, backend=backend,
                        fanout=args.fanout)
    summary = run_generation_job(job, args.out_dir)
    print(json.dumps(summary, indent=2, sort_keys=True))

    accepted_path = args.out_dir / "accepted.jsonl"
    if accepted_path.exists() and accepted_path.stat().st_size:
        accepted = read_corpus(accepted_path)
        score = score_generation_quality(accepted, exemplars)
        print(json.dumps({k: round(v, 4) for k, v in score.items()},
                         indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
