"""End-to-end pass over a gold corpus: recognize, evaluate, scrub, verify.

Runs the builtin rule recognizer against the gold annotations, prints the
token-level report, then replaces every PHI span with a surrogate under a
fixed seed and checks that no flagged surface survived in place.
"""

import argparse
from pathlib import Path

from deidkit import (
    SURROGATE,
    SurrogateConfig,
    evaluate,
    read_corpus,
    scrub_corpus,
    write_corpus,
)
from deidkit.evalmetrics import format_report
from deidkit.recognize import BUILTIN_RULES, RecognizerBackend, recognize_corpus


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--in", dest="infile", type=Path,
                    default=Path("demo_corpus/gold.jsonl"))
    ap.add_argument("--out", type=Path,
                    default=Path("demo_corpus/scrubbed.jsonl"))
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--date-offset", type=int, default=6)
    args = ap.parse_args()

    gold = read_corpus(args.infile)
    backend = RecognizerBackend(kind=BUILTIN_RULES)
    result = recognize_corpus(gold, backend)
    pred = {p.doc_id: p.spans for p in result.predictions}
    report, matrix = evaluate(gold, pred, mode="token")
    print(format_report(report, matrix))

    cfg = SurrogateConfig(seed=args.seed, date_offset_days=args.date_offset)
    scrubbed = scrub_corpus(gold, SURROGATE, cfg)
    leaks = 0
    for before, after in zip(gold, scrubbed):
        for b, a in zip(before.entities, after.entities):
            if b.tag != "OTHERS" and len(b.surface) >= 4 and \
                    after.text[a.start:a.end] == b.surface:
                leaks += 1
    write_corpus(scrubbed, args.out)
    print(f"scrubbed {len(scrubbed)} docs -> {args.out} "
          f"({leaks} surviving surfaces)")
    return 1 if leaks else 0


if __name__ == "__main__":
    raise SystemExit(main())
