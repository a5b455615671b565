"""Command-line surface for the whole pipeline.

Every subcommand follows the same conventions: logs to stderr, data to
stdout or to declared output files, exit 0 on success, 1 on validation
problems, 2 on I/O or backend trouble. File formats are picked by extension
(.jsonl, .conll, .xml, or a directory of .xml). JSON outputs are written
with sorted keys so identical inputs under a fixed seed give byte-identical
files. The DEIDKIT_BACKEND environment variable overrides any configured
backend endpoint. Each subcommand imports only the modules it runs: numpy
loads only for stats and compare, the HTTP client only for an http(s) backend.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path
from typing import Optional

from . import annot_io
from .core import (CANONICAL_SCHEMA, BackendTimeout, ConfigError, Corpus, DeidError,
                   ProtocolViolation, read_fields)

logger = logging.getLogger("deidkit.cli")

ENV_BACKEND = "DEIDKIT_BACKEND"

MATRIX_FIELDS = {"train_sets": dict[str, str | list[str]], "test_sets": dict[str, str | list[str]],
                 "mode": str, "out_dir": str, "backend": str}


@dataclasses.dataclass(frozen=True)
class PipelineConfig:
    """Defaults shared across subcommands; flags always win."""

    concurrency: int = 4
    backend: str = ""
    surrogate: dict = dataclasses.field(default_factory=dict)  # SurrogateConfig fields
    filter: dict = dataclasses.field(default_factory=dict)  # FilterPolicy fields

    @classmethod
    def load(cls, path) -> "PipelineConfig":
        """The config in the JSON file at `path`, or the defaults without one."""
        if not path:
            return cls()
        from .surrogate import SurrogateConfig
        data = read_fields(json.loads(Path(path).read_text(encoding="utf-8")), cls,
                           f"config {path}")
        for section, spec in ("surrogate", SurrogateConfig), ("filter", annot_io.FilterPolicy):
            read_fields(data.get(section, {}), spec, f"config {path} {section}")
        for lex in data.get("surrogate", {}).get("locale_lexicons", {}).values():
            if "/" in lex and not Path(lex).is_file():
                raise ConfigError(f"lexicon file not found: {lex}")
        return cls(**data)


def _schema_arg(value: str):
    if value == "canonical":
        return CANONICAL_SCHEMA
    if value == "commercial":
        from .tagmap import COMMERCIAL_SCHEMA
        return COMMERCIAL_SCHEMA
    if value == "infer":
        return None
    raise argparse.ArgumentTypeError(f"unknown schema {value!r}")


def _write_json(obj, path: Optional[str] = None) -> None:
    """`obj` as sorted-key JSON; a dataclass is written as its fields."""
    text = json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False,
                      default=dataclasses.asdict) + "\n"
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _backend_from_args(args, config: PipelineConfig) -> recognize.RecognizerBackend:
    from . import recognize
    endpoint = os.environ.get(ENV_BACKEND) or getattr(args, "backend", "") or config.backend
    if not endpoint or endpoint == "rules":
        return recognize.RecognizerBackend(kind=recognize.BUILTIN_RULES, name="rules")
    return recognize.RecognizerBackend(
        kind=recognize.EXTERNAL,
        endpoint=endpoint,
        timeout_ms=getattr(args, "timeout_ms", 10_000),
        retry=getattr(args, "retry", 0),
        max_in_flight=config.concurrency,
    )


def _with_flags(section: dict, **flags) -> dict:
    """A config section with each flag that was given put over it."""
    return {**section, **{key: value for key, value in flags.items() if value is not None}}


# --- subcommand implementations -------------------------------------------

def cmd_convert(args) -> int:
    corpus = annot_io.read_corpus(args.infile, schema=args.schema)
    annot_io.write_corpus(corpus, args.out)
    logger.info("wrote %d documents to %s", len(corpus), args.out)
    return 0


def cmd_map_tags(args) -> int:
    from . import tagmap
    corpus = annot_io.read_corpus(args.infile, schema=None)
    if args.map:
        tm = tagmap.load_tagmap(args.map)
    elif args.commercial:
        tm = tagmap.commercial_comparison_map()
    else:
        tm = tagmap.builtin_canonical_map()
    mapped, audit = tagmap.apply_tagmap(corpus, tm)
    if args.commercial and not args.map:
        mapped = Corpus(documents=tuple(map(tagmap.strip_titles, mapped)), schema=mapped.schema)
    annot_io.write_corpus(mapped, args.out)
    if args.audit:
        _write_json(audit, args.audit)
    logger.info("mapped %d entities (%d unmapped)", audit.total,
                sum(audit.unmapped.values()))
    return 0


def cmd_deidentify(args) -> int:
    from . import surrogate
    config = PipelineConfig.load(args.config)
    corpus = annot_io.read_corpus(args.infile)
    cfg = surrogate.SurrogateConfig(**_with_flags(
        config.surrogate, seed=args.seed, date_offset_days=args.date_offset,
        time_offset_minutes=args.time_offset))
    out = surrogate.scrub_corpus(corpus, args.mode, cfg)
    annot_io.write_corpus(out, args.out)
    return 0


def cmd_recognize(args) -> int:
    from . import recognize
    config = PipelineConfig.load(args.config)
    corpus = annot_io.read_corpus(args.infile)
    backend = _backend_from_args(args, config)
    result = recognize.recognize_corpus(corpus, backend)
    docs = tuple(p.document for p in result.predictions)
    annot_io.write_corpus(Corpus(documents=docs), args.out)
    if args.report:
        _write_json({"predicted": len(result.predictions), "excluded": result.excluded,
                     "retries": result.retries}, args.report)
    for doc_id, reason in result.excluded:
        logger.warning("excluded %s: %s", doc_id, reason)
    return 0


def cmd_evaluate(args) -> int:
    from . import evalmetrics
    gold = annot_io.read_corpus(args.gold)
    pred = {doc.id: doc.entities for doc in annot_io.read_corpus(args.pred)}
    report, matrix = evalmetrics.evaluate(gold, pred, mode=args.mode)
    sys.stdout.write(evalmetrics.format_report(report, matrix) + "\n")
    if args.out:
        _write_json({"metrics": evalmetrics.report_to_dict(report), "confusion": matrix},
                    args.out)
    return 0


def cmd_kappa(args) -> int:
    from . import evalmetrics
    labels_a = Path(args.a).read_text(encoding="utf-8").split()
    labels_b = Path(args.b).read_text(encoding="utf-8").split()
    _write_json(evalmetrics.cohens_kappa(labels_a, labels_b), args.out)
    return 0


def cmd_stats(args) -> int:
    from . import corpusstats, tagmap
    corpus = annot_io.read_corpus(args.infile, schema=None)
    _write_json({"summary": corpusstats.summarize(corpus),
                 "tag_distribution": tagmap.tag_distribution(corpus)}, args.out)
    return 0


def cmd_ngrams(args) -> int:
    from . import corpusstats
    corpus = annot_io.read_corpus(args.infile)
    stoplist = None
    if args.stoplist:
        stoplist = set(Path(args.stoplist).read_text(encoding="utf-8").split())
    profile = corpusstats.ngram_profile(
        corpus, n=args.n, k=args.k, scope=args.scope, stoplist=stoplist,
        window=args.window,
    )
    lines = ["ngram,count"] + [f"{g},{c}" for g, c in profile.top]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_compare(args) -> int:
    from . import corpusstats
    a = annot_io.read_corpus(args.a, schema=None)
    b = annot_io.read_corpus(args.b, schema=None)
    payload = {
        "jaccard_distance": corpusstats.jaccard_distance(a, b),
        "a": corpusstats.summarize(a),
        "b": corpusstats.summarize(b),
    }
    if args.bertscore:
        payload["bertscore"] = corpusstats.score_generation_quality(a, b)
    _write_json(payload, args.out)
    return 0


def cmd_weights(args) -> int:
    from . import corpusstats
    corpus = annot_io.read_corpus(args.infile)
    _write_json(corpusstats.class_weights(corpus, cap=args.cap), args.out)
    return 0


def cmd_split(args) -> int:
    from . import corpusstats
    corpus = annot_io.read_corpus(args.infile)
    ratios = _parse_ratios(args.ratios)
    parts = corpusstats.split(corpus, ratios, seed=args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, part in parts.items():
        annot_io.write_corpus(part, out_dir / f"{name}.jsonl")
        logger.info("%s: %d documents", name, len(part))
    return 0


def _parse_ratios(raw: str):
    pieces = [p.strip() for p in raw.split(",")]
    if all(p.lstrip("+-").isdigit() for p in pieces):
        return [int(p) for p in pieces]
    return [float(p) for p in pieces]


def cmd_generate(args) -> int:
    from . import recognize, syngen
    config = PipelineConfig.load(args.config)
    template = syngen.load_template(args.template)
    exemplars = annot_io.read_corpus(args.exemplars)
    backend = _backend_from_args(args, config)
    if backend.kind != recognize.EXTERNAL:
        raise ConfigError("generate needs an external backend endpoint")
    policy = syngen.FilterPolicy(**config.filter)
    job = syngen.GenerationJob(
        template=template, exemplars=exemplars, backend=backend,
        fanout=args.fanout, temperature=args.temperature, policy=policy,
    )
    summary = syngen.run_generation_job(job, args.out_dir)
    _write_json(summary, None)
    return 0


def cmd_filter(args) -> int:
    from . import syngen
    config = PipelineConfig.load(args.config)
    raw = syngen.load_raw(args.raw)
    policy = syngen.FilterPolicy(**_with_flags(config.filter,
                                               min_annotations=args.min_annotations))
    corpus, rejects = syngen.filter_outputs(raw, policy)
    syngen.write_filtered(corpus, rejects, args.out_dir)
    _write_json({"accepted": len(corpus), "rejected": len(rejects.rejects),
                 "reject_counts": rejects.counts()}, None)
    return 0


def cmd_run_matrix(args) -> int:
    from . import corpusstats, evalmetrics, recognize
    grid = read_fields(json.loads(Path(args.matrix).read_text(encoding="utf-8")),
                       MATRIX_FIELDS, f"matrix {args.matrix}")
    train_sets, test_sets = grid["train_sets"], grid["test_sets"]
    out_dir = Path(args.out_dir or grid.get("out_dir", "matrix-out"))
    bad = sorted(name for name in {*train_sets, *test_sets}
                 if "/" in name or "\0" in name or name in (".", ".."))
    if bad:
        raise ConfigError(f"matrix {args.matrix}: set names cannot name a file in {out_dir}: {bad}")
    mode = grid.get("mode", evalmetrics.TOKEN)
    backend = _backend_from_args(args, PipelineConfig(backend=grid.get("backend", "rules")))
    test_corpora = {name: _read_union(paths) for name, paths in sorted(test_sets.items())}
    (out_dir / "train").mkdir(parents=True, exist_ok=True)
    (out_dir / "reports").mkdir(parents=True, exist_ok=True)
    for name, paths in sorted(train_sets.items()):
        union = _read_union(paths)
        annot_io.write_corpus(union, out_dir / "train" / f"{name}.conll")
        _write_json(corpusstats.class_weights(union), out_dir / "train" / f"{name}.weights.json")
    # predictions depend on the test set only: the train set never reaches
    # the recognizer, so each test set is recognized and scored once
    cells = {}
    for test_name, test_corpus in test_corpora.items():
        result = recognize.recognize_corpus(test_corpus, backend)
        for doc_id, reason in result.excluded:
            logger.warning("excluded %s: %s", doc_id, reason)
        pred = {p.doc_id: p.spans for p in result.predictions}  # the documents answered
        answered = Corpus(documents=tuple(d for d in test_corpus if d.id in pred),
                          schema=test_corpus.schema)
        report, matrix = evalmetrics.evaluate(answered, pred, mode=mode)
        cells[test_name] = {"backend": backend.name or backend.kind, "confusion": matrix,
                            "metrics": evalmetrics.report_to_dict(report)}
        if result.excluded:
            cells[test_name]["excluded"] = result.excluded
    for train_name in sorted(train_sets):
        for test_name, cell in cells.items():
            _write_json({"train": train_name, "test": test_name, **cell},
                        out_dir / "reports" / f"{train_name}__{test_name}.json")
    n_reports = len(train_sets) * len(test_sets)
    logger.info("wrote %d reports under %s", n_reports, out_dir / "reports")
    return 0


def _read_union(paths) -> Corpus:
    """The documents of one or more files. Readers number documents per file
    (read_conll gives doc-0, doc-1, ... in each), so in a union of two or
    more files every id is prefixed with the index of its file."""
    if isinstance(paths, str):
        paths = [paths]
    corpora = [annot_io.read_corpus(path) for path in paths]
    if len(corpora) == 1:
        return corpora[0]
    return Corpus(documents=tuple(dataclasses.replace(doc, id=f"{i}:{doc.id}")
                                  for i, corpus in enumerate(corpora) for doc in corpus))


# --- parser ----------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; here flag problems are validation
    failures, exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="deidkit", description=__doc__.splitlines()[0])
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("convert", help="re-serialize a corpus between formats")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--schema", type=_schema_arg, default=CANONICAL_SCHEMA,
                   help="canonical | commercial | infer")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("map-tags", help="rewrite tags into a target schema")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--map", help="JSON tag map (default: shipped canonical table)")
    p.add_argument("--commercial", action="store_true",
                   help="canonical -> 6-tag comparison set with title stripping")
    p.add_argument("--audit", help="write the mapping audit JSON here")
    p.set_defaults(func=cmd_map_tags)

    p = sub.add_parser("deidentify", help="redact or surrogate PHI spans")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=["redact", "surrogate"], default="surrogate")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--date-offset", type=int, default=None, help="days")
    p.add_argument("--time-offset", type=int, default=None, help="minutes")
    p.add_argument("--config")
    p.set_defaults(func=cmd_deidentify)

    p = sub.add_parser("recognize", help="predict spans with a backend")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--backend", default="",
                   help='"rules", an http(s) URL, or a subprocess command')
    p.add_argument("--timeout-ms", type=int, default=10_000)
    p.add_argument("--retry", type=int, default=0)
    p.add_argument("--report", help="write run report JSON here")
    p.add_argument("--config")
    p.set_defaults(func=cmd_recognize)

    p = sub.add_parser("evaluate", help="score predictions against gold")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--mode", choices=["token", "entity_strict"], default="token")
    p.add_argument("--out", help="write metrics JSON here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("kappa", help="agreement between two label files")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_kappa)

    p = sub.add_parser("stats", help="corpus summary and tag distribution")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("ngrams", help="top n-gram profile as CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--scope", choices=["whole_text", "phi_adjacent"], default="whole_text")
    p.add_argument("--window", type=int, default=3)
    p.add_argument("--stoplist")
    p.add_argument("--out")
    p.set_defaults(func=cmd_ngrams)

    p = sub.add_parser("compare", help="cross-corpus distance and summaries")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--bertscore", action="store_true",
                   help="also score a against b with hash embeddings")
    p.add_argument("--out")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("weights", help="class weights for imbalanced training")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--cap", type=float, default=20.0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("split", help="deterministic train/val/test split")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--ratios", required=True,
                   help='absolute sizes "69,10,20" or fractions "0.7,0.1,0.2"')
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("generate", help="synthesize annotated summaries")
    p.add_argument("--template", required=True, help="A | B | C | path")
    p.add_argument("--exemplars", required=True)
    p.add_argument("--backend", default="")
    p.add_argument("--fanout", type=int, default=1)
    p.add_argument("--temperature", type=float, default=0.9)
    p.add_argument("--timeout-ms", type=int, default=30_000)
    p.add_argument("--retry", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("filter", help="validate raw generations into a corpus")
    p.add_argument("--raw", required=True, help="id/text JSONL, or a generate run directory")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--min-annotations", type=int, default=None)
    p.add_argument("--config")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("run-matrix", help="evaluation grid over dataset cells")
    p.add_argument("matrix", help="matrix JSON: train_sets, test_sets, mode, out_dir, backend")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_run_matrix)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits directly for --help and usage errors; surface the
        # code so main() stays callable in-process.
        return int(exc.code or 0)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (BackendTimeout, ProtocolViolation) as exc:
        logger.error("backend failure: %s", exc)
        return 2
    except OSError as exc:
        logger.error("i/o failure: %s", exc)
        return 2
    except (DeidError, ValueError, json.JSONDecodeError, KeyError, RecursionError) as exc:
        logger.error("%s", exc)  # RecursionError: json.loads on input nested too deep
        return 1


if __name__ == "__main__":
    sys.exit(main())
