"""Command-line surface for the whole pipeline.

Every subcommand follows the same conventions: logs to stderr, data to
stdout or to declared output files, exit 0 on success, 1 on validation
problems, 2 on I/O or backend trouble. File formats are picked by extension
(.jsonl, .conll, .xml, or a directory of .xml). JSON outputs are written
with sorted keys so identical inputs under a fixed seed give byte-identical
files. The DEIDKIT_BACKEND environment variable overrides any configured
backend endpoint.
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

from . import annot_io, corpusstats, evalmetrics, recognize, surrogate, syngen, tagmap
from .core import CANONICAL_SCHEMA, Corpus, DeidError
from .recognize import BackendTimeout, ProtocolViolation, SpanOutOfRange

logger = logging.getLogger("deidkit.cli")

ENV_BACKEND = "DEIDKIT_BACKEND"


class ConfigError(DeidError):
    """A pipeline config file with unknown keys or missing files."""


@dataclasses.dataclass(frozen=True)
class PipelineConfig:
    """Defaults shared across subcommands; flags always win."""

    concurrency: int = 4
    backend: str = ""
    surrogate: dict = dataclasses.field(default_factory=dict)
    filter: dict = dataclasses.field(default_factory=dict)

    @classmethod
    def load(cls, path) -> "PipelineConfig":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for section, allowed in (
            ("surrogate", {f.name for f in dataclasses.fields(surrogate.SurrogateConfig)}),
            ("filter", {f.name for f in dataclasses.fields(syngen.FilterPolicy)}),
        ):
            extra = set(data.get(section, {})) - allowed
            if extra:
                raise ConfigError(f"unknown {section} config keys: {sorted(extra)}")
        for lex in data.get("surrogate", {}).get("locale_lexicons", {}).values():
            if "/" in lex and not Path(lex).is_file():
                raise ConfigError(f"lexicon file not found: {lex}")
        return cls(**data)


def _schema_arg(value: str):
    if value == "canonical":
        return CANONICAL_SCHEMA
    if value == "commercial":
        return tagmap.COMMERCIAL_SCHEMA
    if value == "infer":
        return None
    raise argparse.ArgumentTypeError(f"unknown schema {value!r}")


def _write_json(obj, path: Optional[str] = None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _backend_from_args(args, config: PipelineConfig) -> recognize.RecognizerBackend:
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


def _config_from_args(args) -> PipelineConfig:
    if getattr(args, "config", None):
        return PipelineConfig.load(args.config)
    return PipelineConfig()


# --- subcommand implementations -------------------------------------------

def cmd_convert(args) -> int:
    corpus = annot_io.read_corpus(args.infile, schema=args.schema)
    annot_io.write_corpus(corpus, args.out)
    logger.info("wrote %d documents to %s", len(corpus), args.out)
    return 0


def cmd_map_tags(args) -> int:
    corpus = annot_io.read_corpus(args.infile, schema=None)
    if args.map:
        tm = tagmap.load_tagmap(args.map)
    elif args.commercial:
        tm, policy = tagmap.commercial_comparison_map()
    else:
        tm = tagmap.builtin_canonical_map()
    mapped, audit = tagmap.apply_tagmap(corpus, tm)
    if args.commercial and not args.map:
        mapped = Corpus(
            documents=tuple(policy.strip_titles(d) for d in mapped),
            schema=mapped.schema,
        )
    annot_io.write_corpus(mapped, args.out)
    if args.audit:
        _write_json(
            {"rule_hits": audit.rule_hits, "unmapped": audit.unmapped,
             "total": audit.total},
            args.audit,
        )
    logger.info("mapped %d entities (%d unmapped)", audit.total,
                sum(audit.unmapped.values()))
    return 0


def cmd_deidentify(args) -> int:
    config = _config_from_args(args)
    corpus = annot_io.read_corpus(args.infile)
    kwargs = dict(config.surrogate)
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.date_offset is not None:
        kwargs["date_offset_days"] = args.date_offset
    if args.time_offset is not None:
        kwargs["time_offset_minutes"] = args.time_offset
    cfg = surrogate.SurrogateConfig(**kwargs)
    out = surrogate.scrub_corpus(corpus, args.mode, cfg)
    annot_io.write_corpus(out, args.out)
    return 0


def cmd_recognize(args) -> int:
    config = _config_from_args(args)
    corpus = annot_io.read_corpus(args.infile)
    backend = _backend_from_args(args, config)
    result = recognize.recognize_corpus(corpus, backend)
    pred_map = result.as_pred_map()
    docs = []
    for doc in corpus:
        if doc.id in pred_map:
            docs.append(
                dataclasses.replace(
                    doc, entities=tuple(pred_map[doc.id]),
                    meta={**doc.meta, "backend": backend.name or backend.kind},
                )
            )
    out_corpus = Corpus(documents=tuple(docs), schema=backend.schema)
    annot_io.write_corpus(out_corpus, args.out)
    if args.report:
        _write_json(
            {"predicted": len(result.predictions),
             "excluded": [[d, r] for d, r in result.excluded],
             "retries": result.retries},
            args.report,
        )
    for doc_id, reason in result.excluded:
        logger.warning("excluded %s: %s", doc_id, reason)
    return 0


def cmd_evaluate(args) -> int:
    gold = annot_io.read_corpus(args.gold)
    pred = annot_io.read_corpus(args.pred)
    report, matrix = evalmetrics.evaluate(gold, {d.id: list(d.entities) for d in pred},
                                          mode=args.mode)
    sys.stdout.write(evalmetrics.format_report(report, matrix) + "\n")
    if args.out:
        _write_json(
            {"metrics": evalmetrics.report_to_dict(report),
             "confusion": evalmetrics.confusion_to_dict(matrix)},
            args.out,
        )
    return 0


def cmd_kappa(args) -> int:
    labels_a = Path(args.a).read_text(encoding="utf-8").split()
    labels_b = Path(args.b).read_text(encoding="utf-8").split()
    rep = evalmetrics.cohens_kappa(labels_a, labels_b)
    _write_json(
        {"kappa": rep.kappa, "observed_agreement": rep.observed_agreement,
         "expected_agreement": rep.expected_agreement, "n_items": rep.n_items,
         "degenerate": rep.degenerate},
        args.out,
    )
    return 0


def cmd_stats(args) -> int:
    corpus = annot_io.read_corpus(args.infile, schema=None)
    summary = corpusstats.summarize(corpus)
    payload = {
        "summary": corpusstats.summary_to_dict(summary),
        "tag_distribution": tagmap.tag_distribution(corpus),
    }
    _write_json(payload, args.out)
    return 0


def cmd_ngrams(args) -> int:
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
    a = annot_io.read_corpus(args.a, schema=None)
    b = annot_io.read_corpus(args.b, schema=None)
    payload = {
        "jaccard_distance": corpusstats.jaccard_distance(a, b),
        "a": corpusstats.summary_to_dict(corpusstats.summarize(a)),
        "b": corpusstats.summary_to_dict(corpusstats.summarize(b)),
    }
    if args.bertscore:
        payload["bertscore"] = syngen.score_generation_quality(a, b)
    _write_json(payload, args.out)
    return 0


def cmd_weights(args) -> int:
    corpus = annot_io.read_corpus(args.infile)
    weights = corpusstats.class_weights(corpus, cap=args.cap)
    _write_json({"n": weights.n, "per_tag": weights.per_tag}, args.out)
    return 0


def cmd_split(args) -> int:
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
    config = _config_from_args(args)
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
    config = _config_from_args(args)
    raw = _load_raw(args.raw)
    policy_kwargs = dict(config.filter)
    if args.min_annotations is not None:
        policy_kwargs["min_annotations"] = args.min_annotations
    policy = syngen.FilterPolicy(**policy_kwargs)
    corpus, rejects = syngen.filter_outputs(raw, policy)
    syngen.write_filtered(corpus, rejects, args.out_dir)
    _write_json({"accepted": len(corpus), "rejected": len(rejects.rejects),
                 "reject_counts": rejects.counts()}, None)
    return 0


def _load_raw(source: str) -> dict:
    """Raw generations from a raw/ directory tree or a JSONL of id/text."""
    p = Path(source)
    if p.is_dir():
        base = p / "raw" if (p / "raw").is_dir() else p
        out = {}
        for exemplar_dir in sorted(d for d in base.iterdir() if d.is_dir()):
            for f in sorted(exemplar_dir.glob("*.txt")):
                out[f"{exemplar_dir.name}:{f.stem}"] = f.read_text(encoding="utf-8")
        if not out:
            raise ConfigError(f"no raw outputs under {source}")
        return out
    out = {}
    for line in p.read_text(encoding="utf-8").splitlines():
        if line.strip():
            rec = json.loads(line)
            out[rec["id"]] = rec["text"]
    return out


def cmd_run_matrix(args) -> int:
    grid = json.loads(Path(args.matrix).read_text(encoding="utf-8"))
    allowed = {"train_sets", "test_sets", "mode", "out_dir", "backend"}
    unknown = set(grid) - allowed
    if unknown:
        raise ConfigError(f"unknown matrix keys: {sorted(unknown)}")
    out_dir = Path(args.out_dir or grid.get("out_dir", "matrix-out"))
    mode = grid.get("mode", evalmetrics.TOKEN)
    backend = _backend_from_args(args, PipelineConfig(backend=grid.get("backend", "rules")))
    test_corpora = {
        name: _read_union(paths) for name, paths in sorted(grid["test_sets"].items())
    }
    (out_dir / "train").mkdir(parents=True, exist_ok=True)
    (out_dir / "reports").mkdir(parents=True, exist_ok=True)
    for name, paths in sorted(grid["train_sets"].items()):
        union = _read_union(paths)
        annot_io.write_corpus(union, out_dir / "train" / f"{name}.conll")
        weights = corpusstats.class_weights(union)
        _write_json({"n": weights.n, "per_tag": weights.per_tag},
                    out_dir / "train" / f"{name}.weights.json")
    # predictions depend on the test set only: the train set never reaches
    # the recognizer, so each test set is recognized and scored once
    scored = {}
    for test_name, test_corpus in test_corpora.items():
        result = recognize.recognize_corpus(test_corpus, backend)
        scored[test_name] = evalmetrics.evaluate(test_corpus, result.as_pred_map(), mode=mode)
    for train_name in sorted(grid["train_sets"]):
        for test_name, (report, matrix) in scored.items():
            _write_json(
                {
                    "train": train_name,
                    "test": test_name,
                    "backend": backend.name or backend.kind,
                    "metrics": evalmetrics.report_to_dict(report),
                    "confusion": evalmetrics.confusion_to_dict(matrix),
                },
                out_dir / "reports" / f"{train_name}__{test_name}.json",
            )
    n_reports = len(grid["train_sets"]) * len(grid["test_sets"])
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
    p.add_argument("--mode", choices=[surrogate.REDACT, surrogate.SURROGATE],
                   default=surrogate.SURROGATE)
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
    p.add_argument("--mode", choices=[evalmetrics.TOKEN, evalmetrics.ENTITY_STRICT],
                   default=evalmetrics.TOKEN)
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
    p.add_argument("--scope", choices=[corpusstats.WHOLE_TEXT, corpusstats.PHI_ADJACENT],
                   default=corpusstats.WHOLE_TEXT)
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
    p.add_argument("--raw", required=True, help="raw/ directory or id/text JSONL")
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
    except (BackendTimeout, ProtocolViolation, SpanOutOfRange) as exc:
        logger.error("backend failure: %s", exc)
        return 2
    except OSError as exc:
        logger.error("i/o failure: %s", exc)
        return 2
    except (DeidError, ValueError, json.JSONDecodeError, KeyError) as exc:
        logger.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
