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
    """Defaults shared across subcommands; flags always win. The field types
    are the config file's, where each section is a JSON object; `load`
    builds the sections."""

    concurrency: int = 4
    backend: str = ""
    surrogate: dict = dataclasses.field(default_factory=dict)  # load: a SurrogateConfig
    filter: dict = dataclasses.field(default_factory=dict)  # load: a FilterPolicy

    @classmethod
    def load(cls, args) -> "PipelineConfig":
        """The config in the JSON file `args.config` names, or the defaults
        without one, with each section built once, the command's flags put
        over the file's values. So a bad value or lexicon raises here, for
        every command. The surrogate section, whose module loads only for
        it, is built for `deidentify` and for a file that holds one."""
        path = args.config
        data = read_fields(json.loads(Path(path).read_text(encoding="utf-8")), cls,
                           f"config {path}") if path else {}
        sections = {"filter": (annot_io.FilterPolicy, {"min_annotations": "min_annotations"})}
        if "surrogate" in data or args.command == "deidentify":
            from .surrogate import SurrogateConfig
            sections["surrogate"] = (SurrogateConfig, {
                "seed": "seed", "date_offset_days": "date_offset",
                "time_offset_minutes": "time_offset"})
        for section, (spec, flags) in sections.items():
            values = read_fields(data.get(section, {}), spec, f"config {path} {section}")
            given = {key: getattr(args, flag, None) for key, flag in flags.items()}
            data[section] = spec(**{**values, **{k: v for k, v in given.items() if v is not None}})
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
    if not endpoint or endpoint == recognize.BUILTIN_RULES:
        return recognize.RecognizerBackend()
    return recognize.RecognizerBackend(
        kind=recognize.EXTERNAL,
        endpoint=endpoint,
        timeout_ms=getattr(args, "timeout_ms", 10_000),
        retry=getattr(args, "retry", 0),
        max_in_flight=config.concurrency,
    )


# --- subcommand implementations -------------------------------------------

def cmd_convert(args) -> int:
    corpus = annot_io.read_corpus(args.infile, schema=args.schema)
    annot_io.write_corpus(corpus, args.out)
    logger.info("wrote %d documents to %s", len(corpus), args.out)
    return 0


def cmd_map_tags(args) -> int:
    from . import tagmap
    if args.map and args.commercial:
        raise ConfigError("map-tags takes --map or --commercial, not both")
    corpus = annot_io.read_corpus(args.infile, schema=None)
    if args.map:
        tm = tagmap.load_tagmap(args.map)
    elif args.commercial:
        tm = tagmap.commercial_comparison_map()
    else:
        tm = tagmap.builtin_canonical_map()
    mapped, audit = tagmap.apply_tagmap(corpus, tm)
    if args.commercial:
        mapped = Corpus(documents=tuple(map(tagmap.strip_titles, mapped)), schema=mapped.schema)
    annot_io.write_corpus(mapped, args.out)
    if args.audit:
        _write_json(audit, args.audit)
    logger.info("mapped %d entities (%d unmapped)", audit.total,
                sum(audit.unmapped.values()))
    return 0


def cmd_deidentify(args) -> int:
    from . import surrogate
    config = PipelineConfig.load(args)
    corpus = annot_io.read_corpus(args.infile)
    out = surrogate.scrub_corpus(corpus, args.mode, config.surrogate)
    annot_io.write_corpus(out, args.out)
    return 0


def cmd_recognize(args) -> int:
    from . import recognize
    config = PipelineConfig.load(args)
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
    config = PipelineConfig.load(args)
    template = syngen.load_template(args.template)
    exemplars = annot_io.read_corpus(args.exemplars)
    backend = _backend_from_args(args, config)
    if backend.kind != recognize.EXTERNAL:
        raise ConfigError("generate needs an external backend endpoint")
    job = syngen.GenerationJob(
        template=template, exemplars=exemplars, backend=backend,
        fanout=args.fanout, temperature=args.temperature, policy=config.filter,
    )
    summary = syngen.run_generation_job(job, args.out_dir)
    _write_json(summary, None)
    return 0


def cmd_filter(args) -> int:
    from . import syngen
    config = PipelineConfig.load(args)
    raw = syngen.load_raw(args.raw)
    corpus, rejects = syngen.filter_outputs(raw, config.filter)
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
        cells[test_name] = {"backend": backend.kind, "confusion": matrix,
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


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser for `argv`. When its first token other than -v names a
    subcommand, the top-level parser and that subcommand's are the only ones
    built, since a call runs one subcommand; any other argv, or none, gets
    every subcommand's parser."""
    infile, required = ("--in", dict(dest="infile", required=True)), dict(required=True)
    out, config = ("--out", {}), ("--config", {})
    commands = {  # name: (help, handler, flags); a flag is its name and add_argument keywords
        "convert": ("re-serialize a corpus between formats", cmd_convert, [
            infile, ("--out", required),
            ("--schema", dict(type=_schema_arg, default=CANONICAL_SCHEMA,
                              help="canonical | commercial | infer"))]),
        "map-tags": ("rewrite tags into a target schema", cmd_map_tags, [
            infile, ("--out", required),
            ("--map", dict(help="JSON tag map (default: shipped canonical table)")),
            ("--commercial", dict(action="store_true",
                                  help="canonical -> 6-tag comparison set with title stripping")),
            ("--audit", dict(help="write the mapping audit JSON here"))]),
        "deidentify": ("redact or surrogate PHI spans", cmd_deidentify, [
            infile, ("--out", required),
            ("--mode", dict(choices=["redact", "surrogate"], default="surrogate")),
            ("--seed", dict(type=int)), ("--date-offset", dict(type=int, help="days")),
            ("--time-offset", dict(type=int, help="minutes")), config]),
        "recognize": ("predict spans with a backend", cmd_recognize, [
            infile, ("--out", required),
            ("--backend", dict(default="",
                               help='"rules", an http(s) URL, or a subprocess command')),
            ("--timeout-ms", dict(type=int, default=10_000)),
            ("--retry", dict(type=int, default=0)),
            ("--report", dict(help="write run report JSON here")), config]),
        "evaluate": ("score predictions against gold", cmd_evaluate, [
            ("--gold", required), ("--pred", required),
            ("--mode", dict(choices=["token", "entity_strict"], default="token")),
            ("--out", dict(help="write metrics JSON here"))]),
        "kappa": ("agreement between two label files", cmd_kappa,
                  [("--a", required), ("--b", required), out]),
        "stats": ("corpus summary and tag distribution", cmd_stats, [infile, out]),
        "ngrams": ("top n-gram profile as CSV", cmd_ngrams, [
            infile, ("--n", dict(type=int, required=True)), ("--k", dict(type=int, default=10)),
            ("--scope", dict(choices=["whole_text", "phi_adjacent"], default="whole_text")),
            ("--window", dict(type=int, default=3)), ("--stoplist", {}), out]),
        "compare": ("cross-corpus distance and summaries", cmd_compare, [
            ("--a", required), ("--b", required),
            ("--bertscore", dict(action="store_true",
                                 help="also score a against b with hash embeddings")), out]),
        "weights": ("class weights for imbalanced training", cmd_weights,
                    [infile, ("--cap", dict(type=float, default=20.0)), out]),
        "split": ("deterministic train/val/test split", cmd_split, [
            infile, ("--out-dir", required),
            ("--ratios", dict(required=True,
                              help='absolute sizes "69,10,20" or fractions "0.7,0.1,0.2"')),
            ("--seed", dict(type=int, default=0))]),
        "generate": ("synthesize annotated summaries", cmd_generate, [
            ("--template", dict(required=True, help="A | B | C | path")),
            ("--exemplars", required), ("--backend", dict(default="")),
            ("--fanout", dict(type=int, default=1)),
            ("--temperature", dict(type=float, default=0.9)),
            ("--timeout-ms", dict(type=int, default=30_000)),
            ("--retry", dict(type=int, default=0)), ("--out-dir", required), config]),
        "filter": ("validate raw generations into a corpus", cmd_filter, [
            ("--raw", dict(required=True, help="id/text JSONL, or a generate run directory")),
            ("--out-dir", required), ("--min-annotations", dict(type=int)), config]),
        "run-matrix": ("evaluation grid over dataset cells", cmd_run_matrix, [
            ("matrix", dict(help="matrix JSON: train_sets, test_sets, mode, out_dir, backend")),
            ("--out-dir", {})]),
    }
    first = next((arg for arg in argv or () if arg not in ("-v", "--verbose")), None)
    parser = _Parser(prog="deidkit", description=__doc__.splitlines()[0])
    parser.add_argument("-v", "--verbose", action="store_true")
    metavar = None
    if first in commands:
        # an error's usage line still names every subcommand; on the full parser
        # the metavar would also stand in for `command` in its error messages
        metavar, commands = "{" + ",".join(commands) + "}", {first: commands[first]}
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser,
                                metavar=metavar)
    for name, (help_, handler, flags) in commands.items():
        p = sub.add_parser(name, help=help_)
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv)
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
