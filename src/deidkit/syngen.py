"""Synthetic annotated-summary generation and filtration.

A prompt template with a single exemplar slot is rendered once per exemplar,
sent `fanout` times to a text-generation backend over the wire protocol
({"id", "prompt", "temperature"} -> {"id", "text"}), and every raw output is
persisted before any filtering. Filtration parses each output as inline XML
and applies configurable quality gates; each reject carries exactly one
primary reason code. Accepted documents are tag-mapped into the canonical
schema, so filtration doubles as a total validator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Optional

from .annot_io import (
    MalformedMarkup,
    MissingEnvelope,
    EmptyEntity,
    as_corpus,
    parse_inline_xml,
    write_inline_xml,
    write_jsonl,
)
from .core import Corpus, DeidError, Document, tokenize
from .corpusstats import EmptyCorpus, bertscore_greedy, hash_embedding
from .recognize import ProtocolViolation, RecognizerBackend, _call_each, open_wire
from .tagmap import apply_tagmap, builtin_canonical_map

EXEMPLAR_SLOT = "<discharge summary>"

# reject reason codes, one per rejected attempt
MALFORMED_MARKUP = "malformed_markup"
NO_ENVELOPE = "no_envelope"
TOO_FEW_ANNOTATIONS = "too_few_annotations"
LENGTH_OUT_OF_BOUNDS = "length_out_of_bounds"
LOW_PRINTABLE_RATIO = "low_printable_ratio"
HIGH_REPETITION = "high_repetition"
UNKNOWN_TAG = "unknown_tag"


class SlotMissing(DeidError):
    """A template body without exactly one exemplar slot."""


@dataclass(frozen=True)
class PromptTemplate:
    id: str
    body: str

    def __post_init__(self) -> None:
        n = self.body.count(EXEMPLAR_SLOT)
        if n != 1:
            raise SlotMissing(f"template {self.id!r} has {n} exemplar slots, needs 1")


def load_template(which: str) -> PromptTemplate:
    """"A"/"B"/"C" load the shipped templates; anything else is read as a
    file path for a custom template."""
    key = which.upper()
    if key in ("A", "B", "C"):
        body = (
            resources.files("deidkit.data.prompts")
            .joinpath(f"prompt_{key.lower()}.txt")
            .read_text(encoding="utf-8")
        )
        return PromptTemplate(id=key, body=body)
    body = Path(which).read_text(encoding="utf-8")
    return PromptTemplate(id="custom", body=body)


def render_prompt(template: PromptTemplate, exemplar: Document) -> str:
    """Replace the slot with the exemplar serialized as inline XML."""
    return template.body.replace(EXEMPLAR_SLOT, write_inline_xml(exemplar))


@dataclass(frozen=True)
class FilterPolicy:
    require_record_envelope: bool = True
    min_annotations: int = 3
    length_bounds: tuple = (100, 4500)  # tokens
    printable_ratio_min: float = 0.97
    max_repeat_ratio: float = 0.15  # top token frequency / total tokens
    unknown_tags: str = "map_to_others"  # map_to_others | reject

    def __post_init__(self) -> None:
        lo, hi = self.length_bounds
        if not (0 <= lo <= hi):
            raise ValueError(f"bad length bounds {self.length_bounds}")
        if not (0.0 <= self.printable_ratio_min <= 1.0):
            raise ValueError("printable_ratio_min must be in [0, 1]")
        if not (0.0 < self.max_repeat_ratio <= 1.0):
            raise ValueError("max_repeat_ratio must be in (0, 1]")
        if self.unknown_tags not in ("map_to_others", "reject"):
            raise ValueError(f"bad unknown_tags {self.unknown_tags!r}")
        if self.min_annotations < 0:
            raise ValueError("min_annotations must be >= 0")


@dataclass(frozen=True)
class GenerationJob:
    template: PromptTemplate
    exemplars: Corpus
    backend: RecognizerBackend
    fanout: int = 1
    temperature: float = 0.9
    policy: FilterPolicy = field(default_factory=FilterPolicy)

    def __post_init__(self) -> None:
        if self.fanout < 1:
            raise ValueError("fanout must be >= 1")
        if not (0.0 <= self.temperature <= 2.0):
            raise ValueError("temperature must be in [0, 2]")

    @property
    def scheduled(self) -> int:
        return self.fanout * len(self.exemplars)


def attempt_id(exemplar_id: str, replicate: int) -> str:
    return f"{exemplar_id}:{replicate}"


@dataclass
class GenerationResult:
    raw: dict = field(default_factory=dict)  # attempt id -> text
    failures: list = field(default_factory=list)  # (attempt id, reason)
    retries: int = 0


def generate(job: GenerationJob, out_dir: Optional[Path] = None) -> GenerationResult:
    """Exactly fanout attempts per exemplar; backend failures are recorded,
    never fatal. With out_dir, raw outputs land under raw/<exemplar>/
    <replicate>.txt before any filtering happens."""
    prompts = {doc.id: render_prompt(job.template, doc) for doc in job.exemplars}
    work = [(attempt_id(doc.id, k), doc.id) for doc in job.exemplars for k in range(job.fanout)]
    outcomes, retries = _call_each(
        open_wire(job.backend), work,
        lambda item: {"id": item[0], "prompt": prompts[item[1]],
                      "temperature": job.temperature},
        _reply_text,
        job.backend,
    )
    result = GenerationResult(retries=retries)
    for (aid, _), (text, reason, _) in zip(work, outcomes):
        if reason is None:
            result.raw[aid] = text
        else:
            result.failures.append((aid, reason))
    if out_dir is not None:
        persist_raw(result, out_dir)
    return result


def _reply_text(_item, resp: dict) -> str:
    if not isinstance(resp.get("text"), str):
        raise ProtocolViolation("no text field")
    return resp["text"]


def persist_raw(result: GenerationResult, out_dir) -> None:
    base = Path(out_dir) / "raw"
    for aid, text in result.raw.items():
        exemplar, _, replicate = aid.rpartition(":")
        d = base / exemplar.replace("/", "_")
        d.mkdir(parents=True, exist_ok=True)
        (d / f"{replicate}.txt").write_text(text, encoding="utf-8")


@dataclass
class RejectReport:
    rejects: list = field(default_factory=list)  # (attempt id, reason code)

    def counts(self) -> dict:
        out: dict = {}
        for _, reason in self.rejects:
            out[reason] = out.get(reason, 0) + 1
        return out


def _printable_ratio(text: str) -> float:
    if not text:
        return 1.0
    ok = sum(1 for ch in text if ch.isprintable() or ch in "\n\t\r")
    return ok / len(text)


def _repeat_ratio(token_surfaces: list) -> float:
    if not token_surfaces:
        return 0.0
    counts: dict = {}
    for s in token_surfaces:
        key = s.casefold()
        counts[key] = counts.get(key, 0) + 1
    return max(counts.values()) / len(token_surfaces)


def filter_outputs(raw: dict,
                   policy: Optional[FilterPolicy] = None) -> tuple[Corpus, RejectReport]:
    """Validate raw generations into a canonical-schema corpus. Checks run
    in a fixed order and the first failure becomes the reject reason."""
    if policy is None:
        policy = FilterPolicy()
    tag_map = builtin_canonical_map()
    accepted: list[Document] = []
    report = RejectReport()
    for aid in sorted(raw):
        text = raw[aid]
        try:
            doc = parse_inline_xml(text, policy.require_record_envelope, doc_id=aid)
        except MissingEnvelope:
            report.rejects.append((aid, NO_ENVELOPE))
            continue
        except (MalformedMarkup, EmptyEntity):
            report.rejects.append((aid, MALFORMED_MARKUP))
            continue
        if policy.unknown_tags == "reject":
            bad = [e.tag for e in doc.entities if not tag_map.map_tag(e.tag)[1]]
            if bad:
                report.rejects.append((aid, UNKNOWN_TAG))
                continue
        if len(doc.entities) < policy.min_annotations:
            report.rejects.append((aid, TOO_FEW_ANNOTATIONS))
            continue
        toks = tokenize(doc.text)
        lo, hi = policy.length_bounds
        if not (lo <= len(toks.tokens) <= hi):
            report.rejects.append((aid, LENGTH_OUT_OF_BOUNDS))
            continue
        if _printable_ratio(doc.text) < policy.printable_ratio_min:
            report.rejects.append((aid, LOW_PRINTABLE_RATIO))
            continue
        if _repeat_ratio([t.surface for t in toks.tokens]) > policy.max_repeat_ratio:
            report.rejects.append((aid, HIGH_REPETITION))
            continue
        exemplar, _, replicate = aid.rpartition(":")
        accepted.append(doc.with_meta(exemplar=exemplar, replicate=replicate))
    # generated tags are kept as written until the map folds them in
    canonical, _audit = apply_tagmap(as_corpus(accepted, None), tag_map)
    return canonical, report


def score_generation_quality(generated: Corpus, reference: Corpus,
                             embedder=None) -> dict:
    """Mean greedy-BERTScore F1 of each generated doc against its source
    exemplar (by meta, falling back to a deterministic reference pick) plus
    mean token length."""
    if len(generated) == 0 or len(reference) == 0:
        raise EmptyCorpus("both corpora must be non-empty")
    if embedder is None:
        embedder = hash_embedding
    ref_ids = {doc.id: doc for doc in reference}
    ref_list = sorted(reference, key=lambda d: d.id)
    f1s = []
    lengths = []
    for i, doc in enumerate(generated):
        toks = [t.surface for t in tokenize(doc.text).tokens]
        lengths.append(len(toks))
        source = ref_ids.get(doc.meta.get("exemplar", ""))
        if source is None:
            source = ref_list[i % len(ref_list)]
        ref_toks = [t.surface for t in tokenize(source.text).tokens]
        if not toks or not ref_toks:
            f1s.append(0.0)
            continue
        score = bertscore_greedy(embedder(toks), embedder(ref_toks))
        f1s.append(score["f1"])
    return {
        "bert_f1_mean": sum(f1s) / len(f1s),
        "avg_length_words": sum(lengths) / len(lengths),
    }


def write_filtered(corpus: Corpus, report: RejectReport, out_dir) -> None:
    """accepted.jsonl (the corpus) and rejects.jsonl (one id/reason record
    per reject) under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "accepted.jsonl").write_text(write_jsonl(corpus), encoding="utf-8")
    (out / "rejects.jsonl").write_text(
        "".join(json.dumps({"id": aid, "reason": reason}, ensure_ascii=False) + "\n"
                for aid, reason in report.rejects),
        encoding="utf-8",
    )


def run_generation_job(job: GenerationJob, out_dir) -> dict:
    """generate + persist + filter; writes accepted.jsonl and rejects.jsonl
    next to the raw outputs and returns a run summary."""
    gen = generate(job, out_dir=out_dir)
    corpus, rejects = filter_outputs(gen.raw, job.policy)
    write_filtered(corpus, rejects, out_dir)
    return {
        "scheduled": job.scheduled,
        "generated": len(gen.raw),
        "failures": len(gen.failures),
        "retries": gen.retries,
        "accepted": len(corpus),
        "rejected": len(rejects.rejects),
        "reject_counts": rejects.counts(),
    }
