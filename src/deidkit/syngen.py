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
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Optional

from .annot_io import (
    BadRecordLine,
    FilterPolicy,
    MalformedMarkup,
    MissingEnvelope,
    EmptyEntity,
    has_lone_surrogate,
    jsonl_documents,
    parse_inline_xml,
    write_inline_xml,
    write_jsonl,
)
from .core import Corpus, DeidError, Document, token_surfaces
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


def generate(job: GenerationJob) -> GenerationResult:
    """Exactly fanout attempts per exemplar; backend failures are recorded,
    never fatal."""
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
    return result


def _reply_text(_item, resp: dict) -> str:
    if not isinstance(resp.get("text"), str):
        raise ProtocolViolation("no text field")
    if has_lone_surrogate(resp["text"]):
        raise ProtocolViolation("text holds a lone surrogate")
    return resp["text"]


def _write_records(path: Path, records) -> None:
    """One key-sorted JSON object per line, each line newline-terminated."""
    lines = (json.dumps(r, sort_keys=True, ensure_ascii=False) + "\n" for r in records)
    path.write_text("".join(lines), encoding="utf-8")


def persist_raw(result: GenerationResult, out_dir) -> None:
    """out_dir/raw.jsonl: one {"id", "text"} record per generated attempt,
    sorted by id. No id becomes a file name, so every id round-trips."""
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    _write_records(Path(out_dir) / "raw.jsonl",
                   ({"id": aid, "text": result.raw[aid]} for aid in sorted(result.raw)))


def load_raw(source) -> dict:
    """Attempt id -> text from a JSONL of id/text records with unique ids;
    a directory means the raw.jsonl that `generate` wrote into it."""
    p = Path(source)
    if p.is_dir():
        p = p / "raw.jsonl"
    out = {}
    for lineno, doc in jsonl_documents(p.read_text(encoding="utf-8")):
        if doc.id in out:
            raise BadRecordLine(f"line {lineno}: duplicate id {doc.id!r}")
        out[doc.id] = doc.text
    return out


@dataclass
class RejectReport:
    rejects: list = field(default_factory=list)  # (attempt id, reason code)

    def counts(self) -> dict:
        out: dict = {}
        for _, reason in self.rejects:
            out[reason] = out.get(reason, 0) + 1
        return out


def _printable_ratio(text: str) -> float:
    # all printable once the three allowed controls go: ok == len(text), so
    # the answer is exactly 1.0 without counting (and "" is printable)
    if text.replace("\n", "").replace("\t", "").replace("\r", "").isprintable():
        return 1.0
    ok = sum(n for ch, n in Counter(text).items() if ch.isprintable() or ch in "\n\t\r")
    return ok / len(text)


def _repeat_ratio(surfaces: list) -> float:
    if not surfaces:
        return 0.0
    return max(Counter(map(str.casefold, surfaces)).values()) / len(surfaces)


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
        exemplar, _, replicate = aid.rpartition(":")
        try:
            doc = parse_inline_xml(raw[aid], policy.require_record_envelope, doc_id=aid,
                                   meta={"exemplar": exemplar, "replicate": replicate})
        except MissingEnvelope:
            report.rejects.append((aid, NO_ENVELOPE))
            continue
        except (MalformedMarkup, EmptyEntity):
            report.rejects.append((aid, MALFORMED_MARKUP))
            continue
        if policy.unknown_tags == "reject" and \
                not all(tag_map.map_tag(e.tag)[1] for e in doc.entities):
            report.rejects.append((aid, UNKNOWN_TAG))
            continue
        if len(doc.entities) < policy.min_annotations:
            report.rejects.append((aid, TOO_FEW_ANNOTATIONS))
            continue
        surfaces = token_surfaces(doc.text)
        lo, hi = policy.length_bounds
        if not (lo <= len(surfaces) <= hi):
            report.rejects.append((aid, LENGTH_OUT_OF_BOUNDS))
            continue
        if _printable_ratio(doc.text) < policy.printable_ratio_min:
            report.rejects.append((aid, LOW_PRINTABLE_RATIO))
            continue
        if _repeat_ratio(surfaces) > policy.max_repeat_ratio:
            report.rejects.append((aid, HIGH_REPETITION))
            continue
        accepted.append(doc)
    # generated tags are kept as written until the map folds them in, and the
    # corpus it returns is the one that checks them
    canonical, _audit = apply_tagmap(accepted, tag_map)
    return canonical, report


def write_filtered(corpus: Corpus, report: RejectReport, out_dir) -> None:
    """accepted.jsonl (the corpus) and rejects.jsonl (one id/reason record
    per reject) under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "accepted.jsonl").write_text(write_jsonl(corpus), encoding="utf-8")
    _write_records(out / "rejects.jsonl",
                   ({"id": aid, "reason": reason} for aid, reason in report.rejects))


def run_generation_job(job: GenerationJob, out_dir) -> dict:
    """generate, persist the raw outputs, then filter; writes accepted.jsonl
    and rejects.jsonl next to raw.jsonl and returns a run summary."""
    gen = generate(job)
    persist_raw(gen, out_dir)
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
