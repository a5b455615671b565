"""Seeded benchmark inputs built from the demo corpus generator.

Every corpus here comes from `synth_doc` in scripts/make_demo_corpus.py, so
the figures stay comparable with the probes in ROADMAP.md. A seed changes
which names, dates and numbers appear, never how many notes there are, so
char totals move by well under 1% between seeds.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import random
from pathlib import Path

from deidkit import CANONICAL_SCHEMA, Corpus, Document, build_schema, write_corpus

ROOT = Path(__file__).resolve().parents[1]

# source-inventory tag per canonical tag, so map-tags has real work to do
SOURCE_TAGS = {
    "PATIENT": "Patient_Name",
    "DOCTOR": "Doctor_Name",
    "CONTACT": "Phone_No",
    "ID": "Patient_ID",
    "DATE": "Treatment_Date",
    "LOCATION": "City",
    "HOSPITAL": "Hospital_Name",
    "AGE": "Age",
}

SHORT_NOTES = 4000
# 4x between the ends, as in ROADMAP's probes. Small enough that one run
# holds several iterations (3-4 s each on a 2-vCPU VM) to take medians over;
# at twice these sizes an iteration took 11-16 s, a run held one or two, and
# runs of the same code spread by up to 32% of their median.
LADDER_RUNGS = (50, 100, 200)
WIRE_NOTES = 10_000
WIRE_FAULT_SHARE = 0.01  # of ids each for "error" and "oversize"
SYNGEN_EXEMPLARS = 1000
SYNGEN_FANOUT = 2
SYNGEN_FAULT_SHARE = 0.05  # of attempt ids each, per scripted behaviour
SYNGEN_FAULTS = ("malformed", "no_envelope", "short", "error")


def _load_synth_doc():
    path = ROOT / "scripts" / "make_demo_corpus.py"
    spec = importlib.util.spec_from_file_location("make_demo_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.synth_doc


synth_doc = _load_synth_doc()


def _rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def notes(rng: random.Random, n: int, prefix: str) -> list[Document]:
    return [synth_doc(rng, f"{prefix}-{i:05d}") for i in range(n)]


def retag(doc: Document, table: dict) -> Document:
    ents = tuple(dataclasses.replace(e, tag=table[e.tag]) for e in doc.entities)
    return dataclasses.replace(doc, entities=ents)


def join_notes(docs: list[Document], doc_id: str) -> Document:
    """One long note: the texts joined by single spaces, spans shifted."""
    parts, ents, offset = [], [], 0
    for doc in docs:
        parts.append(doc.text)
        ents.extend(dataclasses.replace(e, start=e.start + offset, end=e.end + offset)
                    for e in doc.entities)
        offset += len(doc.text) + 1
    return Document(id=doc_id, text=" ".join(parts), entities=tuple(ents))


def sizes(corpus: Corpus) -> dict:
    return {
        "docs": len(corpus),
        "chars": sum(len(d.text) for d in corpus),
        "entities": sum(len(d.entities) for d in corpus),
    }


def _write_json(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def short_notes(seed: int, out: Path, n: int = SHORT_NOTES) -> dict:
    """`n` notes written with source-inventory tags to source.jsonl."""
    docs = [retag(d, SOURCE_TAGS) for d in notes(_rng(seed, "short_notes"), n, "sn")]
    corpus = Corpus(documents=tuple(docs), schema=build_schema(SOURCE_TAGS.values()))
    write_corpus(corpus, out / "source.jsonl")
    return sizes(corpus)


def long_ladder(seed: int, out: Path, rungs=LADDER_RUNGS) -> dict:
    """One inline-XML directory per rung, each holding a single note made
    from the first k notes of one seeded stream."""
    stream = notes(_rng(seed, "long_ladder"), max(rungs), "ll")
    info = {}
    for k in rungs:
        corpus = Corpus(documents=(join_notes(stream[:k], f"long-{k}"),),
                        schema=CANONICAL_SCHEMA)
        write_corpus(corpus, out / f"rung{k}")
        info[f"rung{k}"] = sizes(corpus)
    return info


def backend_wire(seed: int, out: Path, n: int = WIRE_NOTES) -> dict:
    """Gold notes plus a mock script that fails a fixed share of ids."""
    rng = _rng(seed, "backend_wire")
    corpus = Corpus(documents=tuple(notes(rng, n, "bw")), schema=CANONICAL_SCHEMA)
    write_corpus(corpus, out / "gold.jsonl")
    k = max(1, round(n * WIRE_FAULT_SHARE))
    faulty = rng.sample([d.id for d in corpus], 2 * k)
    script = {doc_id: "error" for doc_id in faulty[:k]}
    script.update({doc_id: "oversize" for doc_id in faulty[k:]})
    _write_json(script, out / "script.json")
    return {**sizes(corpus), "scripted": {"error": k, "oversize": k}}


def syngen_filter(seed: int, out: Path, n: int = SYNGEN_EXEMPLARS,
                  fanout: int = SYNGEN_FANOUT) -> dict:
    """Exemplar notes plus a mock script over generation attempt ids.

    The scripted ids come from a stream that ignores the seed: every seed
    then writes the same set of raw files, so a run can overwrite the last
    run's files in place instead of deleting them first."""
    corpus = Corpus(documents=tuple(notes(_rng(seed, "syngen_filter"), n, "ex")),
                    schema=CANONICAL_SCHEMA)
    write_corpus(corpus, out / "exemplars.jsonl")
    attempts = [f"{d.id}:{r}" for d in corpus for r in range(fanout)]
    k = max(1, round(len(attempts) * SYNGEN_FAULT_SHARE))
    faulty = random.Random("syngen_filter:faults").sample(attempts, k * len(SYNGEN_FAULTS))
    script = {aid: SYNGEN_FAULTS[i // k] for i, aid in enumerate(faulty)}
    _write_json(script, out / "script.json")
    return {**sizes(corpus), "attempts": len(attempts),
            "scripted": {b: k for b in SYNGEN_FAULTS}}


def char_check(seeds=(1, 2, 3, 4, 5)) -> dict:
    """Spread of char totals across seeds (max/min - 1), per workload, for
    the notes each workload draws."""
    spread = {}
    for name, n in (("short_notes", SHORT_NOTES), ("long_ladder", max(LADDER_RUNGS)),
                    ("backend_wire", WIRE_NOTES), ("syngen_filter", SYNGEN_EXEMPLARS)):
        totals = [sum(len(d.text) for d in notes(_rng(s, name), n, "x")) for s in seeds]
        spread[name] = max(totals) / min(totals) - 1
    return spread
