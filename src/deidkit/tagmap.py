"""Total, auditable mapping between tag schemas.

Source inventories (dozens of dataset- or model-specific tags) are rewritten
into the 9-tag canonical schema, or further into the 6-tag set used for
commercial-system comparison. Every application is total: tags without a rule
go to the map's default tag and are counted in the audit.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import Sequence, Union

from .core import (
    CANONICAL_SCHEMA,
    Corpus,
    Document,
    EntitySpan,
    TagSchema,
    build_schema,
    read_fields,
    token_surfaces,
)

COMMERCIAL_TAGS = ("DATE", "NAME", "LOCATION", "AGE", "ID", "CONTACT", "OTHERS")
COMMERCIAL_SCHEMA = TagSchema(name="commercial-6", tags=COMMERCIAL_TAGS, other="OTHERS")


def normalize_tag(tag: str) -> str:
    """Comparison key: case-insensitive, runs of whitespace/underscores
    collapse to one space. "Phone_No" and "Phone No" are the same tag."""
    return re.sub(r"[\s_]+", " ", tag.strip()).lower()


@dataclass(frozen=True)
class TagMap:
    target_schema: TagSchema
    rules: dict  # normalized source tag -> target tag
    default: str
    # source tag as written -> map_tag's answer, so each tag is normalized once
    _resolved: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.default not in self.target_schema:
            raise ValueError(f"default {self.default!r} outside target schema")
        for src, dst in self.rules.items():
            if dst not in self.target_schema:
                raise ValueError(f"rule {src!r} -> {dst!r} outside target schema")

    def map_tag(self, tag: str) -> tuple[str, bool]:
        """Returns (target tag, True if a rule matched / False if defaulted)."""
        hit = self._resolved.get(tag)
        if hit is None:
            key = normalize_tag(tag)
            hit = (self.rules[key], True) if key in self.rules else (self.default, False)
            self._resolved[tag] = hit
        return hit


@dataclass
class MappingAudit:
    """Counts per source tag, split into rule hits and default fallbacks, and their sum."""

    rule_hits: dict = field(default_factory=dict)  # source tag -> count
    unmapped: dict = field(default_factory=dict)  # source tag -> count
    total: int = 0


# Leading honorifics, longest first; a title must be delimited by a period
# or whitespace, both absorbed.
_TITLE = re.compile(r"(?:Prof|Mrs|B/O|Dr|Mr|Ms)(?:\.\s*|\s+)", re.IGNORECASE)


def strip_titles(doc: Document) -> Document:
    """Span cleanup after mapping to the comparison set: leading titles,
    stacked ones too, are cut off each NAME span. A strip that would empty
    the span is skipped."""
    out: list[EntitySpan] = []
    for ent in doc.entities:
        start = ent.start
        # match(text, pos, endpos) sees the span alone, as a slice would
        while ent.tag == "NAME" and (m := _TITLE.match(doc.text, start, ent.end)) \
                and m.end() < ent.end:
            start = m.end()
        out.append(ent if start == ent.start else
                   EntitySpan(start=start, end=ent.end, tag=ent.tag,
                              surface=doc.text[start : ent.end]))
    return replace(doc, entities=tuple(out))


def _flatten_rows(rows: dict) -> dict:
    rules: dict = {}
    for target, sources in rows.items():
        for src in sources:
            key = normalize_tag(src)
            if key in rules and rules[key] != target:
                raise ValueError(f"conflicting rules for {src!r}: {rules[key]} vs {target}")
            rules[key] = target
    return rules


def builtin_canonical_map() -> TagMap:
    """The shipped source-tag -> canonical-tag table."""
    payload = json.loads(resources.files("deidkit.data").joinpath("canonical_tag_rules.json")
                         .read_text(encoding="utf-8"))
    return TagMap(
        target_schema=CANONICAL_SCHEMA,
        rules=_flatten_rows(payload["rows"]),
        default=payload["default"],
    )


def commercial_comparison_map() -> TagMap:
    """Canonical 9-tag -> 6-tag comparison set: person tags merge into NAME
    (strip_titles then cuts their titles) and HOSPITAL merges into LOCATION."""
    rules = {
        normalize_tag("PATIENT"): "NAME",
        normalize_tag("DOCTOR"): "NAME",
        normalize_tag("HOSPITAL"): "LOCATION",
    }
    for tag in ("DATE", "LOCATION", "AGE", "ID", "CONTACT", "OTHERS"):
        rules[normalize_tag(tag)] = tag
    return TagMap(target_schema=COMMERCIAL_SCHEMA, rules=rules, default="OTHERS")


def apply_tagmap(corpus: Union[Corpus, Sequence[Document]],
                 tag_map: TagMap) -> tuple[Corpus, MappingAudit]:
    """Rewrite every entity tag in the documents through the map. Never
    fails: tags without a rule take the default and are tallied in
    audit.unmapped. Each distinct tag is resolved once; a document whose
    tags all map to themselves is passed through as is."""
    audit = MappingAudit()
    renamed: dict = {}  # source tag -> a different target tag
    for tag, n in Counter(e.tag for doc in corpus for e in doc.entities).items():
        target, matched = tag_map.map_tag(tag)
        (audit.rule_hits if matched else audit.unmapped)[tag] = n
        audit.total += n
        if target != tag:
            renamed[tag] = target
    docs = tuple(_retag(doc, renamed) for doc in corpus)
    return Corpus(documents=docs, schema=tag_map.target_schema), audit


def _retag(doc: Document, renamed: dict) -> Document:
    if not any(e.tag in renamed for e in doc.entities):
        return doc
    ents = tuple(EntitySpan(e.start, e.end, renamed[e.tag], e.surface) if e.tag in renamed
                 else e for e in doc.entities)
    return Document(id=doc.id, text=doc.text, entities=ents, meta=doc.meta)


ROWS_MAP = {"rows": dict[str, list[str]], "default": str, "name": str}
FLAT_MAP = {"rules": dict[str, str], "target": list[str], "default": str, "name": str}


def load_tagmap(path) -> TagMap:
    """Read a map from JSON: rows {target: [sources]} or flat rules {source:
    target} with an optional target list, plus an optional default and name
    (of the target schema). Any other key is rejected, so a misspelt
    "default" cannot quietly send every unlisted tag to OTHERS."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    rows = isinstance(payload, dict) and "rows" in payload
    read_fields(payload, ROWS_MAP if rows else FLAT_MAP, f"tag map {path}")
    if rows:
        rules = _flatten_rows(payload["rows"])
        targets = list(payload["rows"])
    else:
        rules = {normalize_tag(k): v for k, v in payload["rules"].items()}
        targets = payload.get("target", sorted(set(payload["rules"].values())))
    default = payload.get("default", "OTHERS")
    target_schema = build_schema(targets, name=payload.get("name", "tagmap"), other=default)
    return TagMap(target_schema=target_schema, rules=rules, default=default)


def tag_distribution(corpus: Corpus) -> dict:
    """Per-tag entity and token counts over the corpus. Tokens are counted
    with the core tokenizer on each entity surface."""
    dist: dict = {tag: {"entities": 0, "tokens": 0} for tag in corpus.schema.tags}
    for doc in corpus:
        for ent in doc.entities:
            row = dist.setdefault(ent.tag, {"entities": 0, "tokens": 0})
            row["entities"] += 1
            row["tokens"] += len(token_surfaces(ent.surface))
    return dist
