"""Total, auditable mapping between tag schemas.

Source inventories (dozens of dataset- or model-specific tags) are rewritten
into the 9-tag canonical schema, or further into the 6-tag set used for
commercial-system comparison. Every application is total: tags without a rule
go to the map's default tag and are counted in the audit.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

from .core import (
    CANONICAL_SCHEMA,
    Corpus,
    Document,
    EntitySpan,
    TagSchema,
    build_schema,
    tokenize,
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

    def __post_init__(self) -> None:
        if self.default not in self.target_schema:
            raise ValueError(f"default {self.default!r} outside target schema")
        for src, dst in self.rules.items():
            if dst not in self.target_schema:
                raise ValueError(f"rule {src!r} -> {dst!r} outside target schema")

    def map_tag(self, tag: str) -> tuple[str, bool]:
        """Returns (target tag, True if a rule matched / False if defaulted)."""
        key = normalize_tag(tag)
        if key in self.rules:
            return self.rules[key], True
        return self.default, False


@dataclass
class MappingAudit:
    """Counts per source tag, split into rule hits and default fallbacks."""

    rule_hits: dict = field(default_factory=dict)  # source tag -> count
    unmapped: dict = field(default_factory=dict)  # source tag -> count

    @property
    def total(self) -> int:
        return sum(self.rule_hits.values()) + sum(self.unmapped.values())

    def record(self, tag: str, matched: bool) -> None:
        bucket = self.rule_hits if matched else self.unmapped
        bucket[tag] = bucket.get(tag, 0) + 1


@dataclass(frozen=True)
class NormalizationPolicy:
    """Span cleanup applied after mapping: leading honorific titles are
    stripped from spans of the listed tags. A strip that would empty the
    span is skipped."""

    titles: tuple[str, ...] = ("Dr", "Mr", "Mrs", "Ms", "Prof", "B/O")
    applies_to: tuple[str, ...] = ("NAME",)

    def _pattern(self) -> re.Pattern:
        alts = "|".join(re.escape(t) for t in sorted(self.titles, key=len, reverse=True))
        # the title must be delimited by a period or whitespace, both absorbed
        return re.compile(rf"^(?:{alts})(?:\.\s*|\s+)", re.IGNORECASE)

    def strip_titles(self, doc: Document) -> Document:
        pat = self._pattern()
        out: list[EntitySpan] = []
        for ent in doc.entities:
            if ent.tag not in self.applies_to:
                out.append(ent)
                continue
            start = ent.start
            while True:
                m = pat.match(doc.text[start : ent.end])
                if m is None or start + m.end() >= ent.end:
                    break
                start += m.end()
            if start == ent.start:
                out.append(ent)
            else:
                out.append(
                    EntitySpan(start=start, end=ent.end, tag=ent.tag,
                               surface=doc.text[start : ent.end])
                )
        return replace(doc, entities=tuple(out))


def _load_rules_file() -> dict:
    with resources.files("deidkit.data").joinpath("canonical_tag_rules.json").open(
        "r", encoding="utf-8"
    ) as fh:
        return json.load(fh)


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
    payload = _load_rules_file()
    return TagMap(
        target_schema=CANONICAL_SCHEMA,
        rules=_flatten_rows(payload["rows"]),
        default=payload["default"],
    )


def commercial_comparison_map() -> tuple[TagMap, NormalizationPolicy]:
    """Canonical 9-tag -> 6-tag comparison set: person tags merge into NAME,
    HOSPITAL merges into LOCATION, and the policy strips titles off NAME."""
    rules = {
        normalize_tag("PATIENT"): "NAME",
        normalize_tag("DOCTOR"): "NAME",
        normalize_tag("HOSPITAL"): "LOCATION",
    }
    for tag in ("DATE", "LOCATION", "AGE", "ID", "CONTACT", "OTHERS"):
        rules[normalize_tag(tag)] = tag
    tag_map = TagMap(target_schema=COMMERCIAL_SCHEMA, rules=rules, default="OTHERS")
    return tag_map, NormalizationPolicy()


def apply_tagmap(corpus: Corpus, tag_map: TagMap) -> tuple[Corpus, MappingAudit]:
    """Rewrite every entity tag through the map. Never fails: tags without a
    rule take the default and are tallied in audit.unmapped."""
    audit = MappingAudit()
    docs: list[Document] = []
    for doc in corpus:
        ents = []
        for ent in doc.entities:
            target, matched = tag_map.map_tag(ent.tag)
            audit.record(ent.tag, matched)
            ents.append(replace(ent, tag=target))
        docs.append(replace(doc, entities=tuple(ents)))
    return Corpus(documents=tuple(docs), schema=tag_map.target_schema), audit


def load_tagmap(path) -> TagMap:
    """Read a map from JSON: either row orientation {rows: {target: [sources]}}
    or flat {rules: {source: target}} with an optional target list, plus
    optional default and name (the target schema's name). Any other key is
    rejected, so a misspelt "default" cannot quietly send every unlisted tag
    to OTHERS."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    allowed = {"rows", "default", "name"} if "rows" in payload else \
        {"rules", "target", "default", "name"}
    extra = set(payload) - allowed
    if extra:
        raise ValueError(f"unknown tag map keys {sorted(extra)}; allowed: {sorted(allowed)}")
    if "rows" in payload:
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
            row["tokens"] += len(tokenize(ent.surface).tokens)
    return dist
