"""Core domain types for annotated clinical text.

Everything downstream (parsers, surrogate replacement, recognizers,
metrics) operates on these types. Offsets are character offsets into the
document text, never byte offsets. All types are immutable after
construction, so they can be shared freely across threads; the operations
in this module are pure functions.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional, Sequence

logger = logging.getLogger("deidkit.core")


class DeidError(Exception):
    """Base class for all toolkit errors."""


class EntityTokenMisalignment(DeidError):
    """An entity boundary falls strictly inside a token."""

    def __init__(self, message: str, doc_id: str = "", start: int = -1, end: int = -1):
        super().__init__(message)
        self.doc_id = doc_id
        self.start = start
        self.end = end


class InvalidBioSequence(DeidError):
    """A label sequence violates the B/I/O transition rules."""


class UnknownTag(DeidError, ValueError):
    """An entity tag outside the schema of the corpus that holds it."""


# Canonical tag inventory. OTHERS is the non-PHI catch-all.
CANONICAL_TAGS = (
    "CONTACT",
    "PATIENT",
    "DOCTOR",
    "ID",
    "DATE",
    "LOCATION",
    "HOSPITAL",
    "AGE",
    "OTHERS",
)


@dataclass(frozen=True)
class TagSchema:
    """A closed tag inventory with a designated non-PHI catch-all tag."""

    name: str
    tags: tuple[str, ...]
    other: str = "OTHERS"

    def __post_init__(self) -> None:
        if len(set(self.tags)) != len(self.tags):
            raise ValueError(f"schema {self.name!r} has duplicate tags")
        if self.other not in self.tags:
            raise ValueError(f"schema {self.name!r}: catch-all {self.other!r} not in tags")

    def __contains__(self, tag: str) -> bool:
        return tag in self.tags

    @property
    def phi_tags(self) -> tuple[str, ...]:
        """All tags except the catch-all."""
        return tuple(t for t in self.tags if t != self.other)


CANONICAL_SCHEMA = TagSchema(name="canonical-9", tags=CANONICAL_TAGS, other="OTHERS")


@dataclass(frozen=True)
class EntitySpan:
    """A labeled character span. `end` is exclusive; surface must equal the
    covered slice of the owning document's text."""

    start: int
    end: int
    tag: str
    surface: str

    def __post_init__(self) -> None:
        if self.start < 0 or self.start >= self.end:
            raise ValueError(f"bad span offsets [{self.start}, {self.end})")
        if not self.surface:
            raise ValueError("span surface must be non-empty")

    def overlaps(self, other: "EntitySpan") -> bool:
        return self.start < other.end and other.start < self.end


@dataclass(frozen=True)
class Document:
    """Raw text plus its entity spans and provenance metadata.

    Entities are normalized to start-offset order at construction and must
    be non-overlapping, in-range, and match the text they cover.
    """

    id: str
    text: str
    entities: tuple[EntitySpan, ...] = ()
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("document id must be non-empty")
        ents = tuple(sorted(self.entities, key=lambda e: (e.start, e.end)))
        object.__setattr__(self, "entities", ents)
        prev_end = 0
        for ent in ents:
            if ent.end > len(self.text):
                raise ValueError(
                    f"doc {self.id!r}: span [{ent.start},{ent.end}) exceeds text length {len(self.text)}"
                )
            if ent.start < prev_end:
                raise ValueError(f"doc {self.id!r}: overlapping entities at offset {ent.start}")
            if self.text[ent.start : ent.end] != ent.surface:
                raise ValueError(
                    f"doc {self.id!r}: surface mismatch at [{ent.start},{ent.end}): "
                    f"{self.text[ent.start:ent.end]!r} != {ent.surface!r}"
                )
            prev_end = ent.end

    def with_meta(self, **extra: str) -> "Document":
        meta = dict(self.meta)
        meta.update(extra)
        return Document(id=self.id, text=self.text, entities=self.entities, meta=meta)


@dataclass(frozen=True)
class Corpus:
    """A list of documents sharing one tag schema. Ids are unique."""

    documents: tuple[Document, ...]
    schema: TagSchema = CANONICAL_SCHEMA

    def __post_init__(self) -> None:
        object.__setattr__(self, "documents", tuple(self.documents))
        seen: set[str] = set()
        for doc in self.documents:
            if doc.id in seen:
                raise ValueError(f"duplicate document id {doc.id!r}")
            seen.add(doc.id)
            for ent in doc.entities:
                if ent.tag not in self.schema:
                    raise UnknownTag(
                        f"doc {doc.id!r}: tag {ent.tag!r} not in schema {self.schema.name!r}"
                    )

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)

    def get(self, doc_id: str) -> Document:
        for doc in self.documents:
            if doc.id == doc_id:
                return doc
        raise KeyError(doc_id)


class Token(NamedTuple):
    surface: str
    start: int
    end: int


@dataclass(frozen=True)
class TokenSeq:
    """Ordered, non-overlapping tokens with optional one-label-per-token
    B/I/O labels.

    Label syntax is validated at construction; transition validity (no
    dangling I) is enforced by the strict conversion paths, because the
    lenient repair path must be able to hold an invalid sequence first.
    """

    tokens: tuple[Token, ...]
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))
        prev_end = -1
        for tok in self.tokens:
            if tok.start < prev_end:
                raise ValueError(f"tokens overlap or are unordered at offset {tok.start}")
            if tok.start >= tok.end:
                raise ValueError(f"empty token at offset {tok.start}")
            prev_end = tok.end
        if self.labels is not None:
            labels = tuple(self.labels)
            object.__setattr__(self, "labels", labels)
            if len(labels) != len(self.tokens):
                raise ValueError(f"{len(labels)} labels for {len(self.tokens)} tokens")
            for lab in labels:
                if lab != "O" and not (lab.startswith(("B-", "I-")) and len(lab) > 2):
                    raise ValueError(f"bad label {lab!r}")

    def __len__(self) -> int:
        return len(self.tokens)

    def surfaces(self) -> list[str]:
        return [t.surface for t in self.tokens]

    def check_bio(self) -> None:
        """Raise InvalidBioSequence on any I-tag without a matching B/I before it."""
        if self.labels is None:
            return
        prev = "O"
        for i, lab in enumerate(self.labels):
            if lab.startswith("I-"):
                tag = lab[2:]
                if prev == "O" or prev[2:] != tag:
                    raise InvalidBioSequence(
                        f"dangling {lab} at token {i} (previous label {prev})"
                    )
            prev = lab


def _is_word_char(ch: str) -> bool:
    return ch.isalnum()


def tokenize(text: str) -> TokenSeq:
    """Split text into tokens on whitespace, peeling leading/trailing
    punctuation runs off each chunk as their own tokens.

    Word-internal punctuation is kept, so "120/80" and "25-08-2023" stay
    single tokens while "Dr." splits into "Dr" + ".". The token offsets
    partition the non-whitespace characters exactly, so joining tokens with
    the original gaps reproduces the text.
    """
    tokens: list[Token] = []
    n = len(text)
    i = 0
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        j = i
        while j < n and not text[j].isspace():
            j += 1
        # chunk is text[i:j]
        a = i
        while a < j and not _is_word_char(text[a]):
            a += 1
        if a == j:
            # chunk is all punctuation
            tokens.append(Token(text[i:j], i, j))
        else:
            b = j
            while b > a and not _is_word_char(text[b - 1]):
                b -= 1
            if a > i:
                tokens.append(Token(text[i:a], i, a))
            tokens.append(Token(text[a:b], a, b))
            if b < j:
                tokens.append(Token(text[b:j], b, j))
        i = j
    return TokenSeq(tokens=tuple(tokens))


def first_overlaps(tokens: Sequence[Token],
                   spans: Sequence[EntitySpan]) -> list[Optional[EntitySpan]]:
    """For each token, the first span in `spans` that overlaps it, or None.

    Relies on two orderings the caller establishes: `tokens` sorted by start
    (TokenSeq guarantees it) and `spans` sorted by (start, -len). A span
    with end <= tok.start is then dead for every later token, so one
    pointer skips it for good; the first live span overlaps the token or
    starts at or after its end, as every later span does. Spans may overlap
    each other and cut into tokens. O(len(tokens) + len(spans)).
    """
    out: list[Optional[EntitySpan]] = []
    n = len(spans)
    i = 0
    for tok in tokens:
        while i < n and spans[i].end <= tok.start:
            i += 1
        out.append(spans[i] if i < n and spans[i].start < tok.end else None)
    return out


def spans_to_bio(doc: Document, toks: Optional[TokenSeq] = None) -> TokenSeq:
    """Label each token: B-tag on the token holding an entity's first
    character, I-tag on the remaining overlapped tokens, O elsewhere.

    Raises EntityTokenMisalignment when an entity boundary falls strictly
    inside a token; the caller decides whether to re-tokenize or reject.
    """
    if toks is None:
        toks = tokenize(doc.text)
    labels = ["O"] * len(toks)
    # Document entities are sorted by start and disjoint, which is the
    # (start, -len) order first_overlaps needs
    hits = first_overlaps(toks.tokens, doc.entities)
    for t_i, (tok, ent) in enumerate(zip(toks.tokens, hits)):
        if ent is None:
            continue
        if tok.start < ent.start or ent.end < tok.end:
            raise EntityTokenMisalignment(
                f"doc {doc.id!r}: entity [{ent.start},{ent.end}) splits token "
                f"{tok.surface!r} [{tok.start},{tok.end})",
                doc_id=doc.id,
                start=ent.start,
                end=ent.end,
            )
        prefix = "B" if tok.start == ent.start else "I"
        labels[t_i] = f"{prefix}-{ent.tag}"
    return TokenSeq(tokens=toks.tokens, labels=tuple(labels))


def bio_to_spans(
    toks: TokenSeq,
    text: str,
    strict: bool = True,
    repairs: Optional[list] = None,
) -> list[EntitySpan]:
    """Collapse maximal B/I runs into entity spans over `text`.

    Strict mode raises InvalidBioSequence on a dangling I-tag. Lenient mode
    treats it as the start of a new entity and records the repair (appended
    to `repairs` when given, logged otherwise).
    """
    if toks.labels is None:
        raise ValueError("token sequence has no labels")
    spans: list[EntitySpan] = []
    run_start: Optional[int] = None
    run_end = 0
    run_tag = ""

    def flush() -> None:
        nonlocal run_start
        if run_start is not None:
            spans.append(
                EntitySpan(start=run_start, end=run_end, tag=run_tag, surface=text[run_start:run_end])
            )
            run_start = None

    for i, (tok, lab) in enumerate(zip(toks.tokens, toks.labels)):
        if lab == "O":
            flush()
            continue
        prefix, tag = lab.split("-", 1)
        if prefix == "B":
            flush()
            run_start, run_end, run_tag = tok.start, tok.end, tag
        else:  # I-
            if run_start is not None and run_tag == tag:
                run_end = tok.end
            else:
                msg = f"dangling {lab} at token {i}"
                if strict:
                    raise InvalidBioSequence(msg)
                if repairs is not None:
                    repairs.append(msg)
                else:
                    logger.debug("bio repair: %s", msg)
                flush()
                run_start, run_end, run_tag = tok.start, tok.end, tag
    flush()
    return spans


def build_schema(tags: Iterable[str], name: str = "inferred", other: str = "OTHERS") -> TagSchema:
    """Schema over an observed tag inventory; the catch-all is appended if missing."""
    ordered: list[str] = []
    for t in tags:
        if t not in ordered:
            ordered.append(t)
    if other not in ordered:
        ordered.append(other)
    return TagSchema(name=name, tags=tuple(ordered), other=other)


def token_aligned(doc: Document, toks: Optional[TokenSeq] = None) -> bool:
    """True when every entity boundary coincides with token boundaries."""
    try:
        spans_to_bio(doc, toks)
    except EntityTokenMisalignment:
        return False
    return True
