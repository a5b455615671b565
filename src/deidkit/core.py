"""Core domain types for annotated clinical text.

Everything downstream (parsers, surrogate replacement, recognizers,
metrics) operates on these types. Offsets are character offsets into the
document text, never byte offsets. All types are immutable after
construction, so they can be shared freely across threads; the operations
in this module are pure functions. A tokenization is a list of (start,
end) offsets from `tokenize`; BIO labels travel beside it as a separate
sequence, one label per token.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field, fields
from types import UnionType
from typing import Callable, Iterable, Optional, Sequence, get_args, get_origin, \
    get_type_hints

logger = logging.getLogger("deidkit.core")


class DeidError(Exception):
    """Base class for all toolkit errors."""


class EntityTokenMisalignment(DeidError):
    """An entity boundary falls strictly inside a token, or an entity holds no token."""


class InvalidBioSequence(DeidError):
    """A label sequence violates the B/I/O transition rules."""


class UnknownTag(DeidError, ValueError):
    """An entity tag outside the schema of the corpus that holds it."""


class SpanOutOfRange(DeidError, ValueError):
    """Span offsets that cannot index the text: negative, empty, or past its end."""


class ProtocolViolation(DeidError):
    """A backend response outside the wire protocol."""


class BackendTimeout(DeidError):
    """No response within the configured timeout (after retries)."""


class ConfigError(DeidError, ValueError):
    """A config, grid or tag-map file with an unknown key, a mistyped value or a missing file."""


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


@dataclass(frozen=True, slots=True, init=False)
class EntitySpan:
    """A labeled character span. `end` is exclusive; surface must equal the
    covered slice of the owning document's text."""

    start: int
    end: int
    tag: str
    surface: str

    def __init__(self, start: int, end: int, tag: str, surface: str) -> None:
        if start < 0 or start >= end:
            raise SpanOutOfRange(f"bad span offsets [{start}, {end})")
        if not surface:
            raise SpanOutOfRange("span surface must be non-empty")
        # a slot's own setter stores a checked value past the frozen __setattr__
        set_start, set_end, set_tag, set_surface = _SPAN_SLOTS
        set_start(self, start)
        set_end(self, end)
        set_tag(self, tag)
        set_surface(self, surface)


_SPAN_SLOTS = tuple(getattr(EntitySpan, f.name).__set__ for f in fields(EntitySpan))


@dataclass(frozen=True, slots=True, init=False)
class Document:
    """Raw text plus its entity spans and provenance metadata.

    Entities are normalized to start-offset order at construction and must
    be non-overlapping, in-range, and match the text they cover.
    """

    id: str
    text: str
    entities: tuple[EntitySpan, ...] = ()
    meta: dict = field(default_factory=dict)

    def __init__(self, id: str, text: str, entities: Iterable[EntitySpan] = (),
                 meta: Optional[dict] = None) -> None:
        if not id:
            raise ValueError("document id must be non-empty")
        ents = tuple(entities)
        if any(a.start >= b.start for a, b in zip(ents, ents[1:])):  # sort only if unsorted
            ents = tuple(sorted(ents, key=lambda e: (e.start, e.end)))
        prev_end = 0
        for ent in ents:
            if ent.end > len(text):
                # also the reason recognize reports for a backend span past the request text
                raise SpanOutOfRange(f"span {ent.start}:{ent.end} outside text of {len(text)}")
            if ent.start < prev_end:
                raise ValueError(f"doc {id!r}: overlapping entities at offset {ent.start}")
            if text[ent.start : ent.end] != ent.surface:
                raise ValueError(
                    f"doc {id!r}: surface mismatch at [{ent.start},{ent.end}): "
                    f"{text[ent.start:ent.end]!r} != {ent.surface!r}"
                )
            prev_end = ent.end
        set_id, set_text, set_entities, set_meta = _DOCUMENT_SLOTS
        set_id(self, id)
        set_text(self, text)
        set_entities(self, ents)
        set_meta(self, {} if meta is None else meta)

    def with_meta(self, **extra: str) -> "Document":
        meta = dict(self.meta)
        meta.update(extra)
        return Document(id=self.id, text=self.text, entities=self.entities, meta=meta)


_DOCUMENT_SLOTS = tuple(getattr(Document, f.name).__set__ for f in fields(Document))


@dataclass(frozen=True)
class Corpus:
    """A list of documents sharing one tag schema. Ids are unique."""

    documents: tuple[Document, ...]
    schema: TagSchema = CANONICAL_SCHEMA

    def __post_init__(self) -> None:
        object.__setattr__(self, "documents", tuple(self.documents))
        tags = {ent.tag for doc in self.documents for ent in doc.entities}
        if len({doc.id for doc in self.documents}) == len(self.documents) and \
                all(tag in self.schema for tag in tags):
            return
        seen: set[str] = set()  # a second pass names the first fault, in order
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


# For str patterns [^\W_] is exactly str.isalnum and \s exactly str.isspace.
# A token runs from an alnum character to the last alnum before the next
# whitespace, or is a maximal run of other non-whitespace characters.
_TOKEN = re.compile(r"[^\W_](?:\S*[^\W_])?|(?:[^\w\s]|_)+")


def tokenize(text: str) -> list[tuple[int, int]]:
    """The (start, end) offsets of the tokens of `text`: whitespace chunks,
    with leading/trailing punctuation runs peeled off as their own tokens.

    Word-internal punctuation is kept, so "120/80" and "25-08-2023" stay
    single tokens while "Dr." splits into "Dr" + ".". `_TOKEN` is the one
    definition of a token. The tokens are non-empty, in start order and
    disjoint; their offsets partition the non-whitespace characters
    exactly, so joining tokens with the original gaps reproduces the text.
    """
    return [m.span() for m in _TOKEN.finditer(text)]


def token_surfaces(text: str) -> list[str]:
    """The surfaces of tokenize(text), text[start:end] for each token."""
    return _TOKEN.findall(text)


def first_overlaps(bounds: Iterable[tuple[int, int]],
                   spans: Sequence[EntitySpan]) -> list[Optional[EntitySpan]]:
    """For each token, given by its (start, end) offsets, the first span in
    `spans` that overlaps it, or None.

    Relies on two orderings the caller establishes: tokens sorted by start
    (tokenize gives that order) and `spans` sorted by (start, -len). A
    span with end <= the token's start is then dead for every later token,
    so one pointer skips it for good; the first live span overlaps the
    token or starts at or after its end, as every later span does. Spans
    may overlap each other and cut into tokens. O(tokens + len(spans)).
    """
    out: list[Optional[EntitySpan]] = []
    n = len(spans)
    i = 0
    for start, end in bounds:
        while i < n and spans[i].end <= start:
            i += 1
        out.append(spans[i] if i < n and spans[i].start < end else None)
    return out


def spans_to_bio(doc: Document, bounds: Sequence[tuple[int, int]]) -> list[str]:
    """One label per token of doc.text, given by its (start, end) offsets
    from tokenize: B-tag on the first token an entity covers, I-tag on the
    rest of its tokens, O elsewhere. An entity edge may sit on whitespace.

    Raises EntityTokenMisalignment when an entity covers whitespace only or
    a boundary falls strictly inside a token; the caller decides whether to
    re-tokenize or reject.
    """
    for ent in doc.entities:
        if ent.surface.isspace():
            raise EntityTokenMisalignment(
                f"doc {doc.id!r}: entity [{ent.start},{ent.end}) covers no token")
    labels = ["O"] * len(bounds)
    # Document entities are sorted by start and disjoint: the (start, -len)
    # order first_overlaps needs, and each entity's tokens are consecutive
    hits = first_overlaps(bounds, doc.entities)
    last = None
    for t_i, ((start, end), ent) in enumerate(zip(bounds, hits)):
        if ent is None:
            continue
        if start < ent.start or ent.end < end:
            raise EntityTokenMisalignment(
                f"doc {doc.id!r}: entity [{ent.start},{ent.end}) splits token "
                f"{doc.text[start:end]!r} [{start},{end})")
        labels[t_i] = f"{'I' if ent is last else 'B'}-{ent.tag}"
        last = ent
    return labels


def is_bio_label(label: str) -> bool:
    """True for "O" and for "B-tag" or "I-tag" with a non-empty tag."""
    return label == "O" or (label[:2] in ("B-", "I-") and len(label) > 2)


def bio_to_spans(bounds: Sequence[tuple[int, int]], labels: Sequence[str], text: str,
                 strict: bool = True) -> list[EntitySpan]:
    """Collapse maximal B/I runs of `labels`, one per token given by its
    (start, end) offsets in `bounds`, into entity spans over `text`. The
    caller vouches for the tokens (in start order, disjoint) and the label
    syntax (is_bio_label); a count mismatch is a ValueError.

    Strict mode raises InvalidBioSequence on a dangling I-tag. Lenient mode
    treats it as the start of a new entity and logs the repair at debug.
    """
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

    for i, ((start, end), lab) in enumerate(zip(bounds, labels, strict=True)):
        if lab == "O":
            flush()
            continue
        prefix, tag = lab.split("-", 1)
        if prefix == "B":
            flush()
            run_start, run_end, run_tag = start, end, tag
        else:  # I-
            if run_start is not None and run_tag == tag:
                run_end = end
            else:
                msg = f"dangling {lab} at token {i}"
                if strict:
                    raise InvalidBioSequence(msg)
                logger.debug("bio repair: %s", msg)
                flush()
                run_start, run_end, run_tag = start, end, tag
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


def _json_check(typ) -> Callable[[object], bool]:
    """A test that a decoded JSON value has type `typ`: bool, int (which a
    bool is not), float (which an int is), str, dict (any object), list[T],
    dict[str, T], tuple[T1, ..., Tn] (an array of n values) or X | Y.
    Raises TypeError for any other type."""
    if typ in (bool, int, float, str, dict):
        return lambda v: type(v) is typ or typ is float and type(v) is int
    origin, args = get_origin(typ), get_args(typ)
    checks = [_json_check(t) for t in args]
    if origin is UnionType:
        return lambda v: any(check(v) for check in checks)
    if origin is list and len(checks) == 1:
        return lambda v: type(v) is list and all(map(checks[0], v))
    if origin is tuple:
        return lambda v: type(v) is list and len(v) == len(checks) and \
            all(check(x) for check, x in zip(checks, v))
    if origin is dict and args[0] is str:
        return lambda v: type(v) is dict and all(map(checks[1], v.values()))
    raise TypeError(f"no JSON check for type {typ!r}")


def read_fields(value, spec, what: str) -> dict:
    """`value`, a decoded JSON object, checked against `spec`: a dataclass,
    whose field types typing.get_type_hints reads, or a field name -> type
    table. Keys may be missing. A non-object, an unknown key or a value of
    the wrong type raises ConfigError naming `what`."""
    if not isinstance(value, dict):
        raise ConfigError(f"{what}: not a JSON object")
    types = spec if isinstance(spec, dict) else get_type_hints(spec)
    checks = {key: _json_check(typ) for key, typ in types.items()}  # every type, every read
    for key, item in value.items():
        if key not in checks:
            raise ConfigError(f"{what}: unknown key {key!r}; allowed: {sorted(checks)}")
        if not checks[key](item):
            name = types[key].__name__ if type(types[key]) is type else types[key]
            raise ConfigError(f"{what}: {key!r} must be {name}, not {item!r}")
    return value
