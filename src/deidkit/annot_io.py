"""Parsers and serializers for the three annotation formats.

Inline XML: a ``<RECORD>`` envelope around free text in which entities are
marked as ``<TYPE='TagName'>surface</TYPE>`` elements. Only this restricted
dialect is supported; there is no escaping, so text containing the literal
markers cannot round-trip and is out of dialect.

CoNLL: two tab-separated columns (token, BIO label), blank line between
documents. Whitespace between tokens is not preserved; documents are
reconstructed with single spaces.

JSONL: one object per line with fields id / text / entities / meta, where
entities carry start, end and tag (the surface is recovered from the text).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, Optional

from .core import (
    CANONICAL_SCHEMA,
    Corpus,
    DeidError,
    Document,
    EntitySpan,
    TagSchema,
    UnknownTag,
    bio_to_spans,
    build_schema,
    is_bio_label,
    spans_to_bio,
    tokenize,
)


class MalformedMarkup(DeidError):
    """Unbalanced, nested, or otherwise broken inline markup."""


class MissingEnvelope(DeidError):
    """The RECORD envelope is required but absent."""


class EmptyEntity(DeidError):
    """A TYPE element with zero-length inner text."""


class BadColumnCount(DeidError):
    """A CoNLL line with a column count other than two."""


class BadRecordLine(DeidError):
    """A JSONL line that cannot be decoded, is not an object, or has a
    missing or mistyped field."""


class InvalidLabel(DeidError):
    """A CoNLL label that is not O, B-tag, or I-tag."""


class MissingLexicon(DeidError):
    """A lexicon path that does not exist or holds no entries."""


RECORD_OPEN = "<RECORD>"
RECORD_CLOSE = "</RECORD>"
ENTITY_ELEMENT = "TYPE"
_OPEN_PREFIX = f"<{ENTITY_ELEMENT}="
_CLOSE_MARKER = f"</{ENTITY_ELEMENT}>"
_MARKER = re.compile(f"{re.escape(_OPEN_PREFIX)}|{re.escape(_CLOSE_MARKER)}")


def _extract_envelope(raw: str, require_envelope: bool) -> str:
    open_at = raw.find(RECORD_OPEN)
    close_at = raw.find(RECORD_CLOSE)
    if open_at == -1 and close_at == -1:
        if require_envelope:
            raise MissingEnvelope(f"no {RECORD_OPEN} envelope found")
        return raw
    if open_at == -1 or close_at == -1 or close_at < open_at:
        raise MalformedMarkup("unbalanced RECORD envelope")
    if raw.find(RECORD_OPEN, open_at + 1) != -1:
        raise MalformedMarkup("more than one RECORD envelope")
    # content outside the envelope (model preamble/epilogue) is dropped
    return raw[open_at + len(RECORD_OPEN) : close_at]


def parse_inline_xml(raw: str, require_envelope: bool = False, doc_id: str = "doc",
                     meta: Optional[dict] = None) -> Document:
    """Strip the markup from `raw` and return the plain-text document with
    one entity span per TYPE element, at post-stripping offsets. Tags are
    kept as written; the corpus that takes the document checks them."""
    body = _extract_envelope(raw, require_envelope)
    n = len(body)
    # Text between markers is copied in chunks; one regex pass finds every
    # marker, so the scan stays O(len(body)).
    out: list[str] = []
    out_len = 0
    entities: list[EntitySpan] = []
    i = 0
    open_start: Optional[int] = None  # output offset where current element began
    open_chunk = 0  # index in `out` of the current element's first chunk
    open_tag = ""
    for m in _MARKER.finditer(body):
        at = m.start()
        if at < i:
            continue  # inside an attribute value the scan has already passed
        if at > i:
            out.append(body[i:at])
            out_len += at - i
        if m.group() == _OPEN_PREFIX:
            if open_start is not None:
                raise MalformedMarkup(f"nested {ENTITY_ELEMENT} element at offset {at}")
            j = m.end()
            if j >= n or body[j] not in "'\"":
                raise MalformedMarkup(f"missing attribute quote at offset {at}")
            k = body.find(body[j], j + 1)
            if k == -1:
                raise MalformedMarkup(f"unterminated attribute at offset {at}")
            if k + 1 >= n or body[k + 1] != ">":
                raise MalformedMarkup(f"missing '>' after attribute at offset {at}")
            if k == j + 1:
                raise MalformedMarkup(f"empty tag name at offset {at}")
            open_start = out_len
            open_chunk = len(out)
            open_tag = body[j + 1 : k]
            i = k + 2
        else:
            if open_start is None:
                raise MalformedMarkup(f"stray {_CLOSE_MARKER} at offset {at}")
            if out_len == open_start:
                raise EmptyEntity(f"empty {ENTITY_ELEMENT} element ending at offset {at}")
            surface = "".join(out[open_chunk:])
            entities.append(EntitySpan(start=open_start, end=out_len, tag=open_tag, surface=surface))
            open_start = None
            i = m.end()
    if open_start is not None:
        raise MalformedMarkup(f"unclosed {ENTITY_ELEMENT} element (tag {open_tag!r})")
    out.append(body[i:])
    return Document(id=doc_id, text="".join(out), entities=tuple(entities), meta=meta or {})


@dataclass(frozen=True)
class FilterPolicy:
    require_record_envelope: bool = True
    min_annotations: int = 3
    length_bounds: tuple[int, int] = (100, 4500)  # tokens
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


def write_inline_xml(doc: Document) -> str:
    """Inverse of parse_inline_xml: wrap the text in the RECORD envelope and
    re-emit each entity as a single-quoted TYPE element."""
    parts: list[str] = [RECORD_OPEN]
    cursor = 0
    for ent in doc.entities:
        parts.append(doc.text[cursor : ent.start])
        parts.append(f"<{ENTITY_ELEMENT}='{ent.tag}'>{ent.surface}</{ENTITY_ELEMENT}>")
        cursor = ent.end
    parts.append(doc.text[cursor:])
    parts.append(RECORD_CLOSE)
    return "".join(parts)


def read_conll(raw: str, schema: Optional[TagSchema] = CANONICAL_SCHEMA) -> Corpus:
    """Parse tab-separated token/label lines into a corpus.

    Documents are rebuilt by joining tokens with single spaces; a label
    sequence that breaks the BIO rules raises InvalidBioSequence."""
    docs: list[Document] = []
    tokens: list[str] = []
    labels: list[str] = []

    def flush() -> None:
        if not tokens:
            return
        text = " ".join(tokens)
        bounds: list[tuple[int, int]] = []
        pos = 0
        for t in tokens:
            bounds.append((pos, pos + len(t)))
            pos += len(t) + 1
        spans = bio_to_spans(bounds, labels, text)
        docs.append(Document(id=f"doc-{len(docs)}", text=text, entities=tuple(spans)))
        tokens.clear()
        labels.clear()

    for lineno, line in enumerate(raw.split("\n"), start=1):
        if not line.strip():
            flush()
            continue
        cols = line.split("\t")
        if len(cols) != 2:
            raise BadColumnCount(f"line {lineno}: expected 2 columns, got {len(cols)}")
        tok, lab = cols
        if not tok:
            raise BadColumnCount(f"line {lineno}: empty token")
        if not is_bio_label(lab):
            raise InvalidLabel(f"line {lineno}: bad label {lab!r}")
        tokens.append(tok)
        labels.append(lab)
    flush()
    return as_corpus(docs, schema)


def write_conll(corpus: Corpus) -> str:
    """Serialize each document as token/label lines. Raw spacing is lost;
    entities must be token-aligned."""
    blocks: list[str] = []
    for doc in corpus:
        bounds = tokenize(doc.text)
        lines = [f"{doc.text[start:end]}\t{lab}"
                 for (start, end), lab in zip(bounds, spans_to_bio(doc, bounds))]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n" if blocks else ""


def document_to_record(doc: Document) -> dict:
    return {
        "id": doc.id,
        "text": doc.text,
        "entities": [{"start": e.start, "end": e.end, "tag": e.tag} for e in doc.entities],
        "meta": {k: doc.meta[k] for k in sorted(doc.meta)},
    }


def has_lone_surrogate(value) -> bool:
    """True when a string in `value`, a decoded JSON value (keys included),
    holds a lone surrogate: JSON can carry one as an escape, but no UTF-8
    file can hold it. Encoding with "ignore" drops exactly those."""
    if isinstance(value, str):
        return not value.isascii() and value.encode("utf-8", "ignore").decode("utf-8") != value
    if isinstance(value, dict):
        value = [*value, *value.values()]
    return isinstance(value, list) and any(map(has_lone_surrogate, value))


def decode_spans(records, text: str) -> tuple:
    """The spans of JSONL entities and backend span replies alike; a fault
    raises KeyError, TypeError or ValueError (SpanOutOfRange for offsets).
    The Document that takes them checks their end and their overlaps."""
    if not isinstance(records, list):  # an object or a string would read as no spans
        raise TypeError("entity records are not a JSON array")
    spans = []
    for rec in records:
        start, end, tag = rec["start"], rec["end"], rec["tag"]
        spans.append(EntitySpan(start, end, tag, text[start:end]))
        if not isinstance(tag, str):
            raise TypeError("entity tag is not a string")
        # json gives bool for true/false, and bool is an int subclass
        if type(start) is not int or type(end) is not int:
            raise TypeError("entity offset is not an integer")
        if not tag.isascii() and has_lone_surrogate(tag):
            raise ValueError("entity tag holds a lone surrogate")
    return tuple(spans)


def document_from_record(rec: dict, lineno: int = 0) -> Document:
    where = f"line {lineno}: " if lineno else ""
    if not isinstance(rec, dict):
        raise BadRecordLine(f"{where}expected a JSON object, got {type(rec).__name__}")
    for field_name in ("id", "text"):
        if field_name not in rec:
            raise BadRecordLine(f"{where}missing field {field_name!r}")
        if not isinstance(rec[field_name], str):
            raise BadRecordLine(f"{where}field {field_name!r} is not a string")
    meta = rec.get("meta", {})
    if not isinstance(meta, dict):
        raise BadRecordLine(f"{where}field 'meta' is not an object")
    for field_name in ("id", "text", "meta"):
        if has_lone_surrogate(rec.get(field_name)):
            raise BadRecordLine(f"{where}field {field_name!r} holds a lone surrogate")
    try:
        entities = decode_spans(rec.get("entities", []), rec["text"])
        return Document(id=rec["id"], text=rec["text"], entities=entities, meta=dict(meta))
    except (KeyError, TypeError, ValueError) as exc:
        raise BadRecordLine(f"{where}{exc}") from exc


def jsonl_documents(raw: str) -> Iterator[tuple[int, Document]]:
    """(line number, document) for each non-blank line; a line that is not
    a valid record raises BadRecordLine naming its number."""
    for lineno, line in enumerate(raw.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise BadRecordLine(f"line {lineno}: {exc}") from exc
        yield lineno, document_from_record(rec, lineno)


def read_jsonl(raw: str, schema: Optional[TagSchema] = CANONICAL_SCHEMA) -> Corpus:
    """One document per line; the schema is settled by as_corpus."""
    return as_corpus([doc for _, doc in jsonl_documents(raw)], schema)


def write_jsonl(corpus: Corpus) -> str:
    lines = [
        json.dumps(document_to_record(doc), ensure_ascii=False, separators=(",", ":"))
        for doc in corpus
    ]
    if not lines:
        return ""
    return "\n".join(lines) + "\n"


def as_corpus(docs: Iterable[Document], schema: Optional[TagSchema]) -> Corpus:
    """The one place a parsed corpus gets its schema: `schema` itself, whose
    tags Corpus checks (UnknownTag), or with schema=None one inferred from
    the tags the documents carry."""
    docs = tuple(docs)
    if schema is None:
        schema = build_schema(e.tag for d in docs for e in d.entities)
    return Corpus(documents=docs, schema=schema)


def read_corpus(path, schema: Optional[TagSchema] = CANONICAL_SCHEMA) -> Corpus:
    """Load a corpus from a .jsonl or .conll file, or a .xml file/directory.
    With schema=None the schema is inferred from the observed tags."""
    p = Path(path)
    if p.is_dir():
        files = sorted(p.glob("*.xml"))
        if not files:
            raise DeidError(f"no .xml files in directory {p}")
        for f in files:
            if has_lone_surrogate(f.stem):
                raise DeidError(f"document id from file name {f.name!r} holds a lone surrogate")
        return as_corpus(
            (parse_inline_xml(f.read_text(encoding="utf-8"), doc_id=f.stem) for f in files),
            schema,
        )
    raw = p.read_text(encoding="utf-8")
    suffix = p.suffix.lower()
    if suffix == ".jsonl":
        return read_jsonl(raw, schema)
    if suffix == ".conll":
        return read_conll(raw, schema)
    if suffix == ".xml":
        return as_corpus([parse_inline_xml(raw, doc_id=p.stem)], schema)
    raise DeidError(f"unsupported corpus format {suffix!r} ({p})")


def write_corpus(corpus: Corpus, path) -> None:
    """Write a corpus to .jsonl/.conll, or to a directory of .xml files."""
    p = Path(path)
    suffix = p.suffix.lower()
    if suffix == ".jsonl":
        p.write_text(write_jsonl(corpus), encoding="utf-8")
    elif suffix == ".conll":
        p.write_text(write_conll(corpus), encoding="utf-8")
    elif suffix == ".xml":
        if len(corpus) != 1:
            raise DeidError(f"cannot write {len(corpus)} documents to a single .xml file")
        p.write_text(write_inline_xml(corpus.documents[0]), encoding="utf-8")
    else:
        # each id names one file inside p ("." and ".." gain ".xml")
        bad = sorted(doc.id for doc in corpus if "/" in doc.id or "\0" in doc.id)
        if bad:
            raise DeidError(f"document ids cannot name a file in {p}: {bad}")
        p.mkdir(parents=True, exist_ok=True)
        for doc in corpus:
            (p / f"{doc.id}.xml").write_text(write_inline_xml(doc), encoding="utf-8")


def load_lexicon(source: str) -> tuple[str, ...]:
    """`source` is either a packaged lexicon filename or a filesystem path,
    read on every call."""
    packaged = resources.files("deidkit.data.lexicons").joinpath(source)
    if "/" not in source and packaged.is_file():
        raw = packaged.read_text(encoding="utf-8")
    else:
        p = Path(source)
        if not p.is_file():
            raise MissingLexicon(f"lexicon not found: {source}")
        raw = p.read_text(encoding="utf-8")
    entries = tuple(
        line.strip() for line in raw.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    )
    if not entries:
        raise MissingLexicon(f"lexicon is empty: {source}")
    return entries
