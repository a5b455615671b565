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
from pathlib import Path
from typing import Iterable, Optional

from .core import (
    CANONICAL_SCHEMA,
    Corpus,
    DeidError,
    Document,
    EntitySpan,
    TagSchema,
    TokenSeq,
    Token,
    UnknownTag,
    bio_to_spans,
    build_schema,
    spans_to_bio,
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
    """A JSONL line that cannot be decoded or is missing fields."""


class InvalidLabel(DeidError):
    """A CoNLL label that is not O, B-tag, or I-tag."""


RECORD_OPEN = "<RECORD>"
RECORD_CLOSE = "</RECORD>"
ENTITY_ELEMENT = "TYPE"


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


def parse_inline_xml(raw: str, require_envelope: bool = False, doc_id: str = "doc") -> Document:
    """Strip the markup from `raw` and return the plain-text document with
    one entity span per TYPE element, at post-stripping offsets. Tags are
    kept as written; the corpus that takes the document checks them."""
    body = _extract_envelope(raw, require_envelope)
    open_prefix = f"<{ENTITY_ELEMENT}="
    close_marker = f"</{ENTITY_ELEMENT}>"

    # Text between markers is copied in chunks. Each marker search resumes
    # from its last hit and is redone only once the scan has passed that
    # hit, so the whole scan stays O(len(body)).
    n = len(body)

    def find(marker: str, start: int) -> int:
        at = body.find(marker, start)
        return n if at == -1 else at

    out: list[str] = []
    out_len = 0
    entities: list[EntitySpan] = []
    i = 0
    next_open, next_close = find(open_prefix, 0), find(close_marker, 0)
    open_start: Optional[int] = None  # output offset where current element began
    open_chunk = 0  # index in `out` of the current element's first chunk
    open_tag = ""
    while i < n:
        if next_open < i:
            next_open = find(open_prefix, i)
        if next_close < i:
            next_close = find(close_marker, i)
        at = min(next_open, next_close)
        if at > i:
            out.append(body[i:at])
            out_len += at - i
            i = at
            continue
        if i == next_open:
            if open_start is not None:
                raise MalformedMarkup(f"nested {ENTITY_ELEMENT} element at offset {i}")
            j = i + len(open_prefix)
            if j >= n or body[j] not in "'\"":
                raise MalformedMarkup(f"missing attribute quote at offset {i}")
            quote = body[j]
            k = body.find(quote, j + 1)
            if k == -1:
                raise MalformedMarkup(f"unterminated attribute at offset {i}")
            tag = body[j + 1 : k]
            if k + 1 >= n or body[k + 1] != ">":
                raise MalformedMarkup(f"missing '>' after attribute at offset {i}")
            if not tag:
                raise MalformedMarkup(f"empty tag name at offset {i}")
            open_start = out_len
            open_chunk = len(out)
            open_tag = tag
            i = k + 2
        else:
            if open_start is None:
                raise MalformedMarkup(f"stray {close_marker} at offset {i}")
            if out_len == open_start:
                raise EmptyEntity(f"empty {ENTITY_ELEMENT} element ending at offset {i}")
            surface = "".join(out[open_chunk:])
            entities.append(EntitySpan(start=open_start, end=out_len, tag=open_tag, surface=surface))
            open_start = None
            i += len(close_marker)
    if open_start is not None:
        raise MalformedMarkup(f"unclosed {ENTITY_ELEMENT} element (tag {open_tag!r})")
    return Document(id=doc_id, text="".join(out), entities=tuple(entities))


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


def read_conll(raw: str, schema: Optional[TagSchema] = CANONICAL_SCHEMA,
               strict: bool = True) -> Corpus:
    """Parse tab-separated token/label lines into a corpus.

    Documents are rebuilt by joining tokens with single spaces; BIO validity
    is enforced (strict) or repaired (lenient)."""
    docs: list[Document] = []
    tokens: list[str] = []
    labels: list[str] = []

    def flush() -> None:
        if not tokens:
            return
        text = " ".join(tokens)
        toks: list[Token] = []
        pos = 0
        for t in tokens:
            toks.append(Token(t, pos, pos + len(t)))
            pos += len(t) + 1
        seq = TokenSeq(tokens=tuple(toks), labels=tuple(labels))
        if strict:
            seq.check_bio()
        spans = bio_to_spans(seq, text, strict=strict)
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
        if lab != "O" and not (lab.startswith(("B-", "I-")) and len(lab) > 2):
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
        seq = spans_to_bio(doc)
        lines = [f"{tok.surface}\t{lab}" for tok, lab in zip(seq.tokens, seq.labels or ())]
        blocks.append("\n".join(lines))
    if not blocks:
        return ""
    return "\n\n".join(blocks) + "\n"


def document_to_record(doc: Document) -> dict:
    return {
        "id": doc.id,
        "text": doc.text,
        "entities": [{"start": e.start, "end": e.end, "tag": e.tag} for e in doc.entities],
        "meta": {k: doc.meta[k] for k in sorted(doc.meta)},
    }


def document_from_record(rec: dict, lineno: int = 0) -> Document:
    where = f"line {lineno}: " if lineno else ""
    for field_name in ("id", "text"):
        if field_name not in rec:
            raise BadRecordLine(f"{where}missing field {field_name!r}")
    try:
        entities = tuple(
            EntitySpan(
                start=e["start"],
                end=e["end"],
                tag=e["tag"],
                surface=rec["text"][e["start"] : e["end"]],
            )
            for e in rec.get("entities", [])
        )
        return Document(
            id=rec["id"], text=rec["text"], entities=entities, meta=dict(rec.get("meta", {}))
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise BadRecordLine(f"{where}{exc}") from exc


def read_jsonl(raw: str, schema: Optional[TagSchema] = CANONICAL_SCHEMA) -> Corpus:
    """One document per line; the schema is settled by as_corpus."""
    docs: list[Document] = []
    for lineno, line in enumerate(raw.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise BadRecordLine(f"line {lineno}: {exc}") from exc
        docs.append(document_from_record(rec, lineno))
    return as_corpus(docs, schema)


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
        return as_corpus(
            (parse_inline_xml(f.read_text(encoding="utf-8"), doc_id=f.stem)
             for f in sorted(p.glob("*.xml"))),
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
        p.mkdir(parents=True, exist_ok=True)
        for doc in corpus:
            (p / f"{doc.id}.xml").write_text(write_inline_xml(doc), encoding="utf-8")
