"""Span prediction backends.

Two kinds: a built-in regex/lexicon baseline, and a wire adapter for
external recognizers (model servers, cloud de-identification APIs, LLM
shims). The wire protocol is line-delimited JSON over HTTP POST or a
subprocess's standard streams:

    request   {"id": ..., "text": ..., "schema": [tags]}
    response  {"id": ..., "spans": [{"start", "end", "tag"}, ...]}
           or {"id": ..., "tokens": [{"surface", "start", "end", "label"}, ...]}
           or {"id": ..., "error": "..."}

Backend output never bypasses validation: a document whose response fails
any check is excluded with a recorded reason and the run continues.
"""

from __future__ import annotations

import http.client
import json
import re
import shlex
import subprocess
import threading
import time
import urllib.error
import urllib.request
from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from .core import (
    CANONICAL_SCHEMA,
    Corpus,
    DeidError,
    Document,
    EntitySpan,
    InvalidBioSequence,
    TagSchema,
    Token,
    TokenSeq,
    bio_to_spans,
)
from .surrogate import load_lexicon

BUILTIN_RULES = "builtin_rules"
EXTERNAL = "external"


class InvalidPattern(DeidError):
    """A rulebook regex that does not compile."""


class ProtocolViolation(DeidError):
    """A backend response outside the wire protocol."""


class SpanOutOfRange(DeidError):
    """A predicted span that does not fit the request text."""


class BackendTimeout(DeidError):
    """No response within the configured timeout (after retries)."""


# --- builtin rule baseline -------------------------------------------------

@dataclass(frozen=True)
class Rule:
    tag: str
    pattern: re.Pattern

    def matches(self, text: str) -> Iterable[tuple[int, int]]:
        for m in self.pattern.finditer(text):
            group = 1 if self.pattern.groups else 0
            if m.group(group):
                yield m.start(group), m.end(group)


@dataclass(frozen=True)
class Rulebook:
    name: str
    rules: tuple  # of Rule: patterns in declaration order, then lexicons
    priority: tuple  # tag order for tie-breaking


_FLAG_MAP = {"i": re.IGNORECASE, "m": re.MULTILINE, "s": re.DOTALL}


def _compile(tag: str, pattern: str, flags: str = "") -> Rule:
    value = 0
    for ch in flags:
        if ch not in _FLAG_MAP:
            raise InvalidPattern(f"unknown flag {ch!r} on {tag} pattern")
        value |= _FLAG_MAP[ch]
    try:
        return Rule(tag=tag, pattern=re.compile(pattern, value))
    except re.error as exc:
        raise InvalidPattern(f"{tag} pattern {pattern!r}: {exc}") from exc


def load_rulebook(path=None) -> Rulebook:
    """Load a rulebook JSON; default is the packaged baseline. Lexicon
    entries become case-insensitive whole-phrase alternation patterns."""
    if path is None:
        raw = (
            resources.files("deidkit.data").joinpath("rulebook.json")
            .read_text(encoding="utf-8")
        )
    else:
        raw = Path(path).read_text(encoding="utf-8")
    data = json.loads(raw)
    rules = [_compile(p["tag"], p["pattern"], p.get("flags", "")) for p in data["patterns"]]
    for tag, source in data.get("lexicons", {}).items():
        entries = load_lexicon(source)
        alternation = "|".join(re.escape(e) for e in sorted(entries, key=len, reverse=True))
        rules.append(_compile(tag, rf"\b(?:{alternation})\b", "i"))
    return Rulebook(
        name=data.get("name", "rulebook"),
        rules=tuple(rules),
        priority=tuple(data.get("priority", ())),
    )


_default_rulebook: Optional[Rulebook] = None


def default_rulebook() -> Rulebook:
    global _default_rulebook
    if _default_rulebook is None:
        _default_rulebook = load_rulebook()
    return _default_rulebook


def recognize_rules(text: str, rulebook: Optional[Rulebook] = None) -> list[EntitySpan]:
    """Run every rule and resolve overlaps: longest match wins, ties go to
    the earlier start, then to the rulebook's tag priority order."""
    book = rulebook if rulebook is not None else default_rulebook()
    prio = {tag: i for i, tag in enumerate(book.priority)}
    candidates = []
    for rule in book.rules:
        for start, end in rule.matches(text):
            candidates.append((end - start, start, end, rule.tag))
    candidates.sort(key=lambda c: (-c[0], c[1], prio.get(c[3], len(prio))))
    # kept spans stay disjoint and sorted by start, hence also by end: the
    # only one that can overlap [start, end) is the last to start before end
    kept: list[EntitySpan] = []
    for _, start, end, tag in candidates:
        at = bisect_left(kept, end, key=lambda k: k.start)
        if at and kept[at - 1].end > start:
            continue
        kept.insert(at, EntitySpan(start=start, end=end, tag=tag, surface=text[start:end]))
    return kept


# --- external backends -----------------------------------------------------

@dataclass(frozen=True)
class RecognizerBackend:
    kind: str = BUILTIN_RULES
    endpoint: str = ""  # http(s) URL or subprocess command line
    timeout_ms: int = 10_000
    retry: int = 0
    schema: TagSchema = CANONICAL_SCHEMA
    name: str = ""
    max_in_flight: int = 4

    def __post_init__(self) -> None:
        if self.kind not in (BUILTIN_RULES, EXTERNAL):
            raise ValueError(f"bad backend kind {self.kind!r}")
        if self.kind == EXTERNAL and not self.endpoint:
            raise ValueError("external backend needs an endpoint")
        if self.timeout_ms <= 0 or self.retry < 0 or self.max_in_flight < 1:
            raise ValueError("bad backend limits")


@dataclass(frozen=True)
class Prediction:
    doc_id: str
    spans: tuple
    latency_ms: float = 0.0


@dataclass
class ExternalRunResult:
    predictions: list = field(default_factory=list)
    excluded: list = field(default_factory=list)  # (doc_id, reason)
    retries: int = 0

    def as_pred_map(self) -> dict:
        return {p.doc_id: list(p.spans) for p in self.predictions}


class _HttpWire:
    def __init__(self, endpoint: str, timeout_ms: int) -> None:
        self.endpoint = endpoint
        self.timeout_s = timeout_ms / 1000.0

    def request(self, payload: dict) -> dict:
        body = json.dumps(payload, ensure_ascii=False).encode("utf-8")
        req = urllib.request.Request(
            self.endpoint, data=body, headers={"Content-Type": "application/json"}
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout_s) as resp:
                return json.loads(resp.read().decode("utf-8"))
        except TimeoutError as exc:
            raise BackendTimeout(str(exc)) from exc
        except urllib.error.URLError as exc:
            if isinstance(exc.reason, TimeoutError):
                raise BackendTimeout(str(exc)) from exc
            raise ProtocolViolation(f"http error: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ProtocolViolation(f"undecodable response: {exc}") from exc
        except (http.client.HTTPException, OSError) as exc:
            # a connection closed without a reply (RemoteDisconnected) or
            # reset mid-read; urllib wraps neither in URLError
            raise ProtocolViolation(f"http error: {exc}") from exc

    def close(self) -> None:
        pass


class _SubprocessWire:
    """One long-lived child process; requests go down stdin, responses come
    back on stdout in any order and are joined by id. A reply no request is
    waiting for (late, or undecodable) is dropped; once the child's stdout
    closes, every waiting and later request fails at once."""

    def __init__(self, command: str, timeout_ms: int) -> None:
        self.timeout_s = timeout_ms / 1000.0
        self.proc = subprocess.Popen(
            shlex.split(command),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
        )
        self._responses: dict = {}  # id -> reply; None while a request waits
        self._dead = False
        self._cond = threading.Condition()
        self._write_lock = threading.Lock()
        self._reader = threading.Thread(target=self._read_loop, daemon=True)
        self._reader.start()

    def _read_loop(self) -> None:
        try:
            for line in self.proc.stdout:
                try:
                    resp = json.loads(line)
                except json.JSONDecodeError:
                    continue
                rid = resp.get("id") if isinstance(resp, dict) else None
                with self._cond:
                    # a JSON list or object as id is unhashable, never a request id
                    if isinstance(rid, (str, int)) and rid in self._responses:
                        self._responses[rid] = resp
                        self._cond.notify_all()
        finally:
            with self._cond:
                self._dead = True
                self._cond.notify_all()

    def request(self, payload: dict) -> dict:
        rid = payload["id"]
        line = json.dumps(payload, ensure_ascii=False) + "\n"
        with self._cond:
            if self._dead:
                raise ProtocolViolation("backend process exited")
            self._responses[rid] = None
        try:
            with self._write_lock:
                self.proc.stdin.write(line)
                self.proc.stdin.flush()
            deadline = time.monotonic() + self.timeout_s
            with self._cond:
                while self._responses[rid] is None:
                    if self._dead:
                        raise ProtocolViolation("backend process exited")
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise BackendTimeout(f"no response for {rid!r}")
                    self._cond.wait(remaining)
                return self._responses[rid]
        except OSError as exc:
            raise ProtocolViolation("backend process exited") from exc
        finally:
            with self._cond:
                self._responses.pop(rid, None)

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except OSError:
            pass  # the child is gone; its unread input goes with it
        self.proc.terminate()
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(timeout=5)
        self.proc.stdout.close()


def open_wire(backend: RecognizerBackend):
    if backend.endpoint.startswith(("http://", "https://")):
        return _HttpWire(backend.endpoint, backend.timeout_ms)
    return _SubprocessWire(backend.endpoint, backend.timeout_ms)


def align_token_predictions(token_records: Sequence[dict], text: str,
                            strict: bool = False) -> list[EntitySpan]:
    """Convert a token-labeled response into spans. Offsets are validated
    against the request text; BIO errors repair leniently unless strict."""
    toks = []
    labels = []
    for rec in token_records:
        surface, start, end = rec["surface"], rec["start"], rec["end"]
        if not (0 <= start < end <= len(text)) or text[start:end] != surface:
            raise SpanOutOfRange(f"token {surface!r} does not match text at {start}:{end}")
        toks.append(Token(surface, start, end))
        labels.append(rec["label"])
    seq = TokenSeq(tokens=tuple(toks), labels=tuple(labels))
    return bio_to_spans(seq, text, strict=strict)


def _validate_spans(doc: Document, raw_spans: Sequence[dict],
                    schema: TagSchema) -> tuple:
    spans = []
    for rec in raw_spans:
        start, end, tag = rec["start"], rec["end"], rec["tag"]
        if not (isinstance(start, int) and isinstance(end, int)):
            raise ProtocolViolation(f"non-integer offsets in {rec}")
        if not (0 <= start < end <= len(doc.text)):
            raise SpanOutOfRange(f"span {start}:{end} outside text of {len(doc.text)}")
        if tag not in schema:
            raise ProtocolViolation(f"tag {tag!r} outside backend schema {schema.name!r}")
        spans.append(EntitySpan(start=start, end=end, tag=tag, surface=doc.text[start:end]))
    spans.sort(key=lambda s: (s.start, s.end))
    for prev, cur in zip(spans, spans[1:]):
        if cur.start < prev.end:
            raise ProtocolViolation(f"overlapping spans {prev} / {cur}")
    return tuple(spans)


def _parse_response(doc: Document, resp: dict, schema: TagSchema) -> tuple:
    if "spans" in resp:
        return _validate_spans(doc, resp["spans"], schema)
    if "tokens" in resp:
        try:
            spans = align_token_predictions(resp["tokens"], doc.text)
        except (KeyError, TypeError, InvalidBioSequence) as exc:
            raise ProtocolViolation(f"bad token response: {exc}") from exc
        for span in spans:
            if span.tag not in schema:
                raise ProtocolViolation(f"tag {span.tag!r} outside backend schema")
        return tuple(spans)
    raise ProtocolViolation("response carries neither spans nor tokens")


def _call_each(wire, items: list, payload_of, parse, backend: RecognizerBackend):
    """Send one request per item over `wire`, at most `backend.max_in_flight`
    at a time, then close the wire. A timeout is retried `backend.retry`
    times; an error reply, a reply for another id, or a ProtocolViolation or
    SpanOutOfRange from `parse(item, reply)` excludes the item with a reason.
    Returns (outcomes, retries): one (value, reason, latency_ms) per item in
    input order, value None exactly when reason is set."""
    retries = 0
    lock = threading.Lock()

    def run_one(item):
        nonlocal retries
        payload = payload_of(item)
        t0 = time.monotonic()
        last_exc: Optional[Exception] = None
        for attempt in range(backend.retry + 1):
            if attempt:
                with lock:
                    retries += 1
            try:
                resp = wire.request(payload)
                if not isinstance(resp, dict) or resp.get("id") != payload["id"]:
                    raise ProtocolViolation(f"response id mismatch for {payload['id']!r}")
                if "error" in resp:
                    raise ProtocolViolation(f"backend_error: {resp['error']}")
                value = parse(item, resp)
                return value, None, (time.monotonic() - t0) * 1000.0
            except BackendTimeout as exc:
                last_exc = exc
            except (SpanOutOfRange, ProtocolViolation) as exc:
                return None, f"{type(exc).__name__}: {exc}", 0.0
        return None, f"BackendTimeout: {last_exc}", 0.0

    try:
        with ThreadPoolExecutor(max_workers=backend.max_in_flight) as pool:
            outcomes = list(pool.map(run_one, items))
    finally:
        wire.close()
    return outcomes, retries


def recognize_external(docs: Union[Corpus, Sequence[Document]],
                       backend: RecognizerBackend) -> ExternalRunResult:
    """One request per document with bounded concurrency; output order is
    input order regardless of completion order. #docs = #predictions +
    #excluded always holds."""
    doc_list = list(docs)
    schema_tags = list(backend.schema.tags)
    outcomes, retries = _call_each(
        open_wire(backend), doc_list,
        lambda doc: {"id": doc.id, "text": doc.text, "schema": schema_tags},
        lambda doc, resp: _parse_response(doc, resp, backend.schema),
        backend,
    )
    result = ExternalRunResult(retries=retries)
    for doc, (spans, reason, latency) in zip(doc_list, outcomes):
        if reason is None:
            result.predictions.append(Prediction(doc_id=doc.id, spans=spans, latency_ms=latency))
        else:
            result.excluded.append((doc.id, reason))
    return result


def recognize_corpus(corpus: Corpus, backend: RecognizerBackend,
                     rulebook: Optional[Rulebook] = None) -> ExternalRunResult:
    """Dispatch on backend kind; the builtin path never excludes a doc."""
    if backend.kind == BUILTIN_RULES:
        result = ExternalRunResult()
        for doc in corpus:
            t0 = time.monotonic()
            spans = recognize_rules(doc.text, rulebook)
            result.predictions.append(
                Prediction(doc_id=doc.id, spans=tuple(spans),
                           latency_ms=(time.monotonic() - t0) * 1000.0)
            )
        return result
    return recognize_external(corpus, backend)
