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
any check is excluded with a recorded reason and the run continues. Span
replies are decoded by the same code as JSONL entities, so offsets must be
JSON integers; a malformed span or token record excludes only its document.
"""

from __future__ import annotations

import _sre
import json
import os
import re
import threading
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from .annot_io import decode_spans, load_lexicon
from .core import (
    CANONICAL_SCHEMA,
    BackendTimeout,
    Corpus,
    DeidError,
    Document,
    EntitySpan,
    ProtocolViolation,
    SpanOutOfRange,
    bio_to_spans,
    is_bio_label,
)

try:  # the case pairs re.I matches beyond simple lowercasing: s/ſ, i/ı, ...
    from re._casefix import _EXTRA_CASES
except ImportError:  # Python 3.10
    from sre_compile import _ignorecase_fixes as _EXTRA_CASES

BUILTIN_RULES = "rules"
EXTERNAL = "external"


class InvalidPattern(DeidError):
    """A rulebook regex that does not compile."""


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


# groups a lexicon pattern may nest: the trie builder and re.compile recurse
# once per group, so a fixed bound, not the caller's stack, decides
_MAX_NESTING = 100


def _lexicon_pattern(entries, what: str = "lexicon") -> str:
    """The entries as one prefix trie (the regex form of Aho-Corasick) for
    re.I: at each start, the longest whole-phrase entry. Characters re.I
    equates share a node, so the entries that match at one start lie on one
    path, where the longer is tried first. Raises InvalidPattern, naming
    `what`, when the trie would nest more than _MAX_NESTING groups."""
    root: dict = {}
    for entry in entries:
        node = root
        for ch in entry:  # keyed by the least character that re.I equates with ch
            lower = _sre.unicode_tolower(ord(ch))
            node = node.setdefault(min((lower, *_EXTRA_CASES.get(lower, ()))), (ch, {}))[1]
        node[None] = None  # an entry ends here

    def emit(node: dict, depth: int) -> str:  # depth: the groups around this node
        if depth > _MAX_NESTING:
            raise InvalidPattern(f"{what}: entries nest too deep to compile")
        chain = ""
        while len(node) == 1 and None not in node:  # no branch: no group
            ((ch, node),) = node.values()
            chain += re.escape(ch)
        alts = "|".join(re.escape(ch) + emit(child, depth + 1)
                        for ch, child in filter(None, node.values()))
        if None not in node:  # two or more branches
            return f"{chain}(?:{alts})"
        return f"{chain}(?:{alts})?" if alts else chain

    first = "".join(re.escape(ch) for ch, _ in filter(None, root.values()))
    return rf"(?=[{first}])\b{emit(root, 0)}\b"


def load_rulebook(path=None) -> Rulebook:
    """Load a rulebook JSON; default is the packaged baseline. Each lexicon
    becomes one case-insensitive pattern of whole phrases, longest first."""
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
        pattern = _lexicon_pattern(load_lexicon(source), f"{tag} lexicon {source}")
        rules.append(_compile(tag, pattern, "i"))
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
    max_in_flight: int = 4

    def __post_init__(self) -> None:
        if self.kind not in (BUILTIN_RULES, EXTERNAL):
            raise ValueError(f"bad backend kind {self.kind!r}")
        if self.kind == EXTERNAL and not self.endpoint:
            raise ValueError("external backend needs an endpoint")
        # past threading.TIMEOUT_MAX, select and socket timeouts overflow the clock
        if not 0 < self.timeout_ms <= threading.TIMEOUT_MAX * 1000 or self.retry < 0 \
                or self.max_in_flight < 1:
            raise ValueError("bad backend limits")

    def predicted(self, doc: Document, spans) -> Document:
        """`doc` with the spans this backend predicted; its meta names the backend."""
        return Document(id=doc.id, text=doc.text, entities=spans,
                        meta={**doc.meta, "backend": self.kind})


@dataclass(frozen=True)
class Prediction:
    document: Document  # the input document with the predicted entities
    latency_ms: float = 0.0
    doc_id = property(lambda self: self.document.id)
    spans = property(lambda self: self.document.entities)


@dataclass
class ExternalRunResult:
    predictions: list = field(default_factory=list)
    excluded: list = field(default_factory=list)  # (doc_id, reason)
    retries: int = 0


class _Wire:
    """`send(payload)` queues a request; `receive(timeout)` waits at most
    `timeout` seconds (none if it is not positive) and returns the replies
    that arrived, as (request id, reply) pairs. A reply is decoded JSON, or
    the ProtocolViolation that ended one HTTP request."""

    def request(self, payload: dict):
        """One round trip; replies to any other id are dropped."""
        self.send(payload)
        deadline = time.monotonic() + self.timeout_s
        while (remaining := deadline - time.monotonic()) > 0:
            for rid, resp in self.receive(remaining):
                if rid == payload["id"]:
                    if isinstance(resp, ProtocolViolation):
                        raise resp
                    return resp
        raise BackendTimeout(f"no response for {payload['id']!r}")


class _HttpWire(_Wire):
    """urllib blocks, so each request runs on a worker of its own, at most
    `max_in_flight` at once. The HTTP modules load with the first such wire."""

    def __init__(self, endpoint: str, timeout_ms: int, max_in_flight: int) -> None:
        from concurrent.futures import ThreadPoolExecutor
        self.endpoint = endpoint
        self.timeout_s = timeout_ms / 1000.0
        self._pool = ThreadPoolExecutor(max_workers=max_in_flight)
        self._calls: set = set()

    def send(self, payload: dict) -> None:
        self._calls.add(self._pool.submit(self._post, payload))

    def receive(self, timeout: float) -> list:
        from concurrent.futures import FIRST_COMPLETED, wait
        done, self._calls = wait(self._calls, timeout, return_when=FIRST_COMPLETED)
        return [reply for call in done if (reply := call.result()) is not None]

    def _post(self, payload: dict):
        import http.client
        import urllib.request
        body = json.dumps(payload, ensure_ascii=False).encode("utf-8")
        req = urllib.request.Request(self.endpoint, data=body,
                                     headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(req, timeout=self.timeout_s) as resp:
                return payload["id"], json.loads(resp.read().decode("utf-8"))
        except json.JSONDecodeError as exc:
            return payload["id"], ProtocolViolation(f"undecodable response: {exc}")
        except (http.client.HTTPException, OSError) as exc:
            if isinstance(getattr(exc, "reason", exc), TimeoutError):
                return None  # the caller's clock, started at send, decides
            # URLError, or a close or reset mid-reply that urllib leaves unwrapped
            return payload["id"], ProtocolViolation(f"http error: {exc}")

    def close(self) -> None:
        self._pool.shutdown(wait=True, cancel_futures=True)


class _SubprocessWire(_Wire):
    """One long-lived child process, driven from the calling thread through
    non-blocking pipes: `receive` writes queued request lines as stdin takes
    them while it waits for reply lines on stdout, in any order. A line that
    is not a JSON object with a string or integer id is dropped; once stdout
    closes, `receive` raises ProtocolViolation. The process modules load
    with the first such wire."""

    def __init__(self, command: str, timeout_ms: int) -> None:
        import shlex
        import subprocess
        self.timeout_s = timeout_ms / 1000.0
        self.proc = subprocess.Popen(shlex.split(command), stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, bufsize=0)
        for pipe in (self.proc.stdin, self.proc.stdout):
            os.set_blocking(pipe.fileno(), False)
        self._unsent = bytearray()
        self._held = b""  # the start of a reply line whose newline has not come

    def send(self, payload: dict) -> None:
        self._unsent += json.dumps(payload, ensure_ascii=False).encode("utf-8") + b"\n"

    def receive(self, timeout: float) -> list:
        import select
        deadline = time.monotonic() + timeout
        replies: list = []
        while not replies:
            if self._unsent:
                try:  # a non-blocking write takes what fits, None if nothing does
                    del self._unsent[:self.proc.stdin.write(self._unsent) or 0]
                except BrokenPipeError:  # the child stopped reading; stdout says if it lives
                    self._unsent.clear()
            readable, writable, _ = select.select(
                (self.proc.stdout,), (self.proc.stdin,) if self._unsent else (), (),
                max(deadline - time.monotonic(), 0))
            if readable:
                chunk = self.proc.stdout.read(1 << 16)
                if not chunk:
                    raise ProtocolViolation("backend process exited")
                *lines, self._held = (self._held + chunk).split(b"\n")
                for line in lines:
                    try:
                        resp = json.loads(line)
                    except ValueError:  # not JSON, or not UTF-8
                        continue
                    rid = resp.get("id") if isinstance(resp, dict) else None
                    if isinstance(rid, (str, int)):  # a list or object is no request's id
                        replies.append((rid, resp))
            elif not writable:
                break
        return replies

    def close(self) -> None:
        import subprocess
        self.proc.stdin.close()  # unbuffered: nothing left to flush into a dead pipe
        self.proc.terminate()
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def open_wire(backend: RecognizerBackend) -> _Wire:
    if backend.endpoint.startswith(("http://", "https://")):
        return _HttpWire(backend.endpoint, backend.timeout_ms, backend.max_in_flight)
    return _SubprocessWire(backend.endpoint, backend.timeout_ms)


def align_token_predictions(token_records: Sequence[dict], text: str) -> list[EntitySpan]:
    """Convert a token-labeled response into spans. Offsets must be JSON
    integers and match the request text, tokens must be in start order and
    disjoint, and labels B/I/O; BIO transition errors are repaired leniently."""
    if not isinstance(token_records, list):
        raise TypeError("token records are not a JSON array")
    bounds, labels = [], []
    for rec in token_records:
        surface, start, end, label = rec["surface"], rec["start"], rec["end"], rec["label"]
        if not (type(start) is type(end) is int  # as in decode_spans: no bools
                and isinstance(surface, str) and isinstance(label, str)):
            raise TypeError("token offsets must be integers, surface and label strings")
        if not (0 <= start < end <= len(text)) or text[start:end] != surface:
            raise SpanOutOfRange(f"token {surface!r} does not match text at {start}:{end}")
        bounds.append((start, end))
        labels.append(label)
    for (_, prev_end), (start, _) in zip(bounds, bounds[1:]):
        if start < prev_end:
            raise ValueError(f"tokens overlap or are unordered at offset {start}")
    for label in labels:
        if not is_bio_label(label):
            raise ValueError(f"bad label {label!r}")
    return bio_to_spans(bounds, labels, text, strict=False)


def _parse_response(doc: Document, resp: dict, backend: RecognizerBackend) -> Document:
    """The document one reply predicts, its spans decoded as JSONL entities are or from
    BIO tokens: SpanOutOfRange for a span that cannot index the text, else ProtocolViolation."""
    try:
        if "spans" in resp:
            spans = decode_spans(resp["spans"], doc.text)
        elif "tokens" in resp:
            spans = align_token_predictions(resp["tokens"], doc.text)
        else:
            raise ProtocolViolation("response carries neither spans nor tokens")
        predicted = backend.predicted(doc, spans)
    except SpanOutOfRange:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolViolation(f"malformed reply: {type(exc).__name__}: {exc}") from exc
    for span in predicted.entities:
        if span.tag not in CANONICAL_SCHEMA:
            raise ProtocolViolation(
                f"tag {span.tag!r} outside backend schema {CANONICAL_SCHEMA.name!r}")
    return predicted


def _call_each(wire, items: list, payload_of, parse, backend: RecognizerBackend):
    """Send one request per item over `wire`, at most `backend.max_in_flight`
    outstanding at a time, then close the wire. Replies are joined to
    requests by id; a late or unknown reply is dropped. A request times out
    `backend.timeout_ms` after it was queued and is re-sent up to
    `backend.retry` times. An error reply, a reply for another id, or a
    ProtocolViolation or SpanOutOfRange from `parse(item, reply)` excludes
    the item with a reason; a dead backend excludes every item still open.
    Returns (outcomes, retries): one (value, reason, latency_ms) per item in
    input order, value None exactly when reason is set."""
    timeout_s = backend.timeout_ms / 1000.0
    outcomes: list = [None] * len(items)
    # id -> [item index, payload, first sent, deadline, retries left], in send
    # order: deadlines are set when a request is sent, so the first ends first
    waiting: dict = {}
    retries = queued = 0
    try:
        while queued < len(items) or waiting:
            while queued < len(items) and len(waiting) < backend.max_in_flight:
                payload = payload_of(items[queued])
                if payload["id"] in waiting:
                    break  # a repeated id waits until the first is answered
                wire.send(payload)
                now = time.monotonic()
                waiting[payload["id"]] = [queued, payload, now, now + timeout_s, backend.retry]
                queued += 1
            try:
                replies = wire.receive(next(iter(waiting.values()))[3] - time.monotonic())
            except ProtocolViolation as exc:
                outcomes = [o or (None, f"ProtocolViolation: {exc}", 0.0) for o in outcomes]
                break
            now = time.monotonic()
            for rid, resp in replies:
                if rid not in waiting:
                    continue  # late, or never asked for
                index, _, sent, _, _ = waiting.pop(rid)
                try:
                    if isinstance(resp, ProtocolViolation):
                        raise resp
                    if not isinstance(resp, dict) or resp.get("id") != rid:
                        raise ProtocolViolation(f"response id mismatch for {rid!r}")
                    if "error" in resp:
                        raise ProtocolViolation(f"backend_error: {resp['error']}")
                    outcomes[index] = (parse(items[index], resp), None, (now - sent) * 1000.0)
                except (SpanOutOfRange, ProtocolViolation) as exc:
                    outcomes[index] = (None, f"{type(exc).__name__}: {exc}", 0.0)
            for rid in [rid for rid, entry in waiting.items() if entry[3] <= now]:
                index, payload, sent, _, left = waiting.pop(rid)
                if left:
                    retries += 1
                    wire.send(payload)
                    waiting[rid] = [index, payload, sent, now + timeout_s, left - 1]
                else:
                    outcomes[index] = (None, f"BackendTimeout: no response for {rid!r}", 0.0)
    finally:
        wire.close()
    return outcomes, retries


def recognize_external(docs: Union[Corpus, Sequence[Document]],
                       backend: RecognizerBackend) -> ExternalRunResult:
    """One request per document with bounded concurrency; output order is
    input order regardless of completion order. #docs = #predictions +
    #excluded always holds."""
    doc_list = list(docs)
    schema_tags = list(CANONICAL_SCHEMA.tags)
    outcomes, retries = _call_each(
        open_wire(backend), doc_list,
        lambda doc: {"id": doc.id, "text": doc.text, "schema": schema_tags},
        lambda doc, resp: _parse_response(doc, resp, backend),
        backend,
    )
    result = ExternalRunResult(retries=retries)
    for doc, (predicted, reason, latency) in zip(doc_list, outcomes):
        if reason is None:
            result.predictions.append(Prediction(predicted, latency))
        else:
            result.excluded.append((doc.id, reason))
    return result


def recognize_corpus(corpus: Corpus, backend: RecognizerBackend) -> ExternalRunResult:
    """Dispatch on backend kind; the builtin path never excludes a doc."""
    if backend.kind == BUILTIN_RULES:
        result = ExternalRunResult()
        for doc in corpus:
            t0 = time.monotonic()
            spans = recognize_rules(doc.text)
            latency_ms = (time.monotonic() - t0) * 1000.0
            result.predictions.append(Prediction(backend.predicted(doc, spans), latency_ms))
        return result
    return recognize_external(corpus, backend)
