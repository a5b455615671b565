"""Deterministic wire-protocol backend for tests and demos.

Speaks both request shapes over stdio lines or HTTP POST:

    {"id", "text", "schema"}        -> recognize: spans/tokens/error
    {"id", "prompt", "temperature"} -> generate: synthetic summary text

Behavior per request id comes from a JSON script file {id: behavior};
unlisted ids get the default behavior. Everything is a pure function of
(request, script, seed, gold file), so test runs are reproducible.

Run as: python -m deidkit.mock_backend [--script f.json] [--gold g.jsonl]
        [--seed N] [--http PORT]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import threading
import time

# recognize behaviors: echo | empty | oversize | overlap | token_form |
#   error | drop | drop_once | sleep_once:<ms>
# generate behaviors: ok | no_envelope | malformed | short | error
# either request shape: exit (the process dies on this id, unanswered) |
#   garbage (a non-JSON line instead of the reply)
GARBAGE = "<<not a json reply>>"

_FILLER_SENTENCES = (
    "The patient was admitted with complaints of fever and generalized weakness.",
    "On examination the vitals were stable and the chest was clear.",
    "Routine blood investigations revealed mild anaemia with normal counts.",
    "Intravenous fluids and supportive care were started on the day of admission.",
    "The fever subsided by the third day and oral intake improved steadily.",
    "Ultrasound of the abdomen showed no significant abnormality.",
    "The patient tolerated the prescribed medication without adverse events.",
    "Blood pressure remained within normal limits throughout the stay.",
    "A soft diet was advised along with adequate hydration and rest.",
    "Serial monitoring of temperature showed a steady downward trend.",
    "The wound site was inspected daily and remained clean and dry.",
    "Physiotherapy sessions were initiated before discharge for mobility.",
    "Renal and liver function tests were within acceptable ranges.",
    "The attending team discussed warning signs requiring urgent review.",
    "Discharge medications were explained to the attendants in detail.",
    "A review visit was scheduled in the outpatient department next week.",
    "Compliance with the medication schedule was emphasized at discharge.",
    "No blood transfusion was required during the hospital stay.",
)


def _digest_ints(*parts) -> list[int]:
    h = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return list(h)


def synth_summary(request_id: str, seed: int) -> str:
    """A well-formed annotated summary, unique per (id, seed), roughly 150
    tokens with 8 annotations."""
    d = _digest_ints("gen", seed, request_id)
    first = ("Ramesh", "Sunita", "Vikas", "Anita", "Manoj", "Kiran", "Suresh", "Lata")
    last = ("Yadav", "Patil", "Sharma", "Reddy", "Das", "Mehta", "Nair", "Singh")
    cities = ("Indore", "Nagpur", "Patna", "Surat", "Kanpur", "Thane", "Ranchi", "Rajkot")
    hospitals = (
        "Sunrise Multispeciality Hospital", "Greenfield Medical Centre",
        "Riverside District Hospital", "Lakeview Nursing Home",
    )
    name = f"{first[d[0] % 8]} {last[d[1] % 8]}"
    doctor = f"Dr {first[d[2] % 8]} {last[d[3] % 8]}"
    age = 21 + d[4] % 60
    crno = "".join(str(_digest_ints('crno', seed, request_id)[i] % 10) for i in range(10))
    day, month = 1 + d[5] % 28, 1 + d[6] % 12
    date = f"{day:02d}-{month:02d}-20{20 + d[7] % 6}"
    phone = "9" + "".join(str(_digest_ints('ph', seed, request_id)[i] % 10) for i in range(9))
    city = cities[d[8] % 8]
    hospital = hospitals[d[9] % 4]
    # 12 consecutive sentences from a rotated start: all distinct, ~160
    # tokens total, so default length and repetition filters pass
    body = [_FILLER_SENTENCES[(d[10] + i) % len(_FILLER_SENTENCES)] for i in range(12)]
    return (
        "<RECORD>Patient Name: <TYPE='PATIENT'>" + name + "</TYPE>\n"
        "Age: <TYPE='AGE'>" + str(age) + "</TYPE> years\n"
        "CRNO: <TYPE='ID'>" + crno + "</TYPE>\n"
        "Admission Date: <TYPE='DATE'>" + date + "</TYPE>\n"
        "Hospital: <TYPE='HOSPITAL'>" + hospital + "</TYPE>, "
        "<TYPE='LOCATION'>" + city + "</TYPE>\n"
        "Contact: <TYPE='CONTACT'>" + phone + "</TYPE>\n"
        "Consultant: <TYPE='DOCTOR'>" + doctor + "</TYPE>\n\n"
        + "\n".join(body)
        + "\nThe patient was discharged in a stable condition.</RECORD>"
    )


class MockBackend:
    def __init__(self, script=None, gold=None, seed: int = 0) -> None:
        self.script = dict(script or {})
        self.gold = dict(gold or {})  # doc id -> list of span dicts
        self.seed = seed
        self._seen: dict = {}
        self._lock = threading.Lock()

    def _behavior(self, request_id: str, default: str) -> str:
        return self.script.get(request_id, default)

    def _first_time(self, request_id: str) -> bool:
        with self._lock:
            n = self._seen.get(request_id, 0)
            self._seen[request_id] = n + 1
            return n == 0

    def handle(self, req: dict):
        """Returns the response dict, GARBAGE, or None for a dropped request."""
        request_id = req.get("id")
        scripted = self._behavior(request_id, "")
        if scripted == "exit":
            os._exit(3)  # a crash: no reply, no cleanup, in stdio and HTTP mode
        if scripted == "garbage":
            return GARBAGE
        if "prompt" in req:
            behavior = self._behavior(request_id, "ok")
            if behavior == "error":
                return {"id": request_id, "error": "scripted generation failure"}
            if behavior == "no_envelope":
                return {"id": request_id, "text": "I cannot generate that summary."}
            if behavior == "malformed":
                return {
                    "id": request_id,
                    "text": "<RECORD>Patient <TYPE='PATIENT'>Asha Rao is stable."
                            " Seen on <TYPE='DATE'>01-02-2024</TYPE>.</RECORD>",
                }
            if behavior == "short":
                return {
                    "id": request_id,
                    "text": "<RECORD><TYPE='PATIENT'>Asha Rao</TYPE> aged "
                            "<TYPE='AGE'>44</TYPE> seen <TYPE='DATE'>01-02-2024</TYPE>."
                            "</RECORD>",
                }
            return {"id": request_id, "text": synth_summary(request_id, self.seed)}

        text = req.get("text", "")
        behavior = self._behavior(request_id, "echo" if self.gold else "empty")
        if behavior.startswith("sleep_once:"):
            if self._first_time(request_id):
                time.sleep(int(behavior.split(":", 1)[1]) / 1000.0)
            behavior = "echo" if self.gold else "empty"
        if behavior == "drop" or (behavior == "drop_once" and self._first_time(request_id)):
            return None
        if behavior == "drop_once":
            behavior = "echo" if self.gold else "empty"
        if behavior == "error":
            return {"id": request_id, "error": "scripted recognizer failure"}
        if behavior == "oversize":
            return {"id": request_id,
                    "spans": [{"start": 0, "end": len(text) + 5, "tag": "DATE"}]}
        if behavior == "overlap":
            return {"id": request_id,
                    "spans": [{"start": 0, "end": 4, "tag": "DATE"},
                              {"start": 2, "end": 6, "tag": "ID"}]}
        if behavior == "token_form":
            return {"id": request_id, "tokens": self._token_form(request_id, text)}
        if behavior == "echo":
            return {"id": request_id, "spans": self.gold.get(request_id, [])}
        return {"id": request_id, "spans": []}

    def _token_form(self, request_id: str, text: str) -> list:
        """Gold spans re-expressed as labeled tokens (whitespace split)."""
        spans = self.gold.get(request_id, [])
        records = []
        pos = 0
        for chunk in text.split(" "):
            if chunk:
                start, end = pos, pos + len(chunk)
                label = "O"
                for s in spans:
                    if s["start"] < end and start < s["end"]:
                        prefix = "B" if start <= s["start"] else "I"
                        label = f"{prefix}-{s['tag']}"
                        break
                records.append({"surface": chunk, "start": start, "end": end, "label": label})
            pos += len(chunk) + 1
        return records


def _load_gold(path: str) -> dict:
    gold = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                gold[rec["id"]] = rec.get("entities", [])
    return gold


def _encode(resp) -> str:
    return resp if resp is GARBAGE else json.dumps(resp, ensure_ascii=False)


def serve_stdio(backend: MockBackend) -> None:
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        try:
            req = json.loads(line)
        except json.JSONDecodeError:
            continue
        resp = backend.handle(req)
        if resp is not None:
            sys.stdout.write(_encode(resp) + "\n")
            sys.stdout.flush()


def serve_http(backend: MockBackend, port: int) -> None:
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
            length = int(self.headers.get("Content-Length", 0))
            req = json.loads(self.rfile.read(length).decode("utf-8"))
            resp = backend.handle(req)
            if resp is None:
                return  # the connection closes without a reply
            body = _encode(resp).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args) -> None:
            pass

    ThreadingHTTPServer(("127.0.0.1", port), Handler).serve_forever()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--script", help="JSON file: request id -> behavior")
    parser.add_argument("--gold", help="JSONL corpus for echo/token_form answers")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--http", type=int, metavar="PORT",
                        help="serve HTTP on this port instead of stdio")
    args = parser.parse_args(argv)
    script = None
    if args.script:
        with open(args.script, encoding="utf-8") as fh:
            script = json.load(fh)
    gold = _load_gold(args.gold) if args.gold else None
    backend = MockBackend(script=script, gold=gold, seed=args.seed)
    if args.http:
        serve_http(backend, args.http)
    else:
        serve_stdio(backend)
    return 0


if __name__ == "__main__":
    sys.exit(main())
