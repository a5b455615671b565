"""The four benchmark workloads: their CLI stages and their output checks.

Each workload writes its inputs once per run (`prepare`), lists the deidkit
CLI invocations of one iteration (`stages`), and after every iteration
checks what those invocations wrote (`check`). A check returns the number of
operations (notes, requests or attempts) whose outcome was wrong, plus the
facts the report prints. Checks read outputs with plain `json`, not with
deidkit's own readers.
"""

from __future__ import annotations

import json
import shlex
import sys
from dataclasses import dataclass, field
from pathlib import Path

import inputs

REQUEST_TIMEOUT_MS = {"recognize": 5_000, "generate": 10_000}
CONCURRENCY = 2
SURROGATE_SEED, DATE_OFFSET_DAYS = 11, 6
# reject code the filter gives each scripted generation fault; "error"
# never reaches the filter, it is a generation failure
SYNGEN_REJECT = {"malformed": "malformed_markup", "no_envelope": "no_envelope",
                 "short": "length_out_of_bounds"}


@dataclass
class Stage:
    id: str  # "r<notes>:<name>" on long_ladder, else the stage name
    argv: list


@dataclass
class Outcome:
    failed: int = 0
    problems: list = field(default_factory=list)
    facts: dict = field(default_factory=dict)

    def fail(self, n: int, problem: str) -> None:
        self.failed += n
        self.problems.append(problem)


def _records(path: Path) -> list:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip()]


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def mock_command(*args: str) -> str:
    return " ".join(shlex.quote(a) for a in (sys.executable, "-m", "deidkit.mock_backend",
                                             *args))


def leak_counts(gold: list, scrubbed: list) -> tuple[int, int]:
    """(gold PHI surfaces left verbatim in the scrubbed text, all such
    surfaces), over non-OTHERS, non-AGE spans of at least 4 chars."""
    text_by_id = {rec["id"]: rec["text"] for rec in scrubbed}
    leaked = eligible = 0
    for rec in gold:
        text = text_by_id.get(rec["id"], "")
        for ent in rec["entities"]:
            surface = rec["text"][ent["start"]:ent["end"]]
            if ent["tag"] in ("OTHERS", "AGE") or len(surface) < 4:
                continue
            eligible += 1
            leaked += surface in text
    return leaked, eligible


def _check_rule_report(report: dict, n_docs: int, out: Outcome, where: str) -> None:
    if report["predicted"] + len(report["excluded"]) != n_docs:
        out.fail(n_docs, f"{where}: {report['predicted']} predicted + "
                         f"{len(report['excluded'])} excluded != {n_docs} docs")
    elif report["excluded"]:
        out.fail(len(report["excluded"]), f"{where}: rules excluded documents")


def _check_scrub(pred: list, scrubbed: list, out: Outcome, where: str) -> None:
    """Same documents and span counts; text between spans untouched."""
    if [r["id"] for r in pred] != [r["id"] for r in scrubbed]:
        out.fail(len(pred), f"{where}: scrubbed ids differ from predicted ids")
        return
    bad = 0
    for before, after in zip(pred, scrubbed):
        if len(before["entities"]) != len(after["entities"]) or \
                _gaps(before) != _gaps(after):
            bad += 1
    if bad:
        out.fail(bad, f"{where}: {bad} scrubbed documents changed outside their spans")


def _gaps(rec: dict) -> list:
    cuts = [0] + [x for e in rec["entities"] for x in (e["start"], e["end"])] + [len(rec["text"])]
    return [rec["text"][a:b] for a, b in zip(cuts[::2], cuts[1::2])]


class Workload:
    name = ""
    why = ""
    backend = False  # spawns a mock: set-up times the spawn, the run is pinned

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.scale = scale  # below 1 only for the warm-up pass
        self.sizes: dict = {}

    def n(self, full: int) -> int:
        """A size scaled for the warm-up pass."""
        return max(2, round(full * self.scale))

    def prepare(self, inp: Path) -> None:
        raise NotImplementedError

    def prepare_out(self, out: Path) -> None:
        out.mkdir(parents=True, exist_ok=True)

    def stages(self, inp: Path, out: Path) -> list:
        raise NotImplementedError

    def units(self) -> int:
        """Operations one iteration attempts."""
        raise NotImplementedError

    def check(self, inp: Path, out: Path, stdout: dict) -> Outcome:
        raise NotImplementedError

    def mock_probe(self, inp: Path):
        """(mock argv, first request) for timing a spawn, on backend workloads."""
        raise NotImplementedError


class ShortNotes(Workload):
    name = "short_notes"
    why = ("4,000 short notes with source-inventory tags: per-document cost (lexicon "
           "regexes, sha256 surrogate streams, Document validation, JSON) dominates; span "
           "x token quadratics sit idle.")

    def prepare(self, inp):
        self.sizes = inputs.short_notes(self.seed, inp, self.n(inputs.SHORT_NOTES))

    def units(self):
        return self.sizes["docs"]

    def stages(self, inp, out):
        gold, pred = str(out / "gold.jsonl"), str(out / "pred.jsonl")
        return [
            Stage("map-tags", ["map-tags", "--in", str(inp / "source.jsonl"), "--out", gold,
                               "--audit", str(out / "tagmap_audit.json")]),
            Stage("recognize", ["recognize", "--in", gold, "--out", pred, "--backend", "rules",
                                "--report", str(out / "recognize_report.json")]),
            Stage("evaluate", ["evaluate", "--gold", gold, "--pred", pred,
                               "--out", str(out / "eval_token.json")]),
            Stage("evaluate-strict", ["evaluate", "--gold", gold, "--pred", pred,
                                      "--mode", "entity_strict",
                                      "--out", str(out / "eval_strict.json")]),
            Stage("deidentify", ["deidentify", "--in", pred, "--out", str(out / "scrubbed.jsonl"),
                                 "--seed", str(SURROGATE_SEED),
                                 "--date-offset", str(DATE_OFFSET_DAYS)]),
            Stage("convert", ["convert", "--in", gold, "--out", str(out / "gold.conll")]),
            Stage("stats", ["stats", "--in", gold, "--out", str(out / "stats.json")]),
            Stage("ngrams", ["ngrams", "--in", gold, "--n", "2", "--scope", "phi_adjacent",
                             "--out", str(out / "ngrams.csv")]),
            Stage("weights", ["weights", "--in", gold, "--out", str(out / "weights.json")]),
        ]

    def check(self, inp, out, stdout):
        res = Outcome()
        n_docs = self.sizes["docs"]
        gold = _records(out / "gold.jsonl")
        wrong_tags = sum(1 for r in gold for e in r["entities"]
                         if e["tag"] not in inputs.SOURCE_TAGS)
        if len(gold) != n_docs or wrong_tags:
            res.fail(n_docs, f"map-tags: {len(gold)} docs, {wrong_tags} unmapped spans")
        _check_rule_report(_read_json(out / "recognize_report.json"), n_docs, res, "recognize")
        pred, scrubbed = _records(out / "pred.jsonl"), _records(out / "scrubbed.jsonl")
        _check_scrub(pred, scrubbed, res, "deidentify")
        stats = _read_json(out / "stats.json")["summary"]
        if stats["n_summaries"] != n_docs:
            res.fail(n_docs, f"stats: {stats['n_summaries']} summaries for {n_docs} docs")
        res.facts["phi_leak"] = leak_counts(gold, scrubbed)
        return res


class LongLadder(Workload):
    name = "long_ladder"
    why = ("Single notes joined from 50, 100 and 200 notes: the superlinear paths "
           "dominate (label_tokens, ngram_profile, the XML buffer re-join, the rule "
           "overlap scan).")

    def rungs(self):
        return tuple(self.n(k) for k in inputs.LADDER_RUNGS)

    def prepare(self, inp):
        self.sizes = inputs.long_ladder(self.seed, inp, self.rungs())

    def units(self):
        return sum(self.rungs())  # source notes joined into the rungs

    def stages(self, inp, out):
        stages = []
        for k in self.rungs():
            d = out / f"rung{k}"
            gold, pred = str(d / "gold.jsonl"), str(d / "pred.jsonl")
            r = f"r{k}:"
            stages += [
                Stage(r + "convert", ["convert", "--in", str(inp / f"rung{k}"), "--out", gold]),
                Stage(r + "recognize", ["recognize", "--in", gold, "--out", pred,
                                        "--backend", "rules",
                                        "--report", str(d / "recognize_report.json")]),
                Stage(r + "evaluate", ["evaluate", "--gold", gold, "--pred", pred,
                                       "--out", str(d / "eval_token.json")]),
                Stage(r + "deidentify", ["deidentify", "--in", pred,
                                         "--out", str(d / "scrubbed.jsonl"),
                                         "--seed", str(SURROGATE_SEED),
                                         "--date-offset", str(DATE_OFFSET_DAYS)]),
                Stage(r + "ngrams", ["ngrams", "--in", gold, "--n", "2",
                                     "--scope", "phi_adjacent", "--out", str(d / "ngrams.csv")]),
                Stage(r + "weights", ["weights", "--in", gold, "--out", str(d / "weights.json")]),
            ]
        return stages

    def prepare_out(self, out: Path) -> None:
        for k in self.rungs():
            (out / f"rung{k}").mkdir(parents=True, exist_ok=True)

    def check(self, inp, out, stdout):
        res = Outcome()
        leaked = eligible = 0
        for k in self.rungs():
            d, where = out / f"rung{k}", f"rung {k}"
            gold = _records(d / "gold.jsonl")
            want = self.sizes[f"rung{k}"]
            if len(gold) != 1 or len(gold[0]["entities"]) != want["entities"] or \
                    len(gold[0]["text"]) != want["chars"]:
                res.fail(k, f"{where}: converted corpus differs from the generated one")
                continue
            report = _read_json(d / "recognize_report.json")
            if report["predicted"] != 1 or report["excluded"]:
                res.fail(k, f"{where}: rule recognizer did not predict the document")
            pred, scrubbed = _records(d / "pred.jsonl"), _records(d / "scrubbed.jsonl")
            bad = Outcome()
            _check_scrub(pred, scrubbed, bad, where)
            if bad.failed:
                res.fail(k, bad.problems[0])
            a, b = leak_counts(gold, scrubbed)
            leaked, eligible = leaked + a, eligible + b
        res.facts["phi_leak"] = (leaked, eligible)
        return res


class BackendWire(Workload):
    name = "backend_wire"
    why = ("10,000 short notes through a mock recognizer subprocess, 2 in flight, 2% "
           "scripted faults: JSON encoding, pipe round trips and the wire hand-off; no "
           "rule work.")
    backend = True

    def prepare(self, inp):
        self.sizes = inputs.backend_wire(self.seed, inp, self.n(inputs.WIRE_NOTES))
        (inp / "config.json").write_text(json.dumps({"concurrency": CONCURRENCY}) + "\n",
                                         encoding="utf-8")

    def units(self):
        return self.sizes["docs"]

    def _mock_args(self, inp):
        return ["--gold", str(inp / "gold.jsonl"), "--script", str(inp / "script.json")]

    def stages(self, inp, out):
        return [Stage("recognize", [
            "recognize", "--in", str(inp / "gold.jsonl"), "--out", str(out / "pred.jsonl"),
            "--backend", mock_command(*self._mock_args(inp)),
            "--timeout-ms", str(REQUEST_TIMEOUT_MS["recognize"]),
            "--config", str(inp / "config.json"),
            "--report", str(out / "recognize_report.json")])]

    def mock_probe(self, inp):
        first = _records(inp / "gold.jsonl")[0]
        return (["-m", "deidkit.mock_backend", *self._mock_args(inp)],
                {"id": first["id"], "text": first["text"], "schema": []})

    def check(self, inp, out, stdout):
        res = Outcome()
        n_docs = self.sizes["docs"]
        report = _read_json(out / "recognize_report.json")
        excluded = dict(map(tuple, report["excluded"]))
        if report["predicted"] + len(excluded) != n_docs:
            res.fail(n_docs, f"{report['predicted']} predicted + {len(excluded)} "
                             f"excluded != {n_docs} docs")
            return res
        script = _read_json(inp / "script.json")
        reason = {"error": "ProtocolViolation:", "oversize": "SpanOutOfRange:"}
        wrong = set(excluded) ^ set(script)
        wrong |= {i for i in set(excluded) & set(script)
                  if not excluded[i].startswith(reason[script[i]])}
        if wrong:
            res.fail(len(wrong), f"{len(wrong)} ids excluded without a script, or "
                                 "scripted and not excluded with the right reason")
        gold = {r["id"]: r["entities"] for r in _records(inp / "gold.jsonl")}
        pred = _records(out / "pred.jsonl")
        differ = sum(1 for r in pred if r["entities"] != gold.get(r["id"]))
        if differ:
            res.fail(differ, f"{differ} echoed predictions differ from the gold spans")
        res.facts["excluded"] = len(excluded)
        return res


class SyngenFilter(Workload):
    name = "syngen_filter"
    why = ("generate against the mock, then filter: the same wire with large prompts and "
           "replies, one raw file per attempt, XML parse and tag mapping on mid-length "
           "notes.")
    backend = True

    def prepare(self, inp):
        self.sizes = inputs.syngen_filter(self.seed, inp, self.n(inputs.SYNGEN_EXEMPLARS))
        (inp / "config.json").write_text(json.dumps({"concurrency": CONCURRENCY}) + "\n",
                                         encoding="utf-8")

    def units(self):
        return self.sizes["attempts"]

    def _mock_args(self, inp):
        return ["--script", str(inp / "script.json"), "--seed", str(self.seed)]

    def stages(self, inp, out):
        return [
            Stage("generate", [
                "generate", "--template", "B", "--exemplars", str(inp / "exemplars.jsonl"),
                "--backend", mock_command(*self._mock_args(inp)),
                "--fanout", str(inputs.SYNGEN_FANOUT),
                "--timeout-ms", str(REQUEST_TIMEOUT_MS["generate"]),
                "--config", str(inp / "config.json"), "--out-dir", str(out / "generated")]),
            Stage("filter", ["filter", "--raw", str(out / "generated"),
                             "--out-dir", str(out / "filtered")]),
        ]

    def mock_probe(self, inp):
        return (["-m", "deidkit.mock_backend", *self._mock_args(inp)],
                {"id": "probe:0", "prompt": "probe", "temperature": 0.9})

    def check(self, inp, out, stdout):
        res = Outcome()
        attempts = self.sizes["attempts"]
        script = _read_json(inp / "script.json")
        want_rejects = {}
        for behaviour in script.values():
            if behaviour in SYNGEN_REJECT:
                code = SYNGEN_REJECT[behaviour]
                want_rejects[code] = want_rejects.get(code, 0) + 1
        n_errors = sum(1 for b in script.values() if b == "error")
        gen = json.loads(stdout["generate"])
        filt = json.loads(stdout["filter"])
        want_accepted = attempts - n_errors - sum(want_rejects.values())
        if gen["scheduled"] != attempts or gen["failures"] != n_errors:
            res.fail(attempts, f"generate: {gen['scheduled']} scheduled, {gen['failures']} "
                               f"failures; expected {attempts} and {n_errors}")
        for where, summary in (("generate", gen), ("filter", filt)):
            if summary["reject_counts"] != want_rejects or summary["accepted"] != want_accepted:
                res.fail(abs(summary["accepted"] - want_accepted) or 1,
                         f"{where}: reject counts {summary['reject_counts']} or accepted "
                         f"{summary['accepted']} differ from the script")
        rejects = _records(out / "generated" / "rejects.jsonl")
        wrong = sum(1 for r in rejects
                    if SYNGEN_REJECT.get(script.get(r["id"], "ok")) != r["reason"])
        if wrong:
            res.fail(wrong, f"{wrong} rejects whose reason does not match the script")
        if (out / "generated" / "accepted.jsonl").read_bytes() != \
                (out / "filtered" / "accepted.jsonl").read_bytes():
            res.fail(1, "filter --raw accepted a different corpus than generate")
        res.facts.update(accepted=filt["accepted"], attempts=attempts,
                         failures=gen["failures"], reject_counts=filt["reject_counts"])
        return res


WORKLOADS = {w.name: w for w in (ShortNotes, LongLadder, BackendWire, SyngenFilter)}
