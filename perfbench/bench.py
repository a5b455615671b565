"""Runs one workload (or all of them) and reports; see run.py for usage.

An operation is one note (short_notes, backend_wire), one source note of a
ladder rung (long_ladder) or one generation attempt (syngen_filter). It
fails when a stage exits non-zero, when the checks in workloads.py find its
outcome wrong, or when the iteration's artifacts differ from the first
iteration's; then the whole iteration counts as failed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter

import numpy

import inputs
import spans
from deidkit import cli
from run import HASH_SEED, ROOT
from workloads import WORKLOADS, Outcome

OUT = Path(__file__).resolve().parent / "out"
RUN_PY = Path(__file__).resolve().parent / "run.py"
SETUP_REPEATS = 3
WIRE_WATCHDOG_S = 60.0  # per wire stage; then the mock is killed
HARD_DEADLINE_S = 170.0
WARM_SCALE = 0.02  # the warm-up pass runs on inputs this much smaller
RUNG_LO, RUNG_HI = min(inputs.LADDER_RUNGS), max(inputs.LADDER_RUNGS)

STAGES = ("map-tags", "recognize", "evaluate", "evaluate-strict", "deidentify", "convert",
          "stats", "ngrams", "weights", "generate", "filter")
SELF_TIMED = ("core.tokenize", "annot_io.parse_inline_xml", "annot_io.read_corpus",
              "annot_io.write_corpus", "annot_io.read_jsonl", "annot_io.document_from_record",
              "annot_io.write_jsonl", "annot_io.write_conll", "tagmap.apply_tagmap",
              "recognize.recognize_rules", "recognize.recognize_external",
              "surrogate.plan_surrogates", "surrogate.apply_surrogates",
              "evalmetrics.evaluate_token",
              "evalmetrics.evaluate_strict", "evalmetrics.label_tokens",
              "corpusstats.summarize", "corpusstats.ngram_profile", "corpusstats.class_weights",
              "syngen.generate", "syngen.persist_raw", "syngen.filter_outputs")
SCALED = ("core.tokenize", "annot_io.parse_inline_xml", "recognize.recognize_rules",
          "evalmetrics.label_tokens", "corpusstats.ngram_profile", "corpusstats.class_weights",
          "surrogate.plan_surrogates")
COUNTS = ("tagmap.unmapped", "recognize.recognize_rules.spans", "recognize.excluded",
          "recognize.retries", "surrogate.bindings", "surrogate.fallbacks")
REJECT_CODES = ("malformed_markup", "no_envelope", "too_few_annotations",
                "length_out_of_bounds", "low_printable_ratio", "high_repetition", "unknown_tag")

END_TO_END = {"wall_s": "s", "docs_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    units = {f"cli.{s}.s": "s" for s in STAGES}
    units.update({f"{m}.self_s": "s" for m in spans.MODULES})
    units.update({f"{n}.self_s": "s" for n in SELF_TIMED})
    units["core.tokenize.calls"] = "count"
    units.update({n: "count" for n in COUNTS})
    for layer in spans.WIRE_OWNERS.values():
        units.update({f"{layer}.wire.request_p50_ms": "ms", f"{layer}.wire.request_p99_ms": "ms",
                      f"{layer}.wire.requests": "count", f"{layer}.wire.slot_busy_share": "ratio"})
    units["surrogate.binding_reuse"] = "ratio"
    units["syngen.accept_ratio"] = "ratio"
    units["syngen.failures"] = "count"
    units.update({f"syngen.rejects.{c}": "count" for c in REJECT_CODES})
    units.update({f"{n}.scale_ratio": "ratio" for n in SCALED})
    units.update({"bench.tracing_overhead_s": "s", "bench.scale_ratio": "ratio",
                  "bench.phi_leak_share": "ratio", "bench.failed_share": "ratio"})
    return units


# --- machine and process ---------------------------------------------------------

def provenance(seed: int, sizes: dict) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "git_commit": git_commit(), "seed": seed,
            "input_sizes": sizes, "hash_seed": HASH_SEED}


def git_commit() -> str:
    """HEAD of the checkout, read without running git; "unknown" outside git."""
    git = ROOT / ".git"
    with contextlib.suppress(OSError):
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def kill_children() -> None:
    """SIGKILL every direct child of this process (the CLI's mock backend)."""
    me = os.getpid()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            with contextlib.suppress(OSError):
                os.kill(int(stat.parent.name), signal.SIGKILL)


@contextlib.contextmanager
def watchdog(seconds: float, fired: list):
    """Kill the backend if the block outlives `seconds`, so a wedged mock
    fails the stage instead of stalling it request timeout by timeout."""
    def fire():
        fired.append(True)
        kill_children()

    timer = threading.Timer(seconds, fire)
    timer.daemon = True
    timer.start()
    try:
        yield
    finally:
        timer.cancel()


def hard_stop() -> None:
    sys.stderr.write(f"perfbench: no result within {HARD_DEADLINE_S:.0f} s, giving up\n")
    kill_children()
    os._exit(3)


# --- set-up -------------------------------------------------------------------

IMPORT_PROBE = ("import deidkit.cli; from deidkit.recognize import default_rulebook; "
                "default_rulebook()")


def import_setup_s() -> float:
    """A fresh interpreter importing the CLI and compiling the rulebook."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True)
    return perf_counter() - t0


def mock_setup_s(argv: list, request: dict) -> float:
    """Spawn the mock and wait for its reply to one request."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    try:
        proc.stdin.write(json.dumps(request) + "\n")
        proc.stdin.flush()
        reply = proc.stdout.readline()
        elapsed = perf_counter() - t0
    finally:
        proc.stdin.close()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if json.loads(reply).get("id") != request["id"]:
        raise RuntimeError(f"mock answered {reply!r}")
    return elapsed


def measure_setup(wl, inp: Path) -> dict:
    imports = [import_setup_s() for _ in range(SETUP_REPEATS)]
    mocks = []
    if wl.backend:
        argv, request = wl.mock_probe(inp)
        mocks = [mock_setup_s(argv, request) for _ in range(SETUP_REPEATS)]
    total = statistics.median(imports) + (statistics.median(mocks) if mocks else 0.0)
    return {"import_s": imports, "mock_s": mocks, "setup_s": total}


# --- one iteration --------------------------------------------------------------

def _uses_mock(argv: list) -> bool:
    return "--backend" in argv and argv[argv.index("--backend") + 1] != "rules"


def cpu_now() -> float:
    """CPU seconds of this process and of its reaped children (the mock)."""
    me, kids = (resource.getrusage(w) for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def run_stage(stage, tracer=None) -> tuple:
    """(exit code, seconds, CPU seconds, captured stdout) of one `cli.main` call."""
    gc.collect()
    buf = io.StringIO()
    if tracer is not None:
        tracer.stage = stage.id
    fired: list = []
    guard = watchdog(WIRE_WATCHDOG_S, fired) if _uses_mock(stage.argv) \
        else contextlib.nullcontext()
    c0, t0 = cpu_now(), perf_counter()
    try:
        with guard, contextlib.redirect_stdout(buf):
            rc = cli.main(stage.argv)
    except Exception:  # a crash is a failed stage, not a failed benchmark
        traceback.print_exc()
        rc = -1
    elapsed, cpu = perf_counter() - t0, cpu_now() - c0
    if fired:
        rc = rc or -2
    return rc, elapsed, cpu, buf.getvalue()


def digests(out: Path, stdout: dict) -> dict:
    """sha256 of every artifact; each raw/ directory is hashed as one."""
    found = {}
    for path in sorted(out.rglob("*")):
        rel = path.relative_to(out)
        if path.is_file() and "raw" not in rel.parts[:-1]:
            found[str(rel)] = hashlib.sha256(path.read_bytes()).hexdigest()
    for raw in sorted(p for p in out.rglob("raw") if p.is_dir()):
        h = hashlib.sha256()
        for f in sorted(raw.rglob("*")):
            if f.is_file():
                h.update(str(f.relative_to(raw)).encode() + b"\0" + f.read_bytes() + b"\0")
        found[str(raw.relative_to(out)) + "/"] = h.hexdigest()
    for stage_id, text in sorted(stdout.items()):
        found[f"stdout:{stage_id}"] = hashlib.sha256(text.encode()).hexdigest()
    return found


def _files(root: Path) -> list:
    return [p for p in sorted(root.rglob("*")) if p.is_file()]


def run_iteration(wl, inp: Path, out: Path, tracer=None) -> dict:
    """One pass over the workload's stages, writing into `out`.

    `out` keeps the files of the previous iteration or run, and the stages
    overwrite them: unlinking thousands of files on ext4 made file creation
    up to 10x slower for the next ~10 s. Every old file is stamped with
    mtime 0 first, so one that no stage rewrote shows up as stale."""
    t_begin = perf_counter()
    wl.prepare_out(out)
    for path in _files(out):
        os.utime(path, (0, 0))
    stage_s, stage_cpu_s, stdout, exit_codes = {}, {}, {}, {}
    for stage in wl.stages(inp, out):
        rc, elapsed, cpu, text = run_stage(stage, tracer)
        stage_s[stage.id], stage_cpu_s[stage.id] = elapsed, cpu
        stdout[stage.id], exit_codes[stage.id] = text, rc
        if rc != 0:
            break
    outcome = Outcome()
    bad = [s for s, rc in exit_codes.items() if rc != 0]
    stale = [str(p.relative_to(out)) for p in _files(out) if p.stat().st_mtime < 1]
    if bad:
        outcome.fail(wl.units(), f"stage {bad[0]} exited {exit_codes[bad[0]]}")
    elif stale:
        outcome.fail(wl.units(), f"{len(stale)} files not rewritten, e.g. {stale[0]}")
    else:
        try:
            outcome = wl.check(inp, out, stdout)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            outcome.fail(wl.units(), f"check could not read the outputs: {exc!r}")
    return {"stage_s": stage_s, "wall_s": sum(stage_s.values()), "stage_cpu_s": stage_cpu_s,
            "cpu_s": sum(stage_cpu_s.values()), "exit_codes": exit_codes,
            "failed": min(outcome.failed, wl.units()), "problems": outcome.problems,
            "facts": outcome.facts, "digests": digests(out, stdout),
            "total_s": perf_counter() - t_begin}


def settle_drift(iterations: list, units: int) -> None:
    """An iteration whose artifacts differ from the first one fails whole."""
    first = iterations[0]["digests"]
    for it in iterations[1:]:
        drift = sorted(k for k in set(first) | set(it["digests"])
                       if first.get(k) != it["digests"].get(k))
        if drift:
            it["failed"] = units
            it["problems"].append(f"artifacts differ from the first iteration: {drift[:5]}")


def warm_up(name: str, seed: int, base: Path) -> None:
    """Fill lazy caches (rulebook, lexicons, regexes, imports) on small inputs."""
    wl = WORKLOADS[name](seed, scale=WARM_SCALE)
    wl.prepare_out(base / "in")
    wl.prepare(base / "in")
    wl.prepare_out(base / "out")
    for stage in wl.stages(base / "in", base / "out"):
        run_stage(stage)


# --- metrics ------------------------------------------------------------------

def leak_share(it: dict):
    if "phi_leak" not in it["facts"]:
        return None
    leaked, eligible = it["facts"]["phi_leak"]
    return leaked / eligible if eligible else 0.0


def rung_sum(by_stage: dict, rung: int) -> float:
    return sum(v for k, v in by_stage.items() if k.startswith(f"r{rung}:"))


def scale_ratio(iterations: list):
    """Wall of the largest rung over wall of the smallest, median over
    iterations."""
    ratios = [rung_sum(it["stage_s"], RUNG_HI) / rung_sum(it["stage_s"], RUNG_LO)
              for it in iterations if rung_sum(it["stage_s"], RUNG_LO) > 0]
    return statistics.median(ratios) if ratios else None


def end_to_end(wl, iterations: list, setup: dict) -> dict:
    """wall_s sums each stage's median over the iterations, so one slow
    stage in one iteration moves it less than a median of totals would."""
    stages = dict.fromkeys(k for it in iterations for k in it["stage_s"])
    wall = sum(statistics.median(it["stage_s"][k] for it in iterations if k in it["stage_s"])
               for k in stages)
    values = {"wall_s": wall, "docs_per_s": wl.units() / wall, "setup_s": setup["setup_s"],
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}


def per_layer(wl, untraced: dict, traced: dict, tracer, failed_share: float) -> dict:
    agg = spans.summarize(tracer)
    values = dict.fromkeys(per_layer_units(), 0.0)
    for stage_id, seconds in traced["stage_s"].items():
        values[f"cli.{stage_id.rpartition(':')[2]}.s"] += seconds
    for name in SELF_TIMED:
        values[f"{name}.self_s"] = agg["self_s"][name]
    for name, seconds in agg["self_s"].items():
        if ".wire." not in name:  # requests overlap; they have their own metrics
            values[f"{name.split('.')[0]}.self_s"] += seconds
    values["core.tokenize.calls"] = agg["calls"]["core.tokenize"]
    c = tracer.counters
    for name in COUNTS:
        values[name] = c[name]
    if c["surrogate.bindings"] + c["surrogate.passthrough"]:
        values["surrogate.binding_reuse"] = c["surrogate.entities"] / (
            c["surrogate.bindings"] + c["surrogate.passthrough"])
    for owner, layer in spans.WIRE_OWNERS.items():
        lat = agg["latencies_ms"].get(layer, [])
        values[f"{layer}.wire.requests"] = len(lat)
        values[f"{layer}.wire.request_p50_ms"] = spans.percentile(lat, 50) or 0.0
        values[f"{layer}.wire.request_p99_ms"] = spans.percentile(lat, 99) or 0.0
        if lat and agg["wall"][owner]:
            values[f"{layer}.wire.slot_busy_share"] = sum(lat) / 1000.0 / (
                tracer.in_flight[layer] * agg["wall"][owner])
    facts = traced["facts"]
    if "attempts" in facts:
        values["syngen.failures"] = facts["failures"]
        values["syngen.accept_ratio"] = facts["accepted"] / facts["attempts"]
        for code, n in facts["reject_counts"].items():
            values[f"syngen.rejects.{code}"] = n
    if wl.name == "long_ladder":
        for name in SCALED:
            layer = {k: v for (k, n), v in agg["wall_by_stage"].items() if n == name}
            if rung_sum(layer, RUNG_LO) > 0:
                values[f"{name}.scale_ratio"] = rung_sum(layer, RUNG_HI) / rung_sum(layer, RUNG_LO)
        values["bench.scale_ratio"] = scale_ratio([untraced])
    values["bench.tracing_overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    values["bench.phi_leak_share"] = leak_share(untraced) or 0.0
    values["bench.failed_share"] = failed_share
    return {k: {"value": values[k], "unit": u} for k, u in per_layer_units().items()}


# --- one workload ---------------------------------------------------------------

def pin_to_one_cpu() -> int:
    """Run this process, and so the mock it spawns, on one CPU.

    The wire is a ping-pong between two processes. Left free, each hand-off
    woke the other vCPU, and on this VM that wake-up took from a few
    microseconds to a couple of milliseconds depending on the host's other
    load: the same 10,000-request stage read 4.7-6.5 s free against
    3.9-4.3 s pinned, minutes apart."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name](seed)
    pinned = pin_to_one_cpu() if wl.backend else None
    base = OUT / f"work_{name}"  # kept between runs; see run_iteration
    inp, out = base / "in", base / "out"
    wl.prepare_out(inp)
    wl.prepare(inp)
    setup = None if trace else measure_setup(wl, inp)
    warm_up(name, seed, base / "warm")

    tracer = None
    if trace:
        spans.self_check()
        iterations = [run_iteration(wl, inp, out)]
        tracer = spans.Tracer()
        tracer.install()
        try:
            iterations.append(run_iteration(wl, inp, out, tracer))
        finally:
            tracer.uninstall()
    else:
        iterations = []
        t_loop = perf_counter()
        while not iterations or \
                perf_counter() - t_loop + iterations[-1]["total_s"] <= seconds:
            iterations.append(run_iteration(wl, inp, out))
    settle_drift(iterations, wl.units())
    attempted = wl.units() * len(iterations)
    failed = sum(it["failed"] for it in iterations)
    if trace:
        metrics = per_layer(wl, iterations[0], iterations[1], tracer, failed / attempted)
    else:
        metrics = end_to_end(wl, iterations, setup)
    report = {
        "workload": name, "why": wl.why, "seconds": seconds, "trace": int(trace),
        "provenance": {**provenance(seed, wl.sizes), "pinned_cpu": pinned},
        "attempted": attempted, "failed": failed, "failed_share": failed / attempted,
        "phi_leak_share": leak_share(iterations[0]),
        "scale_ratio": scale_ratio(iterations) if name == "long_ladder" else None,
        "setup": setup, "metrics": metrics,
        "iterations": [{k: it[k] for k in ("stage_s", "wall_s", "stage_cpu_s", "cpu_s",
                                           "exit_codes", "failed", "problems", "facts")}
                       for it in iterations],
        "digests": iterations[0]["digests"],
    }
    stem = f"{name}_seed{seed}_trace{int(trace)}"
    (OUT / f"BENCH_{stem}.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"spans_{stem}.jsonl.gz")
    return report


def print_report(report: dict) -> None:
    """Every metric by name with its unit; on untraced runs also the
    end-to-end figures that are not timings."""
    name = report["workload"]
    for problem in sorted({p for it in report["iterations"] for p in it["problems"]}):
        print(f"{name} problem: {problem}")
    rows = [(k, m["value"], m["unit"]) for k, m in report["metrics"].items()]
    if not report["trace"]:
        rows += [(k, report[k], "ratio") for k in ("failed_share", "phi_leak_share",
                                                     "scale_ratio")]
    for key, value, unit in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name} {key} {shown} {unit}")


def result_line(report: dict) -> str:
    return json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                       "failed": report["failed"], "metrics": report["metrics"]})


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(RUN_PY), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}")
            status = 1
        elif not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py",
                                 description="deidkit benchmark (see perfbench/run.py)")
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="check the span and percentile arithmetic, then exit")
    args = ap.parse_args(argv)
    if args.self_check:
        spans.self_check()
        spread = inputs.char_check()
        if max(spread.values()) >= 0.01:
            raise AssertionError(f"char totals move by 1% or more between seeds: {spread}")
        print(f"self-check ok; char total spread across seeds {spread}")
        return 0
    if args.workload == "all":
        return run_all(args)
    OUT.mkdir(parents=True, exist_ok=True)
    deadline = threading.Timer(HARD_DEADLINE_S, hard_stop)
    deadline.daemon = True
    deadline.start()
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    deadline.cancel()
    print_report(report)
    print(result_line(report))
    return 0
