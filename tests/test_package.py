import ast
import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import deidkit

PUBLIC_NAMES = set("""
AGE_JITTER AGE_PRESERVE AgreementReport CANONICAL_SCHEMA CANONICAL_TAGS COMMERCIAL_SCHEMA
ConfusionMatrix Corpus CorpusSummary DeidError Document ENTITY_STRICT EntitySpan FilterPolicy
GenerationJob MappingAudit MetricsReport PromptTemplate REDACT
RecognizerBackend Rulebook SURROGATE SurrogateConfig SurrogatePlan TOKEN TagMap TagSchema
apply_surrogates apply_tagmap bertscore_greedy bio_to_spans build_schema
builtin_canonical_map class_weights cohens_kappa commercial_comparison_map evaluate
filter_outputs generate jaccard_distance load_template ngram_profile normalize_tag
parse_inline_xml plan_surrogates read_conll read_corpus read_jsonl recognize_corpus
recognize_external recognize_rules review_metrics_from_counts run_generation_job
score_generation_quality scrub scrub_corpus shift_date_text spans_to_bio split strip_titles
summarize tag_distribution tag_weight tokenize write_conll write_corpus write_inline_xml write_jsonl
""".split())


def test_mock_backend_imports_no_other_module():
    # every backend process in tests and benchmarks pays for what this loads
    probe = ("import sys, deidkit.mock_backend; "
             "print(' '.join(m for m in sys.modules if m == 'numpy' or m.startswith('deidkit')))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True).stdout.split()
    assert sorted(out) == ["deidkit", "deidkit.mock_backend"]


# modules a subcommand pays for only when it runs the code that needs them
HEAVY = {"numpy", "http.client", "urllib.request", "concurrent.futures", "deidkit.syngen"}


def modules_after(code: str, tmp_path) -> set:
    """The modules a fresh interpreter holds after running `code`."""
    listing = tmp_path / "modules.txt"
    probe = f"{code}\nimport sys\nopen({str(listing)!r}, 'w').write(' '.join(sys.modules))"
    subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True)
    return set(listing.read_text().split())


def test_setup_probe_loads_neither_surrogates_nor_process_modules(tmp_path):
    # the benchmark's set-up probe: the rulebook reads its lexicons through
    # annot_io, and the process modules wait for the first subprocess wire
    loaded = modules_after("import deidkit.cli; from deidkit.recognize import default_rulebook; "
                           "default_rulebook()", tmp_path)
    assert "deidkit.recognize" in loaded
    assert not loaded & {"deidkit.surrogate", "subprocess", "select"}


def test_cli_parser_imports_no_heavy_module(tmp_path):
    loaded = modules_after("import deidkit.cli; deidkit.cli.build_parser()", tmp_path)
    assert "deidkit.cli" in loaded and not loaded & HEAVY


@pytest.mark.parametrize("argv, loads", [
    (["recognize", "--backend", "rules", "--in", "{a}", "--out", "{out}.jsonl"], set()),
    (["evaluate", "--gold", "{a}", "--pred", "{a}", "--out", "{out}.json"], set()),
    (["ngrams", "--in", "{a}", "--n", "2", "--out", "{out}.csv"], set()),
    (["stats", "--in", "{a}", "--out", "{out}.json"], {"numpy"}),
    (["compare", "--a", "{a}", "--b", "{b}", "--bertscore", "--out", "{out}.json"], {"numpy"}),
], ids=["recognize", "evaluate", "ngrams", "stats", "compare"])
def test_subcommand_loads_heavy_modules_only_if_it_runs_them(tmp_path, sample_corpus, argv,
                                                             loads):
    from deidkit.annot_io import write_corpus
    from deidkit.cli import main
    from deidkit.core import Corpus

    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_corpus(sample_corpus, a)
    write_corpus(Corpus(documents=sample_corpus.documents[:1]), b)
    fresh, here = ([arg.format(a=a, b=b, out=tmp_path / name) for arg in argv]
                   for name in ("fresh", "here"))
    loaded = modules_after(f"from deidkit.cli import main; assert main({fresh!r}) == 0", tmp_path)
    assert loaded & HEAVY == loads
    # the same bytes as a run in this process, where numpy was imported up front
    assert main(here) == 0
    assert Path(fresh[-1]).read_bytes() == Path(here[-1]).read_bytes()


def test_deidentify_config_loads_no_backend_or_generation_code(tmp_path, sample_corpus):
    # the config's filter section is checked against FilterPolicy, which annot_io holds
    from deidkit.annot_io import write_corpus

    write_corpus(sample_corpus, tmp_path / "a.jsonl")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"surrogate": {"seed": 3}, "filter": {"min_annotations": 1}}))
    argv = ["deidentify", "--in", str(tmp_path / "a.jsonl"), "--out", str(tmp_path / "o.jsonl"),
            "--config", str(cfg)]
    loaded = modules_after(f"from deidkit.cli import main; assert main({argv!r}) == 0", tmp_path)
    assert {"deidkit.annot_io", "deidkit.surrogate"} <= loaded
    assert not loaded & {"deidkit.syngen", "deidkit.recognize", "deidkit.tagmap"}


def test_filter_loads_neither_stats_nor_metrics(tmp_path):
    # score_generation_quality lives in corpusstats, so syngen needs neither module
    body = ("<TYPE='Patient_Name'>Asha</TYPE> <TYPE='Age'>44</TYPE> <TYPE='Date'>01-02-2024</TYPE>"
            + "".join(f" w{i}" for i in range(97)))
    raw = tmp_path / "raw.jsonl"
    raw.write_text(json.dumps({"id": "e:0", "text": f"<RECORD>{body}</RECORD>"}) + "\n")
    argv = ["filter", "--raw", str(raw), "--out-dir", str(tmp_path / "out")]
    loaded = modules_after(f"from deidkit.cli import main; assert main({argv!r}) == 0", tmp_path)
    assert "deidkit.syngen" in loaded
    assert not loaded & {"deidkit.corpusstats", "deidkit.evalmetrics", "numpy"}
    assert (tmp_path / "out" / "accepted.jsonl").read_text().count("\n") == 1


def test_cli_choices_are_the_module_constants():
    # the parser spells these out so that building it imports none of the modules
    from deidkit import corpusstats, evalmetrics, surrogate
    from deidkit.cli import build_parser

    parser = build_parser()
    for argv, dest, values in (
        (["deidentify", "--in", "x", "--out", "y"], "mode", [surrogate.SURROGATE, surrogate.REDACT]),
        (["evaluate", "--gold", "x", "--pred", "y"], "mode",
         [evalmetrics.TOKEN, evalmetrics.ENTITY_STRICT]),
        (["ngrams", "--in", "x", "--n", "1"], "scope",
         [corpusstats.WHOLE_TEXT, corpusstats.PHI_ADJACENT]),
    ):
        assert getattr(parser.parse_args(argv), dest) == values[0]  # the default
        for value in values:
            assert getattr(parser.parse_args([*argv, f"--{dest}", value]), dest) == value


def test_backend_errors_are_core_classes_under_their_old_names():
    from deidkit import core, recognize

    assert recognize.BackendTimeout is core.BackendTimeout
    assert recognize.ProtocolViolation is core.ProtocolViolation


def test_lazy_table_resolves_every_public_name():
    assert len(PUBLIC_NAMES) == 68
    namespace = {}
    exec("from deidkit import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        module = importlib.import_module(f"deidkit.{deidkit._MODULE_OF[name]}")
        assert getattr(deidkit, name) is getattr(module, name), name
    with pytest.raises(AttributeError, match="nope"):
        deidkit.nope
    from deidkit import cli  # not in the table: falls through to the submodule

    assert cli is importlib.import_module("deidkit.cli")


BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _literal(path: Path, name: str):
    """The value of the literal that `path` assigns to `name` (a module
    constant or an attribute such as self._hooks)."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == name or getattr(t, "attr", None) == name
                for t in node.targets):
            if isinstance(node.value, ast.Dict):  # keys are literals, values are methods
                return [ast.literal_eval(key) for key in node.value.keys]
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} assigns no {name}")


def test_perfbench_traces_functions_that_exist():
    # a renamed function would leave its per-layer metric at zero without an error
    names = {*_literal(BENCH / "bench.py", "SELF_TIMED"), *_literal(BENCH / "bench.py", "SCALED"),
             *_literal(BENCH / "spans.py", "_hooks")}
    assert len(names) > 20
    for name in names:
        module_name, function = name.split(".")
        if module_name == "evalmetrics" and function.startswith("evaluate_"):
            function = "evaluate"  # spans.py names evaluate's spans by mode
        module = importlib.import_module(f"deidkit.{module_name}")
        fn = getattr(module, function, None)
        # the tracer wraps only the functions a module defines itself
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__, name


# functions that no golden argv runs, each with the reason it stays
UNREACHED_BY_GOLDEN_ARGVS = {
    "recognize._Wire.request": "perfbench's Tracer wraps it to time wire requests",
    **{f"recognize._HttpWire.{name}": "the HTTP wire is a supported backend, driven by tests"
       for name in ("__init__", "send", "receive", "_post", "close")},
    "evalmetrics.review_metrics_from_counts": "acceptance criterion 2, P/R/F1 from counts",
    "cli._Parser.error": "argparse calls it on a bad flag, and every golden argv is valid",
}


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """One run of the golden argvs other than --help, under perfbench's
    Tracer and a profiler: (the names of the traced spans, the code objects
    of every function that ran, in this thread or another)."""
    from deidkit import recognize
    from test_golden import ARGVS, MOCK_PATH, run_all

    spec = importlib.util.spec_from_file_location("perfbench_spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    workdir = tmp_path_factory.mktemp("golden")
    ran = {}  # id -> code object: hashing a code object costs more than its id

    def profile(frame, event, arg):
        if event == "call":
            ran[id(frame.f_code)] = frame.f_code

    tracer = spans.Tracer()
    with pytest.MonkeyPatch.context() as mp:
        # as in a fresh CLI process, the first rule run loads the default rulebook
        mp.setattr(recognize, "_default_rulebook", None)
        mp.chdir(workdir)
        mp.setenv("PYTHONPATH", MOCK_PATH)
        mp.delenv("DEIDKIT_BACKEND", raising=False)
        tracer.install()
        threading.setprofile(profile)
        sys.setprofile(profile)
        try:
            run_all(workdir, [argv for argv in ARGVS if "--help" not in argv])
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
            tracer.uninstall()
    return {span.name for span in tracer.spans}, list(ran.values())


def test_every_traced_function_runs_in_a_golden_argv(golden_run):
    # the blind spot of the test above: a function that exists but that no
    # subcommand calls any more also leaves its per-layer metric at zero
    names = {*_literal(BENCH / "bench.py", "SELF_TIMED"), *_literal(BENCH / "bench.py", "SCALED"),
             *_literal(BENCH / "spans.py", "_hooks")}
    traced, _ = golden_run
    assert sorted(names - traced) == []


def _defined_functions(module) -> dict:
    """(file, first line, qualified name) -> "module.qualname" for every def
    in the module's source, nested ones included. A class body's code has no
    locals of its own, and lambdas and comprehensions are no defs."""
    path = module.__file__
    found, codes = {}, [compile(Path(path).read_text(encoding="utf-8"), path, "exec")]
    while codes:
        code = codes.pop()
        codes += [c for c in code.co_consts if inspect.iscode(c)]
        if code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<"):
            found[path, code.co_firstlineno, code.co_qualname] = \
                f"{module.__name__.split('.')[-1]}.{code.co_qualname}"
    return found


def test_every_library_function_runs_in_a_golden_argv(golden_run):
    # a function that only tests call is API with no user: delete it, or say
    # here why it stays
    defined = {}
    for path in sorted(Path(deidkit.__file__).parent.glob("*.py")):
        if path.stem != "mock_backend":  # runs in its own process
            module = importlib.import_module("deidkit" if path.stem == "__init__" else
                                             f"deidkit.{path.stem}")
            defined.update(_defined_functions(module))
    _, ran = golden_run
    for code in ran:
        defined.pop((code.co_filename, code.co_firstlineno, code.co_qualname), None)
    assert sorted(set(defined.values()) - UNREACHED_BY_GOLDEN_ARGVS.keys()) == []
    # an entry that the golden argvs do reach is stale
    assert sorted(UNREACHED_BY_GOLDEN_ARGVS.keys() - set(defined.values())) == []
