import importlib
import subprocess
import sys

import pytest

import deidkit

PUBLIC_NAMES = set("""
AGE_JITTER AGE_PRESERVE AgreementReport CANONICAL_SCHEMA CANONICAL_TAGS COMMERCIAL_SCHEMA
ConfusionMatrix Corpus CorpusSummary DeidError Document ENTITY_STRICT EntitySpan FilterPolicy
GenerationJob MappingAudit MetricsReport NormalizationPolicy PromptTemplate REDACT
RecognizerBackend Rulebook SURROGATE SurrogateConfig SurrogatePlan TOKEN TagMap TagSchema Token
TokenSeq apply_surrogates apply_tagmap bertscore_greedy bio_to_spans build_schema
builtin_canonical_map class_weights cohens_kappa commercial_comparison_map evaluate
filter_outputs generate jaccard_distance load_template ngram_profile normalize_tag
parse_inline_xml plan_surrogates read_conll read_corpus read_jsonl recognize_corpus
recognize_external recognize_rules review_metrics_from_counts run_generation_job
score_generation_quality scrub scrub_corpus shift_date_text spans_to_bio split summarize
tag_distribution tag_weight tokenize write_conll write_corpus write_inline_xml write_jsonl
""".split())


def test_mock_backend_imports_no_other_module():
    # every backend process in tests and benchmarks pays for what this loads
    probe = ("import sys, deidkit.mock_backend; "
             "print(' '.join(m for m in sys.modules if m == 'numpy' or m.startswith('deidkit')))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True).stdout.split()
    assert sorted(out) == ["deidkit", "deidkit.mock_backend"]


def test_lazy_table_resolves_every_public_name():
    assert len(PUBLIC_NAMES) == 70
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
