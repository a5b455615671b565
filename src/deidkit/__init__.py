"""Toolkit for de-identifying clinical free text.

Corpus model and format round-trips, tag-schema mapping, deterministic
surrogate generation, rule and service-backed PHI recognition, evaluation
metrics, corpus statistics, and synthetic summary generation.

Public names load on first use (PEP 562), so importing one submodule, such
as the mock backend, does not import the others or numpy.
"""

import importlib

__version__ = "0.1.0"

_MODULE_OF = {name: module for module, names in {
    "core": "CANONICAL_SCHEMA CANONICAL_TAGS Corpus DeidError Document EntitySpan TagSchema "
            "bio_to_spans build_schema spans_to_bio tokenize",
    "annot_io": "FilterPolicy parse_inline_xml read_conll read_corpus read_jsonl write_conll "
                "write_corpus write_inline_xml write_jsonl",
    "tagmap": "COMMERCIAL_SCHEMA MappingAudit TagMap apply_tagmap builtin_canonical_map "
              "commercial_comparison_map normalize_tag strip_titles tag_distribution",
    "surrogate": "AGE_JITTER AGE_PRESERVE REDACT SURROGATE SurrogateConfig SurrogatePlan "
                 "apply_surrogates plan_surrogates scrub scrub_corpus shift_date_text",
    "recognize": "RecognizerBackend Rulebook recognize_corpus recognize_external recognize_rules",
    "evalmetrics": "ENTITY_STRICT TOKEN AgreementReport ConfusionMatrix MetricsReport "
                   "cohens_kappa evaluate review_metrics_from_counts",
    "corpusstats": "CorpusSummary bertscore_greedy class_weights jaccard_distance ngram_profile "
                   "score_generation_quality split summarize tag_weight",
    "syngen": "GenerationJob PromptTemplate filter_outputs generate load_template "
              "run_generation_job",
}.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
