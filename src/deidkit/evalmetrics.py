"""Scoring of predicted spans against gold annotations.

Token mode labels every token with the tag of the span covering it (B/I
collapsed) and counts agreement; entity_strict counts exact (start, end, tag)
matches. Aggregates cover the PHI tags only: OTHERS rows and columns appear
in the confusion matrix but never in micro/macro/weighted averages. The
closed-set token accuracy (where micro precision, recall and F1 coincide) is
reported separately.

Macro F1 is the harmonic mean of macro precision and macro recall, not the
mean of per-tag F1 scores. Zero-support tags score 0 and stay in the macro
average.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .core import Corpus, DeidError, EntitySpan, TagSchema, first_overlaps, tokenize

TOKEN = "token"
ENTITY_STRICT = "entity_strict"


class SchemaMismatch(DeidError):
    """Gold and predictions disagree on the tag schema."""


class MissingDocument(DeidError):
    """Gold and predictions do not cover the same document ids."""


class LengthMismatch(DeidError):
    """Paired label sequences of different lengths."""


class EmptyInput(DeidError):
    """An operation that needs at least one item got none."""


@dataclass
class ConfusionMatrix:
    """Square count matrix, rows = gold, cols = predicted."""

    labels: tuple
    counts: list = field(default_factory=list)  # list of row lists

    def __post_init__(self) -> None:
        if not self.counts:
            n = len(self.labels)
            self.counts = [[0] * n for _ in range(n)]
        self._index = {lab: i for i, lab in enumerate(self.labels)}

    def add(self, gold: str, pred: str, n: int = 1) -> None:
        self.counts[self._index[gold]][self._index[pred]] += n

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    def row_sum(self, label: str) -> int:
        return sum(self.counts[self._index[label]])

    def col_sum(self, label: str) -> int:
        j = self._index[label]
        return sum(row[j] for row in self.counts)

    def diagonal(self, label: str) -> int:
        i = self._index[label]
        return self.counts[i][i]


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


@dataclass(frozen=True)
class MetricsReport:
    mode: str
    per_tag: dict  # tag -> {precision, recall, f1, support}
    micro: dict  # {precision, recall, f1}
    macro: dict
    weighted: dict
    accuracy: Optional[float] = None  # token mode, closed set incl. OTHERS
    other_tag: str = "OTHERS"


def report_from_confusion(matrix: ConfusionMatrix, schema: TagSchema,
                          mode: str = TOKEN) -> MetricsReport:
    """Reduce a confusion matrix to per-tag and aggregate scores over the
    schema's PHI tags."""
    per_tag: dict = {}
    tp_sum = fp_sum = fn_sum = 0
    for tag in schema.tags:
        tp = matrix.diagonal(tag)
        fp = matrix.col_sum(tag) - tp
        fn = matrix.row_sum(tag) - tp
        precision, recall, f1 = _prf(tp, fp, fn)
        per_tag[tag] = {"precision": precision, "recall": recall, "f1": f1, "support": tp + fn}
        if tag != schema.other:  # OTHERS is scored per tag but kept out of aggregates
            tp_sum += tp
            fp_sum += fp
            fn_sum += fn

    micro_p, micro_r, micro_f = _prf(tp_sum, fp_sum, fn_sum)
    phi = list(schema.phi_tags)
    macro_p = sum(per_tag[t]["precision"] for t in phi) / len(phi)
    macro_r = sum(per_tag[t]["recall"] for t in phi) / len(phi)
    macro_f = (2 * macro_p * macro_r / (macro_p + macro_r)) if macro_p + macro_r else 0.0
    support = sum(per_tag[t]["support"] for t in phi)
    if support:
        weighted = {
            key: sum(per_tag[t][key] * per_tag[t]["support"] for t in phi) / support
            for key in ("precision", "recall", "f1")
        }
    else:
        weighted = {"precision": 0.0, "recall": 0.0, "f1": 0.0}
    accuracy = None
    if mode == TOKEN and matrix.total:
        accuracy = sum(matrix.diagonal(lab) for lab in matrix.labels) / matrix.total
    return MetricsReport(
        mode=mode,
        per_tag=per_tag,
        micro={"precision": micro_p, "recall": micro_r, "f1": micro_f},
        macro={"precision": macro_p, "recall": macro_r, "f1": macro_f},
        weighted=weighted,
        accuracy=accuracy,
        other_tag=schema.other,
    )


def label_tokens(doc_text: str, spans: Sequence[EntitySpan], other: str,
                 bounds: Optional[Sequence] = None) -> list:
    """Tag per token, given by its (start, end) offsets (default:
    tokenize(doc_text)), by overlap: a token takes the tag of the span
    covering it, earliest-starting (then longest) span first. Tolerates
    spans that are unsorted, overlapping or not aligned to token
    boundaries."""
    bounds = tokenize(doc_text) if bounds is None else bounds
    ordered = sorted(spans, key=lambda s: (s.start, -(s.end - s.start)))
    return [other if span is None else span.tag
            for span in first_overlaps(bounds, ordered)]


def evaluate(gold: Corpus, pred: Mapping[str, Sequence[EntitySpan]],
             mode: str = TOKEN) -> tuple[MetricsReport, ConfusionMatrix]:
    """Score `pred`, document id -> predicted spans, under the gold corpus's schema."""
    if mode not in (TOKEN, ENTITY_STRICT):
        raise ValueError(f"bad mode {mode!r}")
    gold_ids = {doc.id for doc in gold}
    missing = gold_ids - set(pred)
    extra = set(pred) - gold_ids
    if missing or extra:
        raise MissingDocument(
            f"doc ids differ: missing from pred {sorted(missing)}, extra {sorted(extra)}"
        )
    schema = gold.schema
    for doc_id, spans in pred.items():
        for span in spans:
            if span.tag not in schema:
                raise SchemaMismatch(f"doc {doc_id!r}: predicted tag {span.tag!r} not in schema")

    matrix = ConfusionMatrix(labels=tuple(schema.tags))
    if mode == TOKEN:
        pairs: Counter = Counter()
        for doc in gold:
            bounds = tokenize(doc.text)
            pairs.update(zip(label_tokens(doc.text, doc.entities, schema.other, bounds),
                             label_tokens(doc.text, pred[doc.id], schema.other, bounds)))
        for (g, p), n in pairs.items():
            matrix.add(g, p, n)
    else:
        # exact-span matching; misses and spurious spans land in the OTHERS
        # row/column, which acts as the none-of-the-above sink
        for doc in gold:
            gold_keys: dict = {}
            for ent in doc.entities:
                if ent.tag == schema.other:
                    continue
                gold_keys[(ent.start, ent.end, ent.tag)] = ent
            pred_keys = set()
            for span in pred[doc.id]:
                if span.tag == schema.other:
                    continue
                pred_keys.add((span.start, span.end, span.tag))
            for key in gold_keys:
                if key in pred_keys:
                    matrix.add(key[2], key[2])
                else:
                    matrix.add(key[2], schema.other)
            for key in pred_keys:
                if key not in gold_keys:
                    matrix.add(schema.other, key[2])
    return report_from_confusion(matrix, schema, mode), matrix


@dataclass(frozen=True)
class AgreementReport:
    kappa: float
    observed_agreement: float
    expected_agreement: float
    n_items: int
    degenerate: bool = False  # p_o = p_e = 1: kappa is 1.0 by convention


def cohens_kappa(labels_a: Sequence, labels_b: Sequence) -> AgreementReport:
    if len(labels_a) != len(labels_b):
        raise LengthMismatch(f"{len(labels_a)} vs {len(labels_b)} labels")
    n = len(labels_a)
    if n == 0:
        raise EmptyInput("no labels to compare")
    p_o = sum(1 for a, b in zip(labels_a, labels_b) if a == b) / n
    count_a: dict = {}
    count_b: dict = {}
    for a in labels_a:
        count_a[a] = count_a.get(a, 0) + 1
    for b in labels_b:
        count_b[b] = count_b.get(b, 0) + 1
    p_e = sum(count_a[c] * count_b.get(c, 0) for c in count_a) / (n * n)
    if p_e == 1.0:
        return AgreementReport(kappa=1.0, observed_agreement=p_o,
                               expected_agreement=p_e, n_items=n, degenerate=True)
    kappa = (p_o - p_e) / (1 - p_e)
    return AgreementReport(kappa=kappa, observed_agreement=p_o,
                           expected_agreement=p_e, n_items=n)


def review_metrics_from_counts(tp: int, fp: int, fn: int) -> dict:
    precision, recall, f1 = _prf(tp, fp, fn)
    return {"tp": tp, "fp": fp, "fn": fn,
            "precision": precision, "recall": recall, "f1": f1}


def format_report(report: MetricsReport, matrix: Optional[ConfusionMatrix] = None) -> str:
    """Aligned text table: one row per tag, aggregate footer."""
    header = f"{'tag':<12} {'precision':>9} {'recall':>9} {'f1':>9} {'support':>9}"
    lines = [f"mode: {report.mode}", header, "-" * len(header)]
    for tag in (t for t in report.per_tag if t != report.other_tag):
        row = report.per_tag[tag]
        lines.append(
            f"{tag:<12} {row['precision']:>9.4f} {row['recall']:>9.4f}"
            f" {row['f1']:>9.4f} {row['support']:>9d}"
        )
    for name in ("micro", "macro", "weighted"):
        agg = getattr(report, name)
        lines.append(
            f"{name:<12} {agg['precision']:>9.4f} {agg['recall']:>9.4f} {agg['f1']:>9.4f}"
        )
    if report.accuracy is not None:
        lines.append(f"{'accuracy':<12} {report.accuracy:>9.4f}")
    if matrix is not None:
        lines.append("")
        lines.append(format_confusion(matrix))
    return "\n".join(lines)


def format_confusion(matrix: ConfusionMatrix) -> str:
    width = max(8, max(len(str(lab)) for lab in matrix.labels) + 1)
    head = " " * width + "".join(f"{lab:>{width}}" for lab in matrix.labels)
    lines = ["confusion (rows gold, cols pred)", head]
    for lab in matrix.labels:
        i = matrix._index[lab]
        lines.append(f"{lab:>{width}}" + "".join(f"{c:>{width}d}" for c in matrix.counts[i]))
    return "\n".join(lines)


def report_to_dict(report: MetricsReport) -> dict:
    out = {
        "mode": report.mode,
        "per_tag": {t: dict(v) for t, v in report.per_tag.items()},
        "micro": dict(report.micro),
        "macro": dict(report.macro),
        "weighted": dict(report.weighted),
    }
    if report.accuracy is not None:
        out["accuracy"] = report.accuracy
    return out

