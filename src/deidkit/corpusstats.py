"""Corpus profiling and cross-corpus comparison.

Summary statistics, n-gram profiles (whole-text or near-PHI), vocabulary
Jaccard distance, greedy-matching BERTScore and the generation-quality
score built on it, class weights for imbalanced token classification, and
deterministic train/val/test splits.

Conventions that matter downstream: token counts use the core tokenizer;
vocabularies are case-sensitive; n-gram tokens are lowercased with
punctuation stripped inside the token ("mg/dl" counts as "mgdl"); class
weights use the natural logarithm. numpy is imported by the functions that
use it (summarize, bertscore_greedy, hash_embedding), not by this module.
"""

from __future__ import annotations

import hashlib
import logging
import math
import random
import re
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import Corpus, DeidError, first_overlaps, token_surfaces, tokenize
from .evalmetrics import label_tokens

logger = logging.getLogger("deidkit.corpusstats")

WHOLE_TEXT = "whole_text"
PHI_ADJACENT = "phi_adjacent"


class BothEmpty(DeidError):
    """Jaccard distance over two empty vocabularies is undefined."""


class DimensionMismatch(DeidError):
    """Embedding sides with different vector widths."""


class EmptySide(DeidError):
    """An embedding comparison side with no vectors."""


class EmptyCorpus(DeidError):
    """An operation that needs a non-empty corpus got an empty one."""


class RatioMismatch(DeidError):
    """Split ratios inconsistent with the corpus size."""


# --- summary ---------------------------------------------------------------

@dataclass(frozen=True)
class CorpusSummary:
    n_summaries: int
    n_tokens_total: int
    n_unique_tokens: int
    max_len: int
    min_len: int
    avg_len: float
    n_original_tags: int
    char_counts: int
    word_length: dict  # mean, se, median, min, max over per-word char counts


def summarize(corpus: Corpus) -> CorpusSummary:
    import numpy as np
    lengths: list[int] = []
    vocab: set = set()
    tags: set = set()
    chars = 0
    word_lens: list[int] = []
    for doc in corpus:
        surfaces = token_surfaces(doc.text)
        lengths.append(len(surfaces))
        chars += len(doc.text)
        vocab.update(surfaces)
        # a token holds an alnum character only if it starts with one
        word_lens.extend(len(s) for s in surfaces if s[0].isalnum())
        for ent in doc.entities:
            tags.add(ent.tag)
    if word_lens:
        arr = np.asarray(word_lens, dtype=float)
        se = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
        word_length = {
            "mean": float(arr.mean()), "se": se, "median": float(np.median(arr)),
            "min": int(arr.min()), "max": int(arr.max()),
        }
    else:
        word_length = {"mean": 0.0, "se": 0.0, "median": 0.0, "min": 0, "max": 0}
    total = sum(lengths)
    return CorpusSummary(
        n_summaries=len(corpus),
        n_tokens_total=total,
        n_unique_tokens=len(vocab),
        max_len=max(lengths) if lengths else 0,
        min_len=min(lengths) if lengths else 0,
        avg_len=total / len(lengths) if lengths else 0.0,
        n_original_tags=len(tags),
        char_counts=chars,
        word_length=word_length,
    )


# --- n-grams ---------------------------------------------------------------

@dataclass(frozen=True)
class NGramProfile:
    n: int
    scope: str
    k: int
    top: tuple  # ((ngram, count), ...) counts descending, ties alphabetical


_NOT_ALNUM = re.compile(r"[\W_]+")


def _clean_token(surface: str) -> str:
    return _NOT_ALNUM.sub("", surface.lower())


def ngram_profile(corpus: Corpus, n: int, k: int = 10, scope: str = WHOLE_TEXT,
                  stoplist: Optional[set] = None, window: int = 3) -> NGramProfile:
    """Top-k n-grams. phi_adjacent keeps only windows within `window` tokens
    of a non-OTHERS entity."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 0:
        raise ValueError("k must be >= 0")
    if window < 0:
        raise ValueError("window must be >= 0")
    if scope not in (WHOLE_TEXT, PHI_ADJACENT):
        raise ValueError(f"bad scope {scope!r}")
    stop = {s.lower() for s in (stoplist or ())}
    other = corpus.schema.other
    counts: dict = {}
    kept: dict = {}  # surface -> its cleaned form, or "" when it is dropped
    for doc in corpus:
        text = doc.text
        bounds = tokenize(text)
        # Document entities are sorted by start and disjoint, so this subset
        # is already in the (start, -len) order first_overlaps needs
        phi = [ent for ent in doc.entities if ent.tag != other]
        cleaned: list[str] = []
        near: list[bool] = []
        for (start, end), hit in zip(bounds, first_overlaps(bounds, phi)):
            surface = text[start:end]
            c = kept.get(surface)
            if c is None:
                c = _clean_token(surface)
                c = kept[surface] = "" if c in stop else c
            if c:
                cleaned.append(c)
                near.append(hit is not None)
        if scope == PHI_ADJACENT:
            near = _dilate(near, window)
        for i in range(len(cleaned) - n + 1):
            if scope == PHI_ADJACENT and not any(near[i : i + n]):
                continue
            gram = " ".join(cleaned[i : i + n])
            counts[gram] = counts.get(gram, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    return NGramProfile(n=n, scope=scope, k=k, top=tuple(ranked))


def _dilate(flags: list, window: int) -> list:
    """True positions spread `window` steps in both directions."""
    n = len(flags)
    out = [False] * n
    for i, flag in enumerate(flags):
        if flag:
            lo = max(0, i - window)
            hi = min(n, i + window + 1)
            for j in range(lo, hi):
                out[j] = True
    return out


# --- vocabulary distance and BERTScore -------------------------------------

def vocabulary(corpus: Corpus) -> set:
    vocab: set = set()
    for doc in corpus:
        vocab.update(token_surfaces(doc.text))
    return vocab


def jaccard_distance(a: Corpus, b: Corpus) -> float:
    va, vb = vocabulary(a), vocabulary(b)
    union = va | vb
    if not union:
        raise BothEmpty("both vocabularies are empty")
    return 1.0 - len(va & vb) / len(union)


def bertscore_greedy(cand: Sequence, ref: Sequence) -> dict:
    """Greedy max-cosine matching, no idf weighting, no baseline rescaling.

    P averages, over candidate vectors, the best cosine against any
    reference vector; R is symmetric; F1 is their harmonic mean. A vector
    bitwise-identical to one on the other side scores exactly 1, which keeps
    self-comparison at (1, 1, 1) despite rounding."""
    import numpy as np
    c = np.asarray(cand, dtype=float)
    r = np.asarray(ref, dtype=float)
    if c.ndim != 2 or c.shape[0] == 0 or r.ndim != 2 or r.shape[0] == 0:
        raise EmptySide("both sides need at least one vector")
    if c.shape[1] != r.shape[1]:
        raise DimensionMismatch(f"dim {c.shape[1]} vs {r.shape[1]}")
    unit = [np.zeros_like(m) for m in (c, r)]  # rows of length 1; a zero row stays 0
    for m, out in zip((c, r), unit):
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        np.divide(m, norms, out=out, where=norms > 0)
    sim = np.clip(unit[0] @ unit[1].T, -1.0, 1.0)
    ref_rows = {row.tobytes() for row in r}
    cand_rows = {row.tobytes() for row in c}
    p_scores = [
        1.0 if c[i].tobytes() in ref_rows else float(sim[i].max())
        for i in range(c.shape[0])
    ]
    r_scores = [
        1.0 if r[j].tobytes() in cand_rows else float(sim[:, j].max())
        for j in range(r.shape[0])
    ]
    precision = sum(p_scores) / len(p_scores)
    recall = sum(r_scores) / len(r_scores)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"precision": precision, "recall": recall, "f1": f1}


def hash_vector(token: str, dim: int) -> list[float]:
    """Unit vector from the token's sha256; identical tokens get identical
    vectors, so self-comparison scores exactly 1."""
    raw = hashlib.sha256(token.encode()).digest()
    vals = []
    stretch = raw
    while len(vals) < dim:
        for i in range(0, len(stretch), 2):
            vals.append(int.from_bytes(stretch[i : i + 2], "big") / 65535.0 - 0.5)
            if len(vals) == dim:
                break
        stretch = hashlib.sha256(stretch).digest()
    norm = sum(v * v for v in vals) ** 0.5 or 1.0
    return [v / norm for v in vals]


def hash_embedding(tokens: Sequence[str], dim: int = 32) -> np.ndarray:
    """Deterministic per-token unit vectors; the in-repo stand-in for a
    contextual embedding backend."""
    import numpy as np
    return np.asarray([hash_vector(t, dim) for t in tokens], dtype=float).reshape(len(tokens), dim)


def score_generation_quality(generated: Corpus, reference: Corpus) -> dict:
    """Mean greedy-BERTScore F1 of each generated doc against its source
    exemplar (by meta, falling back to a deterministic reference pick) plus
    mean token length."""
    if len(generated) == 0 or len(reference) == 0:
        raise EmptyCorpus("both corpora must be non-empty")
    ref_ids = {doc.id: doc for doc in reference}
    ref_list = sorted(reference, key=lambda d: d.id)
    f1s = []
    lengths = []
    for i, doc in enumerate(generated):
        toks = token_surfaces(doc.text)
        lengths.append(len(toks))
        source = ref_ids.get(doc.meta.get("exemplar", ""))
        if source is None:
            source = ref_list[i % len(ref_list)]
        ref_toks = token_surfaces(source.text)
        if not toks or not ref_toks:
            f1s.append(0.0)
            continue
        score = bertscore_greedy(hash_embedding(toks), hash_embedding(ref_toks))
        f1s.append(score["f1"])
    return {
        "bert_f1_mean": sum(f1s) / len(f1s),
        "avg_length_words": sum(lengths) / len(lengths),
    }


# --- class weights ---------------------------------------------------------

@dataclass(frozen=True)
class ClassWeights:
    n: int  # total token count
    per_tag: dict  # tag -> {"n_t": int, "w_t": float}


def tag_weight(n: int, n_t: int) -> float:
    """w_t = ln(4 n / n_t)."""
    return math.log(4 * n / n_t)


def class_weights(corpus: Corpus, cap: float = 20.0) -> ClassWeights:
    """Token counts per tag (tokens labeled by entity overlap, OTHERS for
    the rest) fed through the weight formula. Unseen tags get the cap."""
    if not 0 <= cap < math.inf:  # also false for nan
        raise ValueError(f"weight cap {cap} is not a finite number >= 0")
    if len(corpus) == 0:
        raise EmptyCorpus("cannot weight an empty corpus")
    tally: Counter = Counter()
    for doc in corpus:
        tally.update(label_tokens(doc.text, doc.entities, corpus.schema.other))
    counts = {tag: tally[tag] for tag in corpus.schema.tags}
    total = sum(counts.values())
    if total == 0:
        raise EmptyCorpus("corpus has no tokens")
    per_tag = {}
    for tag, n_t in counts.items():
        if n_t > 0:
            w = tag_weight(total, n_t)
        else:
            w = cap
            logger.warning("tag %s has no tokens; weight capped at %s", tag, cap)
        per_tag[tag] = {"n_t": n_t, "w_t": w}
    return ClassWeights(n=total, per_tag=per_tag)


# --- splits ----------------------------------------------------------------

SPLIT_NAMES = ("train", "val", "test")


def _split_sizes(ratios: Sequence, n: int) -> list[int]:
    if len(ratios) != len(SPLIT_NAMES):
        raise RatioMismatch(f"need {len(SPLIT_NAMES)} ratios, got {len(ratios)}")
    if not all(0 <= r < math.inf for r in ratios):  # also false for nan
        raise RatioMismatch(f"ratios {list(ratios)} are not all finite numbers >= 0")
    if all(isinstance(r, int) for r in ratios):
        if sum(ratios) != n:
            raise RatioMismatch(f"integer ratios sum to {sum(ratios)}, corpus has {n}")
        return list(ratios)
    total = float(sum(ratios))
    if abs(total - 1.0) > 1e-9:
        raise RatioMismatch(f"fractional ratios sum to {total}, expected 1.0")
    exact = [r * n for r in ratios]
    sizes = [int(x) for x in exact]
    # largest-remainder rounding; ties resolved by position
    remainders = sorted(
        range(len(sizes)), key=lambda i: (-(exact[i] - sizes[i]), i)
    )
    for i in range(n - sum(sizes)):
        sizes[remainders[i]] += 1
    return sizes


def split(corpus: Corpus, ratios: Sequence, seed: int = 0) -> dict:
    """Deterministic, disjoint, exhaustive train/val/test partition. Integer
    ratios are absolute sizes; fractions are shares of the corpus."""
    sizes = _split_sizes(ratios, len(corpus))
    docs = list(corpus)
    random.Random(seed).shuffle(docs)
    out = {}
    cursor = 0
    for name, size in zip(SPLIT_NAMES, sizes):
        part = [doc.with_meta(split=name) for doc in docs[cursor : cursor + size]]
        out[name] = Corpus(documents=tuple(part), schema=corpus.schema)
        cursor += size
    return out

