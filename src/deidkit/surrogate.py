"""Replacement of PHI spans with realistic fake values.

Replacements are a pure function of (document, seed, lexicons): the random
stream is keyed by sha256 over (seed, doc id, tag, normalized surface), so
runs are reproducible across processes and parallel schedules, and repeated
occurrences of an entity within a document always co-replace.

Dates are shifted on the calendar with the original textual format kept
(separator, digit padding, month spelling). ID and CONTACT values keep their
character classes: digits become digits, letters become letters of the same
case, punctuation stays. Names, cities and hospitals are drawn from packaged
lexicons. Minute offsets only apply to surfaces that carry a clock time.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta
from typing import Optional

from .annot_io import MissingLexicon, load_lexicon  # MissingLexicon: importable from here
from .core import Corpus, DeidError, Document, EntitySpan

AGE_PRESERVE = "preserve"
AGE_JITTER = "jitter"

# tags whose replacement comes from a lexicon (surface must contain letters)
_LEXICON_TAGS = {
    "PATIENT": "person_names.txt",
    "DOCTOR": "person_names.txt",
    "LOCATION": "cities.txt",
    "HOSPITAL": "hospitals.txt",
}

_TITLE_RE = re.compile(r"^((?:Dr|Prof|Mr|Mrs|Ms)\.?\s+)", re.IGNORECASE)


class UnparseableDate(DeidError):
    """A DATE surface outside the supported formats."""


class PlanIncomplete(DeidError):
    """apply_surrogates found a non-OTHERS entity the plan does not cover."""


@dataclass(frozen=True)
class SurrogateConfig:
    seed: int = 0
    date_offset_days: int = 0
    time_offset_minutes: int = 0
    locale_lexicons: dict[str, str] = field(default_factory=dict)  # tag -> file path
    age_policy: str = AGE_PRESERVE  # preserve | jitter
    age_jitter_years: int = 0

    def __post_init__(self) -> None:
        if not -(2**63) <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if self.age_policy not in (AGE_PRESERVE, AGE_JITTER):
            raise ValueError(f"bad age_policy {self.age_policy!r}")
        if self.age_jitter_years < 0:
            raise ValueError("age_jitter_years must be >= 0")
        unknown = sorted(set(self.locale_lexicons) - _LEXICON_TAGS.keys())
        if unknown:
            raise ValueError(f"locale_lexicons keys must be in {sorted(_LEXICON_TAGS)}: {unknown}")
        # lexicon source -> entries, read once per config, the named ones now;
        # an attribute, not a field, so that it is no config key
        object.__setattr__(self, "_pools", {src: load_lexicon(src)
                                            for src in self.locale_lexicons.values()})


def normalize_surface(surface: str) -> str:
    """Consistency key: whitespace collapsed, case folded. "RAHUL  KUMAR"
    and "Rahul Kumar" in one note must co-replace."""
    return " ".join(surface.split()).casefold()


@dataclass(frozen=True)
class SurrogatePlan:
    """Per-document replacement table.

    `bindings` maps (normalized surface, tag) to the replacement string;
    `passthrough` lists keys deliberately kept verbatim (preserved ages,
    surfaces with no replaceable characters). `audit` records fallbacks."""

    doc_id: str
    bindings: dict
    passthrough: frozenset = frozenset()
    audit: tuple = ()


# --- deterministic keyed byte stream -------------------------------------

class _KeyedStream:
    """Unbounded deterministic byte stream from a sha256-chained key."""

    def __init__(self, *parts) -> None:
        self._block = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
        self._pos = 0

    def byte(self) -> int:
        if self._pos >= len(self._block):
            self._block = hashlib.sha256(self._block).digest()
            self._pos = 0
        b = self._block[self._pos]
        self._pos += 1
        return b

    def index(self, n: int) -> int:
        # 8 bytes give a negligible modulo bias for lexicon-sized n
        value = int.from_bytes(bytes(self.byte() for _ in range(8)), "big")
        return value % n


_LOWER = "abcdefghijklmnopqrstuvwxyz"
_UPPER = _LOWER.upper()
_DIGITS = "0123456789"


def _class_preserving(surface: str, stream: _KeyedStream) -> str:
    out = []
    for ch in surface:
        if ch.isdigit():
            out.append(_DIGITS[stream.byte() % 10])
        elif ch.isalpha():
            pool = _UPPER if ch.isupper() else _LOWER
            out.append(pool[stream.byte() % 26])
        else:
            out.append(ch)
    return "".join(out)


def _has_replaceable(surface: str) -> bool:
    return any(ch.isdigit() or ch.isalpha() for ch in surface)


# --- date shifting in the surface's own layout ----------------------------

_MONTH_FULL = (
    "January", "February", "March", "April", "May", "June",
    "July", "August", "September", "October", "November", "December",
)
_MONTH_INDEX = {name.lower(): i + 1 for i, name in enumerate(_MONTH_FULL)}
_MONTH_INDEX.update({name[:3].lower(): i + 1 for i, name in enumerate(_MONTH_FULL)})

_TIME_TAIL = r"(?:(?P<tsep>[ T])(?P<hh>\d{1,2}):(?P<mm>\d{2})(?::(?P<ss>\d{2}))?)?"
_DMY_NUM_RE = re.compile(r"^(?P<d>\d{1,2})(?P<sep>[-/.])(?P<m>\d{1,2})(?P=sep)(?P<y>\d{4})" + _TIME_TAIL + "$")
_YMD_NUM_RE = re.compile(r"^(?P<y>\d{4})-(?P<m>\d{1,2})-(?P<d>\d{1,2})" + _TIME_TAIL + "$")
_DMY_TEXT_RE = re.compile(r"^(?P<d>\d{1,2})\s+(?P<mon>[A-Za-z]{3,9})\s+(?P<y>\d{4})" + _TIME_TAIL + "$")
_DATE_RES = (_DMY_NUM_RE, _YMD_NUM_RE, _DMY_TEXT_RE)
_NUMERIC_FIELDS = {"d": "day", "m": "month", "y": "year", "hh": "hour", "mm": "minute",
                   "ss": "second"}


def shift_date_text(text: str, days: int = 0, minutes: int = 0) -> str:
    """Shift a day-first numeric, ISO or day-month-name date surface on the
    calendar and write each field back where it stands: a number as wide as
    it was written, a month name as long as it was and in its upper or lower
    case (title case otherwise). Minute offsets apply only when the surface
    carries a time of day."""
    s = text.strip()
    match = next(filter(None, (pat.match(s) for pat in _DATE_RES)), None)
    if match is None:
        raise UnparseableDate(f"unsupported date format: {text!r}")
    g = match.groupdict()
    month = _MONTH_INDEX.get(g["mon"].lower()) if "mon" in g else int(g["m"])
    if month is None:
        raise UnparseableDate(f"unknown month {g['mon']!r} in {text!r}")
    try:
        dt = datetime(int(g["y"]), month, int(g["d"]),
                      int(g["hh"] or 0), int(g["mm"] or 0), int(g["ss"] or 0))
    except ValueError as exc:
        raise UnparseableDate(f"{text!r}: {exc}") from exc
    dt += timedelta(days=days, minutes=minutes if g["hh"] else 0)
    parts, cursor = [], 0
    for name, written in g.items():  # named groups do not nest: text order
        if written is None or "sep" in name:  # a separator stays in its gap
            continue
        gap = s[cursor : match.start(name)]
        parts.append(" " if gap.isspace() else gap)  # month-name fields, one space apart
        if name == "mon":
            full = _MONTH_FULL[dt.month - 1]
            mon = full if len(written) > 3 else full[:3]
            parts.append(mon.upper() if written.isupper() else
                         mon.lower() if written.islower() else mon)
        else:
            parts.append(f"{getattr(dt, _NUMERIC_FIELDS[name]):0{len(written)}d}")
        cursor = match.end(name)
    return "".join(parts)


def _lexicon_for(tag: str, cfg: SurrogateConfig) -> tuple[str, ...]:
    source = cfg.locale_lexicons.get(tag, _LEXICON_TAGS[tag])
    if source not in cfg._pools:
        cfg._pools[source] = load_lexicon(source)
    return cfg._pools[source]


# --- planning and application ---------------------------------------------

_AGE_RE = re.compile(r"^\d{1,3}$")


def _replace_age(surface: str, cfg: SurrogateConfig, stream: _KeyedStream) -> Optional[str]:
    """None means keep the age as is (the preserve policy, or jitter that
    cannot produce a different non-negative age)."""
    if cfg.age_policy == AGE_PRESERVE or cfg.age_jitter_years == 0:
        return None
    if not _AGE_RE.match(surface.strip()):
        return _class_preserving(surface, stream)
    age, k = int(surface), cfg.age_jitter_years
    # the candidates are low..age+k without age (k > 0): draw an index, not the list
    low = max(age - k, 0)
    drawn = low + stream.index(age + k - low)
    return str(drawn + (drawn >= age))


def _draw_distinct(surface: str, pool: tuple[str, ...], stream: _KeyedStream) -> Optional[str]:
    """Pick a pool entry different from `surface` (normalized comparison);
    None when the pool cannot supply one."""
    target = normalize_surface(surface)
    start = stream.index(len(pool))
    for step in range(len(pool)):
        candidate = pool[(start + step) % len(pool)]
        if normalize_surface(candidate) != target:
            return candidate
    return None


def _replace_name_like(surface: str, tag: str, cfg: SurrogateConfig,
                       stream: _KeyedStream) -> Optional[str]:
    if not any(ch.isalpha() for ch in surface):
        # pin codes and similar digit-only spans under LOCATION
        return _class_preserving(surface, stream)
    pool = _lexicon_for(tag, cfg)
    title = _TITLE_RE.match(surface)
    prefix = title.group(1) if title and tag in ("DOCTOR", "PATIENT") else ""
    drawn = _draw_distinct(surface, pool, stream)
    if drawn is None:
        return None
    candidate = prefix + drawn
    if normalize_surface(candidate) == normalize_surface(surface):
        return None
    return candidate


def plan_surrogates(doc: Document, cfg: SurrogateConfig) -> SurrogatePlan:
    """One replacement decision per distinct (normalized surface, tag) pair
    among the document's non-OTHERS entities."""
    bindings: dict = {}
    passthrough: set = set()
    audit: list[str] = []
    for ent in doc.entities:
        if ent.tag == "OTHERS":
            continue
        nsurface = normalize_surface(ent.surface)
        key = (nsurface, ent.tag)
        if key in bindings or key in passthrough:
            continue
        if not _has_replaceable(ent.surface):
            passthrough.add(key)
            audit.append(f"no_replaceable_chars:{ent.tag}:{nsurface}")
            continue

        replacement: Optional[str] = None
        salt = 0
        while True:
            stream = _KeyedStream(cfg.seed, doc.id, ent.tag, nsurface, salt)
            if ent.tag == "DATE":
                try:
                    replacement = shift_date_text(
                        ent.surface, cfg.date_offset_days, cfg.time_offset_minutes
                    )
                    if normalize_surface(replacement) == nsurface:
                        # zero offset; fall through to class replacement
                        if salt == 0:
                            audit.append(f"date_zero_shift:{nsurface}")
                        replacement = _class_preserving(ent.surface, stream)
                except (UnparseableDate, OverflowError):
                    if salt == 0:
                        audit.append(f"unparseable_date:{nsurface}")
                    replacement = _class_preserving(ent.surface, stream)
            elif ent.tag == "AGE":
                replacement = _replace_age(ent.surface, cfg, stream)
                if replacement is None:
                    passthrough.add(key)
                    break
            elif ent.tag in _LEXICON_TAGS:
                replacement = _replace_name_like(ent.surface, ent.tag, cfg, stream)
                if replacement is None:
                    passthrough.add(key)
                    audit.append(f"lexicon_exhausted:{ent.tag}:{nsurface}")
                    break
            else:
                # ID, CONTACT, and any unexpected tag: keep character classes
                replacement = _class_preserving(ent.surface, stream)
            if normalize_surface(replacement) != nsurface:
                bindings[key] = replacement
                break
            salt += 1  # rare: re-key until the surfaces differ

    return SurrogatePlan(
        doc_id=doc.id,
        bindings=bindings,
        passthrough=frozenset(passthrough),
        audit=tuple(audit),
    )


def _splice(doc: Document, replacement_of) -> Document:
    """Replace each entity's span with replacement_of(entity); entity offsets
    are recomputed and non-entity text is untouched."""
    parts: list[str] = []
    out_len = 0
    cursor = 0
    new_entities: list[EntitySpan] = []
    for ent in doc.entities:
        gap = doc.text[cursor : ent.start]
        parts.append(gap)
        out_len += len(gap)
        rep = replacement_of(ent)
        parts.append(rep)
        new_entities.append(EntitySpan(start=out_len, end=out_len + len(rep),
                                       tag=ent.tag, surface=rep))
        out_len += len(rep)
        cursor = ent.end
    parts.append(doc.text[cursor:])
    return replace(doc, text="".join(parts), entities=tuple(new_entities))


def apply_surrogates(doc: Document, plan: SurrogatePlan) -> Document:
    """Rewrite the text with the planned replacements; entity offsets are
    recomputed and non-entity text is untouched."""

    def replacement_of(ent: EntitySpan) -> str:
        key = (normalize_surface(ent.surface), ent.tag)
        if ent.tag == "OTHERS" or key in plan.passthrough:
            return ent.surface
        if key not in plan.bindings:
            raise PlanIncomplete(f"doc {doc.id!r}: no plan entry for ({ent.surface!r}, {ent.tag})")
        return plan.bindings[key]

    return _splice(doc, replacement_of)


REDACT = "redact"
SURROGATE = "surrogate"


def scrub(doc: Document, mode: str = SURROGATE,
          cfg: Optional[SurrogateConfig] = None) -> Document:
    """redact: replace non-OTHERS spans with "[TAG]" literals.
    surrogate: plan_surrogates + apply_surrogates under `cfg`."""
    if mode == REDACT:
        return _splice(doc, lambda ent: ent.surface if ent.tag == "OTHERS" else f"[{ent.tag}]")
    if mode == SURROGATE:
        if cfg is None:
            cfg = SurrogateConfig()
        return apply_surrogates(doc, plan_surrogates(doc, cfg))
    raise ValueError(f"bad scrub mode {mode!r}")


def scrub_corpus(corpus: Corpus, mode: str = SURROGATE,
                 cfg: Optional[SurrogateConfig] = None) -> Corpus:
    """Per-document scrub; every replacement is keyed by (seed, doc id, tag,
    surface), so a document's output does not depend on the others."""
    if cfg is None:
        cfg = SurrogateConfig()
    return Corpus(documents=tuple(scrub(doc, mode, cfg) for doc in corpus),
                  schema=corpus.schema)
