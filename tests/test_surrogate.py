import hashlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from deidkit.core import Document, EntitySpan
from deidkit.surrogate import (
    AGE_JITTER,
    REDACT,
    SURROGATE,
    MissingLexicon,
    PlanIncomplete,
    SurrogateConfig,
    SurrogatePlan,
    UnparseableDate,
    _KeyedStream,
    _class_preserving,
    _replace_age,
    apply_surrogates,
    load_lexicon,
    normalize_surface,
    plan_surrogates,
    scrub,
    scrub_corpus,
    shift_date_text,
)

from _oracles import oracle_jitter_age, oracle_shift_date_text, random_doc


def doc_with(text, *spans):
    return Document(id="d", text=text, entities=tuple(
        EntitySpan(s, e, tag, text[s:e]) for s, e, tag in spans))


def test_normalize_surface_collapses():
    assert normalize_surface("RAHUL  KUMAR") == normalize_surface("Rahul Kumar")
    assert normalize_surface(" a\tb ") == "a b"


# --- date shifting ---------------------------------------------------------

@pytest.mark.parametrize("text,days,expect", [
    ("25-08-2023", 5, "30-08-2023"),
    ("25-08-2023", -5, "20-08-2023"),
    ("29-08-2023", 5, "03-09-2023"),           # month rollover keeps padding
    ("25/08/2023", 5, "30/08/2023"),
    ("2023-08-25", 5, "2023-08-30"),
    ("25.08.2023", 5, "30.08.2023"),
    ("31-12-2023", 1, "01-01-2024"),
    ("25 Aug 2023", 5, "30 Aug 2023"),
    ("25 August 2023", 10, "04 September 2023"),
    ("25 AUG 2023", 5, "30 AUG 2023"),          # month case preserved
    ("5 June 2023", 30, "5 July 2023"),          # a four-letter name stays whole
    ("5 JUNE 2023", 30, "5 JULY 2023"),
    ("5 Jun 2023", 30, "5 Jul 2023"),
    ("29-08-2023 14:30:15", 5, "03-09-2023 14:30:15"),
])
def test_shift_date_days(text, days, expect):
    assert shift_date_text(text, days) == expect


def test_class_preserving_draws_past_the_first_block_from_the_sha256_chain():
    # one digit per byte: 40 digits take the key's 32-byte digest, then 8
    # bytes of the digest of that digest
    block = hashlib.sha256(b"7|d|ID|x").digest()
    chain = block + hashlib.sha256(block).digest()
    want = "".join(str(b % 10) for b in chain[:40])
    assert _class_preserving("0" * 40, _KeyedStream(7, "d", "ID", "x")) == want


def test_shift_minutes_only_with_time_part():
    assert shift_date_text("29-08-2023 14:30", 0, 45) == "29-08-2023 15:15"
    assert shift_date_text("29-08-2023 14:30:15", 1, 90) == "30-08-2023 16:00:15"
    # a bare date ignores the minute offset rather than growing a time
    assert shift_date_text("29-08-2023", 0, 45) == "29-08-2023"


@pytest.mark.parametrize("bad", ["yesterday", "99-99-2023", "2023", "Aug"])
def test_unparseable_dates_raise(bad):
    with pytest.raises(UnparseableDate):
        shift_date_text(bad, 1)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_date_render_parse_round_trip(seed):
    # a zero shift writes every field back as it was written
    rng = random.Random(seed)
    day, month, year = rng.randint(1, 28), rng.randint(1, 12), rng.randint(1, 9999)
    d, m = (f"{v:0{rng.randint(1, 2)}d}" for v in (day, month))
    sep = rng.choice("-/.")
    clock = rng.choice(["", " 7:05", " 07:05", "T23:59:01"])
    mon = rng.choice(["Aug", "AUGUST", "aug", "March", "sep"])
    for text in (f"{d}{sep}{m}{sep}{year:04d}{clock}", f"{year:04d}-{m}-{d}{clock}",
                 f"{d} {mon} {year:04d}{clock}"):
        assert shift_date_text(text, 0) == text


def _digits(hi):
    """0..hi written 1 or 2 wide, or with a non-ASCII digit that int() reads."""
    return st.builds(lambda v, w: f"{v:0{w}d}", st.integers(0, hi), st.integers(1, 2)) | \
        st.sampled_from(["\u0663", "1\u0663"])


DAY, MONTH_NUM, HOUR, MINUTE = _digits(32), _digits(13), _digits(24), _digits(60)
YEAR = st.sampled_from(["0000", "0001", "0002", "1999", "2024", "9998", "9999"]) | \
    st.integers(0, 9999).map("{:04d}".format)
CLOCK = st.just("") | st.builds("{}{}:{}{}".format, st.sampled_from(" T"), HOUR, MINUTE,
                                st.sampled_from(["", ":00", ":59", ":60", ":7"]))
MONTH_WORDS = [name for full in ("January", "May", "August", "September", "December")
               for name in (full, full[:3])] + ["Sept", "Mayy", "Foo"]
MONTH_NAME = st.builds(lambda word, case: case(word), st.sampled_from(MONTH_WORDS),
                       st.sampled_from([str, str.upper, str.lower, str.swapcase]))
GAP = st.sampled_from([" ", "  ", "\t", " \t ", "\u00a0"])
DATE_SURFACE = st.builds(
    "{}{}{}".format, st.sampled_from(["", " ", "\t"]),
    st.one_of(
        st.builds(lambda d, sep, m, y, t: f"{d}{sep}{m}{sep}{y}{t}",
                  DAY, st.sampled_from("-/."), MONTH_NUM, YEAR, CLOCK),
        st.builds("{}-{}-{}{}".format, YEAR, MONTH_NUM, DAY, CLOCK),
        st.builds("{}{}{}{}{}{}".format, DAY, GAP, MONTH_NAME, GAP, YEAR, CLOCK),
        st.text(max_size=20)),
    st.sampled_from(["", " ", "\n"]))
OFFSET = st.integers(-800_000, 800_000) | st.integers(-(10**12), 10**12)


def _shift_outcome(shift, text, days, minutes):
    try:
        return shift(text, days, minutes)
    except Exception as exc:  # the class and message must match too
        return type(exc), str(exc)


@settings(max_examples=300)
@given(DATE_SURFACE, OFFSET, OFFSET)
def test_date_shift_in_place_matches_the_shape_renderer(text, days, minutes):
    assert _shift_outcome(shift_date_text, text, days, minutes) == \
        _shift_outcome(oracle_shift_date_text, text, days, minutes)


# --- planning --------------------------------------------------------------

def test_same_surface_same_tag_co_replaces():
    text = "Asha Rao met Asha Rao and ASHA RAO."
    doc = doc_with(text, (0, 8, "PATIENT"), (13, 21, "PATIENT"), (26, 34, "PATIENT"))
    out = scrub(doc, SURROGATE, SurrogateConfig(seed=3))
    reps = {e.surface for e in out.entities}
    assert len(reps) == 1
    assert "Asha" not in out.text


def test_same_surface_different_tag_independent():
    text = "Shimla went to Shimla"
    doc = doc_with(text, (0, 6, "PATIENT"), (15, 21, "LOCATION"))
    plan = plan_surrogates(doc, SurrogateConfig(seed=1))
    assert plan.bindings[("shimla", "PATIENT")] != plan.bindings[("shimla", "LOCATION")]


def test_replacement_differs_from_original():
    rng = random.Random(7)
    cfg = SurrogateConfig(seed=11, date_offset_days=3)
    for i in range(40):
        doc = random_doc(rng, f"doc-{i}")
        plan = plan_surrogates(doc, cfg)
        for key, rep in plan.bindings.items():
            assert normalize_surface(rep) != key[0]


def test_plan_covers_all_entities(sample_doc):
    plan = plan_surrogates(sample_doc, SurrogateConfig(seed=5))
    for ent in sample_doc.entities:
        key = (normalize_surface(ent.surface), ent.tag)
        assert key in plan.bindings or key in plan.passthrough


def test_apply_surrogates_refuses_a_plan_that_misses_an_entity(sample_doc):
    plan = plan_surrogates(sample_doc, SurrogateConfig(seed=5))
    with pytest.raises(PlanIncomplete, match="no plan entry"):
        apply_surrogates(sample_doc, SurrogatePlan(doc_id=plan.doc_id, bindings={}))
    keep_all = SurrogatePlan(doc_id=plan.doc_id, bindings={},
                             passthrough=frozenset(plan.bindings) | plan.passthrough)
    assert apply_surrogates(sample_doc, keep_all) == sample_doc


def test_determinism_across_runs(sample_corpus):
    cfg = SurrogateConfig(seed=99, date_offset_days=7)
    a = scrub_corpus(sample_corpus, SURROGATE, cfg)
    b = scrub_corpus(sample_corpus, SURROGATE, cfg)
    assert [d.text for d in a] == [d.text for d in b]
    assert [d.entities for d in a] == [d.entities for d in b]


def test_different_seeds_differ(sample_doc):
    a = scrub(sample_doc, SURROGATE, SurrogateConfig(seed=1))
    b = scrub(sample_doc, SURROGATE, SurrogateConfig(seed=2))
    assert a.text != b.text


def test_docs_do_not_share_replacements():
    # same surface in two docs may diverge; the stream is keyed by doc id
    d1 = doc_with("Asha Rao", (0, 8, "PATIENT"))
    d2 = Document(id="e", text="Asha Rao",
                  entities=(EntitySpan(0, 8, "PATIENT", "Asha Rao"),))
    cfg = SurrogateConfig(seed=4)
    p1 = plan_surrogates(d1, cfg)
    p2 = plan_surrogates(d2, cfg)
    # not asserting inequality of draw (collisions allowed), only key independence
    assert p1.doc_id != p2.doc_id


def test_date_entities_shift_in_text():
    doc = doc_with("Seen 25-08-2023, again 25-08-2023.",
                   (5, 15, "DATE"), (23, 33, "DATE"))
    out = scrub(doc, SURROGATE, SurrogateConfig(seed=0, date_offset_days=5))
    assert out.text == "Seen 30-08-2023, again 30-08-2023."


def test_unparseable_date_falls_back():
    doc = doc_with("On sometime-soon we left.", (3, 15, "DATE"))
    out = scrub(doc, SURROGATE, SurrogateConfig(seed=0, date_offset_days=5))
    assert out.entities[0].surface != "sometime-soon"


def test_id_contact_class_preserved():
    doc = doc_with("CRNO: 483920 call 9876543210", (6, 12, "ID"), (18, 28, "CONTACT"))
    out = scrub(doc, SURROGATE, SurrogateConfig(seed=8))
    new_id, new_phone = out.entities[0].surface, out.entities[1].surface
    assert new_id != "483920" and new_id.isdigit() and len(new_id) == 6
    assert new_phone != "9876543210" and new_phone.isdigit() and len(new_phone) == 10


def test_mixed_id_keeps_punctuation_and_case_classes():
    doc = doc_with("ADM-482910", (0, 10, "ID"))
    out = scrub(doc, SURROGATE, SurrogateConfig(seed=8))
    s = out.entities[0].surface
    assert s != "ADM-482910"
    assert s[3] == "-"
    assert s[:3].isupper() and s[:3].isalpha()
    assert s[4:].isdigit()


def test_age_preserved_by_default():
    doc = doc_with("aged 42 years", (5, 7, "AGE"))
    out = scrub(doc, SURROGATE, SurrogateConfig(seed=8))
    assert out.entities[0].surface == "42"


def test_age_jitter_changes_within_band():
    doc = doc_with("aged 42 years", (5, 7, "AGE"))
    cfg = SurrogateConfig(seed=8, age_policy=AGE_JITTER, age_jitter_years=3)
    out = scrub(doc, SURROGATE, cfg)
    got = int(out.entities[0].surface)
    assert got != 42 and 39 <= got <= 45


def test_age_jitter_never_negative():
    doc = doc_with("aged 1", (5, 6, "AGE"))
    cfg = SurrogateConfig(seed=8, age_policy=AGE_JITTER, age_jitter_years=3)
    out = scrub(doc, SURROGATE, cfg)
    assert 0 <= int(out.entities[0].surface) <= 4


@given(st.integers(0, 999), st.integers(1, 2000), st.integers(0, 2**64 - 1))
def test_age_jitter_draws_what_the_candidate_list_gave(age, k, seed):
    cfg = SurrogateConfig(seed=seed, age_policy=AGE_JITTER, age_jitter_years=k)
    got = _replace_age(str(age), cfg, _KeyedStream(seed, "d", "AGE", str(age), 0))
    assert got == oracle_jitter_age(age, k, _KeyedStream(seed, "d", "AGE", str(age), 0))


def test_age_jitter_of_three_million_years_lists_no_candidates():
    # listing its 3,000,042 candidate ages took 135 MB in a deidentify run
    doc = doc_with("aged 42 years", (5, 7, "AGE"))
    cfg = SurrogateConfig(seed=8, age_policy=AGE_JITTER, age_jitter_years=3 * 10**6)
    tracemalloc.start()
    try:
        out = scrub(doc, SURROGATE, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    got = int(out.entities[0].surface)
    assert got != 42 and 0 <= got <= 42 + 3 * 10**6
    assert peak < 1 << 20


def test_doctor_title_preserved():
    doc = doc_with("Seen by Dr. Verma today", (8, 17, "DOCTOR"))
    out = scrub(doc, SURROGATE, SurrogateConfig(seed=2))
    assert out.entities[0].surface.startswith("Dr. ")
    assert out.entities[0].surface != "Dr. Verma"


def test_others_spans_kept_verbatim():
    doc = doc_with("Diagnosis: dengue fever", (11, 23, "OTHERS"))
    out = scrub(doc, SURROGATE, SurrogateConfig(seed=2))
    assert out.text == doc.text


def test_offsets_recomputed_after_replacement(sample_doc):
    out = scrub(sample_doc, SURROGATE, SurrogateConfig(seed=13, date_offset_days=2))
    for ent in out.entities:
        assert out.text[ent.start:ent.end] == ent.surface
    assert [e.tag for e in out.entities] == [e.tag for e in sample_doc.entities]


def test_redact_mode(sample_doc):
    out = scrub(sample_doc, REDACT)
    assert "[PATIENT]" in out.text and "[DATE]" in out.text
    assert "Asha" not in out.text
    for ent in out.entities:
        assert out.text[ent.start:ent.end] == ent.surface == f"[{ent.tag}]"


def test_custom_lexicon_used(tmp_path):
    lex = tmp_path / "names.txt"
    lex.write_text("Blue Falcon\nRed Panda\n")
    cfg = SurrogateConfig(seed=0, locale_lexicons={"PATIENT": str(lex)})
    doc = doc_with("Asha Rao", (0, 8, "PATIENT"))
    out = scrub(doc, SURROGATE, cfg)
    assert out.entities[0].surface in {"Blue Falcon", "Red Panda"}


def test_each_config_reads_its_lexicons_once(tmp_path):
    lex = tmp_path / "names.txt"
    lex.write_text("Blue Falcon\n")
    doc = doc_with("Asha Rao", (0, 8, "PATIENT"))
    cfg = SurrogateConfig(seed=0, locale_lexicons={"PATIENT": str(lex)})
    assert scrub(doc, SURROGATE, cfg).entities[0].surface == "Blue Falcon"
    lex.write_text("Red Panda\n")
    # the config keeps the pool it read; a new config reads the file again
    assert scrub(doc, SURROGATE, cfg).entities[0].surface == "Blue Falcon"
    fresh = SurrogateConfig(seed=0, locale_lexicons={"PATIENT": str(lex)})
    assert fresh == cfg
    assert scrub(doc, SURROGATE, fresh).entities[0].surface == "Red Panda"


def test_missing_lexicon_raises(tmp_path):
    # the config reads the lexicons it names, so a missing one fails before any planning
    with pytest.raises(MissingLexicon):
        SurrogateConfig(seed=0, locale_lexicons={"PATIENT": str(tmp_path / "no.txt")})
    with pytest.raises(MissingLexicon):
        SurrogateConfig(locale_lexicons={"DOCTOR": "nosuch.txt"})  # no path, no package file
    with pytest.raises(ValueError, match="PATEINT"):
        SurrogateConfig(locale_lexicons={"PATEINT": "person_names.txt"})


def test_packaged_lexicons_load():
    for name in ("person_names.txt", "cities.txt", "hospitals.txt"):
        pool = load_lexicon(name)
        assert len(pool) >= 20
        assert all(entry.strip() == entry and entry for entry in pool)


def test_no_leak_on_fuzz_docs():
    rng = random.Random(31)
    cfg = SurrogateConfig(seed=23, date_offset_days=9,
                          age_policy=AGE_JITTER, age_jitter_years=5)
    for i in range(50):
        doc = random_doc(rng, f"doc-{i:03d}")
        out = scrub(doc, SURROGATE, cfg)
        for before, after in zip(doc.entities, out.entities):
            if before.tag == "OTHERS" or len(before.surface) < 4:
                continue
            assert out.text[after.start:after.end] != before.surface
