import json

import pytest
from hypothesis import given, strategies as st

from deidkit.core import CANONICAL_SCHEMA, Corpus, Document, EntitySpan, build_schema
from deidkit.tagmap import (
    COMMERCIAL_SCHEMA,
    NormalizationPolicy,
    TagMap,
    apply_tagmap,
    builtin_canonical_map,
    commercial_comparison_map,
    load_tagmap,
    normalize_tag,
    tag_distribution,
)

# Frozen source -> target expectations for the shipped mapping table.
# "Contact Information" is deliberately pinned to CONTACT.
SHIPPED_TABLE = {
    "Treatment_Date": "DATE", "Patient_DOB": "DATE", "Investigation_Date": "DATE",
    "Admission Date": "DATE", "Procedure_Date": "DATE", "Date": "DATE",
    "Ward_Location": "HOSPITAL", "Hospital_Name": "HOSPITAL", "Department": "HOSPITAL",
    "Patient_ID": "ID", "Misc_Medical_ID": "ID", "Employee_ID": "ID",
    "Admission Number": "ID",
    "Age": "AGE",
    "Doctor_Name": "DOCTOR", "Staff_Name": "DOCTOR", "Prepared by": "DOCTOR",
    "Signature": "DOCTOR", "Doctor_Signature": "DOCTOR",
    "Signature of Consultant": "DOCTOR",
    "Patient_Name": "PATIENT", "Gaurdian_Name": "PATIENT",
    "Patient_Signature": "PATIENT", "Patient_Spouse": "PATIENT",
    "Family_Member_Name": "PATIENT",
    "Zip": "CONTACT", "Phone_No": "CONTACT", "Landline": "CONTACT",
    "IP_Address": "CONTACT", "Phone": "CONTACT", "Contact_Info": "CONTACT",
    "Contact_Number": "CONTACT", "Contact_No": "CONTACT", "Mobile": "CONTACT",
    "Phone Number": "CONTACT", "Patient_Phone": "CONTACT", "Email": "CONTACT",
    "Email_ID": "CONTACT", "Contact Information": "CONTACT", "Phone No": "CONTACT",
    "City": "LOCATION", "State": "LOCATION", "Country": "LOCATION",
    "Street": "LOCATION", "Other_Location": "LOCATION",
    "Correspondence_Address": "LOCATION", "Contact_Address": "LOCATION",
    "Pin": "LOCATION", "Pin Code": "LOCATION", "Pin_No": "LOCATION",
    "Postal_Code": "LOCATION", "Address": "LOCATION",
    "Others": "OTHERS",
}


@pytest.mark.parametrize("raw,normed", [
    ("Patient_Name", "patient name"),
    ("  Patient   Name ", "patient name"),
    ("PATIENT_NAME", "patient name"),
    ("patient_name", "patient name"),
    ("Pin__Code", "pin code"),
])
def test_normalize_tag(raw, normed):
    assert normalize_tag(raw) == normed


def test_shipped_table_complete():
    tm = builtin_canonical_map()
    for source, target in SHIPPED_TABLE.items():
        got, matched = tm.map_tag(source)
        assert matched, source
        assert got == target, (source, got, target)


def test_shipped_table_case_and_separator_insensitive():
    tm = builtin_canonical_map()
    assert tm.map_tag("patient_dob") == ("DATE", True)
    assert tm.map_tag("ADMISSION DATE") == ("DATE", True)
    assert tm.map_tag("admission_date") == ("DATE", True)


def test_unlisted_tag_defaults_to_others():
    tm = builtin_canonical_map()
    assert tm.map_tag("Blood_Group") == ("OTHERS", False)
    assert tm.map_tag("Diagnosis") == ("OTHERS", False)


def test_canonical_tags_map_to_themselves():
    tm = builtin_canonical_map()
    for tag in CANONICAL_SCHEMA.tags:
        assert tm.map_tag(tag) == (tag, True)


def test_map_is_idempotent_on_corpus():
    doc = Document(
        id="d", text="a b c",
        entities=(EntitySpan(0, 1, "Patient_Name", "a"),
                  EntitySpan(2, 3, "Blood_Group", "b"),
                  EntitySpan(4, 5, "Age", "c")),
    )
    src = Corpus(documents=(doc,),
                 schema=build_schema(["Patient_Name", "Blood_Group", "Age"]))
    tm = builtin_canonical_map()
    once, _ = apply_tagmap(src, tm)
    twice, _ = apply_tagmap(once, tm)
    assert [e.tag for d in once for e in d.entities] == \
           [e.tag for d in twice for e in d.entities] == ["PATIENT", "OTHERS", "AGE"]


def test_audit_conservation():
    doc = Document(
        id="d", text="a b c d",
        entities=(EntitySpan(0, 1, "Patient_Name", "a"),
                  EntitySpan(2, 3, "Patient_Name", "b"),
                  EntitySpan(4, 5, "Blood_Group", "c"),
                  EntitySpan(6, 7, "Age", "d")),
    )
    src = Corpus(documents=(doc,), schema=build_schema(
        ["Patient_Name", "Blood_Group", "Age"]))
    mapped, audit = apply_tagmap(src, builtin_canonical_map())
    assert audit.total == 4
    assert audit.rule_hits == {"Patient_Name": 2, "Age": 1}
    assert audit.unmapped == {"Blood_Group": 1}
    assert mapped.schema.tags == CANONICAL_SCHEMA.tags


def test_offsets_untouched_by_mapping(sample_corpus):
    tm = builtin_canonical_map()
    mapped, _ = apply_tagmap(sample_corpus, tm)
    for before, after in zip(sample_corpus, mapped):
        assert before.text == after.text
        assert [(e.start, e.end) for e in before.entities] == \
               [(e.start, e.end) for e in after.entities]


def test_commercial_map_folds_names_and_hospitals():
    tm, _ = commercial_comparison_map()
    assert tm.map_tag("PATIENT") == ("NAME", True)
    assert tm.map_tag("DOCTOR") == ("NAME", True)
    assert tm.map_tag("HOSPITAL") == ("LOCATION", True)
    assert tm.map_tag("LOCATION") == ("LOCATION", True)
    for kept in ("DATE", "AGE", "ID", "CONTACT", "OTHERS"):
        assert tm.map_tag(kept) == (kept, True)
    assert tm.target_schema.tags == COMMERCIAL_SCHEMA.tags


@pytest.mark.parametrize("text,span,stripped", [
    ("Dr. Rakesh Kumar", (0, 16), "Rakesh Kumar"),
    ("Dr Rakesh", (0, 9), "Rakesh"),
    ("Mrs. Devi", (0, 9), "Devi"),
    ("B/O Anita", (0, 9), "Anita"),
    ("dr. Rakesh", (0, 10), "Rakesh"),          # case-insensitive
    ("Mr. Dr. Sharma", (0, 14), "Sharma"),      # stacked titles
    ("Drake Hall", (0, 10), "Drake Hall"),      # prefix word, not a title
])
def test_title_stripping(text, span, stripped):
    doc = Document(id="d", text=text,
                   entities=(EntitySpan(span[0], span[1], "NAME", text[span[0]:span[1]]),))
    policy = NormalizationPolicy()
    out = policy.strip_titles(doc)
    assert out.entities[0].surface == stripped
    assert out.entities[0].end == span[1]


def test_title_strip_never_empties_span():
    doc = Document(id="d", text="Dr.", entities=(EntitySpan(0, 3, "NAME", "Dr."),))
    out = NormalizationPolicy().strip_titles(doc)
    assert out.entities[0].surface == "Dr."


def test_title_strip_ignores_other_tags():
    doc = Document(id="d", text="Dr. Lane Street",
                   entities=(EntitySpan(0, 15, "LOCATION", "Dr. Lane Street"),))
    out = NormalizationPolicy().strip_titles(doc)
    assert out.entities[0].surface == "Dr. Lane Street"


def test_load_tagmap_flat_rules(tmp_path):
    path = tmp_path / "map.json"
    path.write_text(json.dumps({
        "name": "tiny", "default": "OTHERS",
        "rules": {"Visit_Date": "DATE", "Clinic": "HOSPITAL"},
    }))
    tm = load_tagmap(path)
    assert tm.map_tag("visit_date") == ("DATE", True)
    assert tm.map_tag("Clinic") == ("HOSPITAL", True)
    assert tm.map_tag("Unknown") == ("OTHERS", False)


def test_load_tagmap_rejects_unknown_keys(tmp_path):
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"rows": {"DATE": ["Visit_Date"]}, "defualt": "DATE"}))
    with pytest.raises(ValueError, match="'defualt'"):
        load_tagmap(path)
    # target belongs to the flat form; beside rows it would be ignored
    path.write_text(json.dumps({"rows": {"DATE": ["Visit_Date"]}, "target": ["DATE"]}))
    with pytest.raises(ValueError, match="'target'"):
        load_tagmap(path)


def test_tagmap_rejects_target_outside_schema():
    with pytest.raises(ValueError):
        TagMap(target_schema=CANONICAL_SCHEMA, rules={"x": "NAME"}, default="OTHERS")


def test_tag_distribution(sample_corpus):
    dist = tag_distribution(sample_corpus)
    assert dist["DATE"]["entities"] == 2
    assert dist["CONTACT"]["entities"] == 2
    assert dist["PATIENT"]["tokens"] == 2  # "Asha" + "Rao"


@given(st.text(min_size=1, max_size=30))
def test_mapping_total_on_arbitrary_tags(tag):
    target, _ = builtin_canonical_map().map_tag(tag)
    assert target in CANONICAL_SCHEMA
