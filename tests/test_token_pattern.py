"""The compiled token pattern and the Counter-based filter gates against
the character-at-a-time code they replaced (kept in _oracles)."""

import re
import string

import pytest
from hypothesis import given, strategies as st

from deidkit.annot_io import parse_inline_xml
from deidkit.core import token_surfaces, tokenize
from deidkit.corpusstats import _clean_token
from deidkit.syngen import (
    HIGH_REPETITION,
    LENGTH_OUT_OF_BOUNDS,
    LOW_PRINTABLE_RATIO,
    FilterPolicy,
    _printable_ratio,
    _repeat_ratio,
    filter_outputs,
)

from _oracles import (
    oracle_clean_token,
    oracle_gate_reason,
    oracle_printable_ratio,
    oracle_repeat_ratio,
    oracle_tokenize,
)


def test_regex_classes_match_str_predicates_on_every_code_point():
    # each code point occurs once, so equal subsequences mean equal sets
    every = "".join(map(chr, range(0x110000)))
    assert "".join(re.findall(r"[^\W_]", every)) == "".join(filter(str.isalnum, every))
    assert "".join(re.findall(r"\s", every)) == "".join(filter(str.isspace, every))


# underscore, digits from several scripts, numerics, combining marks, the
# separators \x1c-\x1f (whitespace to str, not to bytes), NEL and NBSP, and
# the controls the printable gate lets through or counts against a text
TRICKY = list("_0123456789a.-/ \t\n\r") + [
    "\u0661", "\u00b2", "\u00bd", "\u2167",  # digits and numerics
    "\u0301", "\u0308", "\u20dd", "\u0e31",  # combining marks
    "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028", "\u3000",
    "\x00", "\x07", "\x0b", "\x0c", "\x1b", "\x7f", "\x80", "\x9f",  # C0, DEL, C1
]
texts = st.one_of(
    st.text(),
    st.text(alphabet=st.one_of(st.sampled_from(TRICKY), st.characters())),
    st.text(alphabet=st.sampled_from(TRICKY)),
    st.text(alphabet=string.printable),  # mostly the all-printable fast path
)


@given(texts)
def test_pattern_and_counters_equal_their_oracles(text):
    expected = oracle_tokenize(text)
    bounds = tokenize(text)
    assert bounds == [(start, end) for _, start, end in expected]
    # non-empty, in start order and disjoint: what first_overlaps and bio_to_spans rely on
    assert all(start < end for start, end in bounds)
    assert all(prev[1] <= start for prev, (start, _) in zip(bounds, bounds[1:]))
    surfaces = token_surfaces(text)
    assert surfaces == [surface for surface, _, _ in expected]
    for s in surfaces + [text]:
        assert _clean_token(s) == oracle_clean_token(s)
    assert _printable_ratio(text) == oracle_printable_ratio(text)
    assert _repeat_ratio(surfaces) == oracle_repeat_ratio(surfaces)


ENTITIES = ("<TYPE='Patient_Name'>Asha</TYPE> <TYPE='Age'>44</TYPE> "
            "<TYPE='Date'>01-02-2024</TYPE>")  # 3 tokens


def words(n):
    return "".join(f" w{i}" for i in range(n))


def at_length(n_bad, length):
    """3 entity tokens, 97 distinct words, a pad word and a run of n_bad
    NULs (one token): `length` characters in all once the markup is gone."""
    body = ENTITIES + words(97)
    pad = length - len(parse_inline_xml(body).text) - 2 - n_bad
    return body + " " + "x" * pad + " " + "\x00" * n_bad


def repeated(n_again, n_total):
    """`again` in three cases n_again times among n_total tokens."""
    reps = "".join(f" {('again', 'Again', 'AGAIN')[i % 3]}" for i in range(n_again))
    return ENTITIES + reps + words(n_total - 3 - n_again)


@pytest.mark.parametrize("body,measure,value,code", [
    (ENTITIES + words(97), "tokens", 100, None),
    (ENTITIES + words(96), "tokens", 99, LENGTH_OUT_OF_BOUNDS),
    (ENTITIES + words(4497), "tokens", 4500, None),
    (ENTITIES + words(4498), "tokens", 4501, LENGTH_OUT_OF_BOUNDS),
    (at_length(90, 3000), "printable", 0.97, None),
    (at_length(91, 3000), "printable", 2909 / 3000, LOW_PRINTABLE_RATIO),
    (repeated(30, 200), "repeat", 0.15, None),
    (repeated(31, 200), "repeat", 31 / 200, HIGH_REPETITION),
], ids=["100", "99", "4500", "4501", "p97", "p97-", "r15", "r15+"])
def test_filter_gate_boundaries_match_oracle_gates(body, measure, value, code):
    policy = FilterPolicy()
    text = parse_inline_xml(body).text
    surfaces = [surface for surface, _, _ in oracle_tokenize(text)]
    measured = {"tokens": len(surfaces), "printable": oracle_printable_ratio(text),
                "repeat": oracle_repeat_ratio(surfaces)}
    assert measured[measure] == value
    assert oracle_gate_reason(text, policy) == code
    _, report = filter_outputs({"e:0": f"<RECORD>{body}</RECORD>"}, policy)
    assert report.rejects == ([] if code is None else [("e:0", code)])
