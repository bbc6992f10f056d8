import json
import tracemalloc

import numpy as np
import pytest

from eqdesign import poly
from eqdesign.poly import (DesignPoly, DimensionMismatch, common_multiplicity,
                           design_from_dict, dumps_design, format_words, loads_design,
                           mono_from_vars, mono_name, mono_parse, mono_str, to_dot)

from conftest import term_set

X1, X2, X3, X4 = 0b0001, 0b0010, 0b0100, 0b1000


def test_mono_words():
    assert mono_str(X1, 3) == "100"
    assert mono_str(0, 3) == "000"
    assert mono_parse("101") == 0b101
    assert mono_name(0) == "1"
    assert mono_name(X1 | X3) == "X1X3"
    with pytest.raises(ValueError):
        mono_parse("10a")
    assert mono_from_vars(1, 3) == X1 | X3
    with pytest.raises(ValueError, match="1-based"):
        mono_from_vars(0)


def test_mirror_figure_example():
    # reflection of 1 + X1 + X2 + X1X3 + X2X3 along X1
    p = DesignPoly.of(3, [0, X1, X2, X1 | X3, X2 | X3])
    assert term_set(p.mirror(X1)) == frozenset([X1, 0, X1 | X2, X3, X1 | X2 | X3])


def test_mirror_identity_and_involution():
    p = DesignPoly.of(3, [0, X1, X2 | X3])
    assert p.mirror(0) == p
    s = X1 | X3
    assert p.mirror(s).mirror(s) == p
    assert len(p.mirror(s)) == len(p)


def test_scalar_product():
    p = DesignPoly.of(2, [0, X1, X2])
    assert p.scalar(p) == 3
    q = DesignPoly.of(2, [X1, X1 | X2])
    assert DesignPoly.of(2, [0, X1]).scalar(q) == 1
    assert p.scalar(DesignPoly.zero(2)) == 0
    with pytest.raises(DimensionMismatch):
        p.scalar(DesignPoly.zero(3))


def test_edge_profile_examples():
    square = DesignPoly.of(2, [0b00, 0b01, 0b10, 0b11])
    assert square.edge_profile() == (2, 2)
    e42 = DesignPoly.of(4, [0, X1, X2, X1 | X2, X1 | X2 | X3, X1 | X2 | X4,
                            X1 | X2 | X3 | X4])
    assert e42.edge_profile() == (2, 2, 2, 2)
    lopsided = DesignPoly.of(3, [0, X1, X2, X1 | X3, X2 | X3])
    assert lopsided.edge_profile() == (1, 1, 2)


def test_is_equitable():
    square = DesignPoly.of(2, [0b00, 0b01, 0b10, 0b11])
    assert square.is_equitable() == 2
    lopsided = DesignPoly.of(3, [0, X1, X2, X1 | X3, X2 | X3])
    assert lopsided.is_equitable() is None
    with pytest.raises(ValueError, match="undefined for the empty design"):
        DesignPoly.zero(3).economy()


def test_common_multiplicity():
    assert common_multiplicity((2, 2, 2)) == 2
    assert common_multiplicity((0,)) == 0
    assert common_multiplicity((2, 1, 2)) is None


def test_complement():
    assert DesignPoly.full(3).complement() == DesignPoly.zero(3)
    star = DesignPoly.of(3, [0, X1, X2, X3])
    comp = star.complement()
    assert term_set(comp) == frozenset([X1 | X2, X1 | X3, X2 | X3, X1 | X2 | X3])
    assert comp.is_equitable() == (1 << 2) + 1 - 4  # = 1
    square = DesignPoly.of(2, [0b00, 0b01, 0b10, 0b11])
    assert square.complement().edge_profile() == (0, 0)


def test_permute():
    p = DesignPoly.of(2, [0, X1])
    assert term_set(p.permute([2, 1])) == frozenset([0, X2])
    assert p.permute([1, 2]) == p
    lopsided = DesignPoly.of(3, [0, X1, X2, X1 | X3, X2 | X3])
    # send direction 3 to 1
    rolled = lopsided.permute([2, 3, 1])
    assert sorted(rolled.edge_profile()) == sorted(lopsided.edge_profile())
    assert rolled.edge_profile()[0] == 2
    with pytest.raises(ValueError):
        p.permute([1, 1])


def test_shift():
    p = DesignPoly.of(1, [0, X1])
    assert term_set(p.shift(2, 3)) == frozenset([0, X3])
    assert p.shift(0, 1) == p
    q = DesignPoly.of(2, [0, X1, X2])
    assert term_set(q.shift(3, 5)) == frozenset([0, X4, 0b10000])
    with pytest.raises(ValueError):
        q.shift(4, 5)
    with pytest.raises(ValueError, match="non-negative"):
        q.shift(-1, 5)


def test_union_semantics():
    a = DesignPoly.of(2, [0, X1])
    b = DesignPoly.of(2, [X2])
    assert term_set(a.union_disjoint(b)) == frozenset([0, X1, X2])
    with pytest.raises(ValueError):
        a.union_disjoint(DesignPoly.of(2, [X1]))


def test_invalid_construction():
    with pytest.raises(ValueError):
        DesignPoly.of(2, [0b100])
    with pytest.raises(ValueError):
        DesignPoly.of(0, [])
    with pytest.raises(ValueError):
        DesignPoly.of(63, [0])
    with pytest.raises(ValueError, match=r"refusing to enumerate 2\^27"):
        DesignPoly.full(27)


def test_json_round_trip_byte_identical():
    p = DesignPoly.of(3, [X2, 0, X1 | X2 | X3, X1])
    text = dumps_design(p, family="G", m=1)
    design, meta = loads_design(text), json.loads(text)
    assert design == p
    again = dumps_design(design, family=meta["family"], m=meta["m"])
    assert again == text
    obj = json.loads(text)
    assert obj["terms"] == ["000", "100", "010", "111"]  # graded-lex order


def test_design_from_dict_validation():
    with pytest.raises(ValueError):
        design_from_dict({"d": 3, "terms": ["10"]})
    with pytest.raises(ValueError):
        design_from_dict({"terms": []})
    with pytest.raises(ValueError):
        design_from_dict({"d": 3, "terms": ["0a0"]})
    with pytest.raises(ValueError, match="duplicate"):
        design_from_dict({"d": 3, "terms": ["000", "000", "100"]})
    with pytest.raises(ValueError):
        design_from_dict({"d": 1, "terms": "01"})
    with pytest.raises(ValueError):
        design_from_dict({"d": 3, "terms": [5]})
    with pytest.raises(ValueError):
        design_from_dict({"d": True, "terms": ["1"]})
    assert term_set(design_from_dict({"d": 3, "terms": ["000"]})) == frozenset([0])


@pytest.mark.parametrize("obj, message", [
    ({"d": 3, "terms": ["0\u06610"]}, "not a binary word: '0\u06610'"),
    ({"d": 3, "terms": ["000", "01"]}, "term '01' has length 2, expected 3"),
    ({"d": 3, "terms": ["0a0", "01"]}, "not a binary word: '0a0'"),
    ({"d": 3, "terms": ["01", "0a0"]}, "term '01' has length 2, expected 3"),
    ({"d": 3, "terms": ["000", "100", "000"]}, "malformed design object: duplicate terms"),
    ({"d": 62, "terms": ["1" * 62, "0" * 62, "1" * 62]},
     "malformed design object: duplicate terms"),
    ({"d": True, "terms": ["1"]}, "ambient dimension must be in [1, 62], got True"),
    ({"d": True, "terms": ["1", "1"]}, "ambient dimension must be in [1, 62], got True"),
    ({"d": "3", "terms": ["010"]}, "ambient dimension must be in [1, 62], got '3'"),
    ({"d": "3", "terms": []}, "ambient dimension must be in [1, 62], got '3'"),
    ({"d": 3.0, "terms": ["010"]}, "ambient dimension must be in [1, 62], got 3.0"),
    ({"d": None, "terms": ["010"]}, "ambient dimension must be in [1, 62], got None"),
    ({"d": 63, "terms": ["1" * 63]}, "ambient dimension must be in [1, 62], got 63"),
    ({"d": 0, "terms": [""]}, "ambient dimension must be in [1, 62], got 0"),
    ({"d": 3, "terms": ["000", 5]},
     "malformed design object: 'terms' must be a list of binary words"),
    ({"d": 3, "terms": "000"},
     "malformed design object: 'terms' must be a list of binary words"),
    ([], "malformed design object: expected a JSON object, got list"),
    (5, "malformed design object: expected a JSON object, got int"),
    (None, "malformed design object: expected a JSON object, got NoneType"),
    ("x", "malformed design object: expected a JSON object, got str"),
    ({"d": 3, "terms": ["0\ud8000"]}, "not a binary word: '0\\ud8000'"),
    ({"d": 3, "terms": ["0\U0001d7d80"]}, "not a binary word: '0\U0001d7d80'"),
])
def test_design_from_dict_messages(obj, message):
    with pytest.raises(ValueError) as excinfo:
        design_from_dict(obj)
    assert str(excinfo.value) == message


# with two words a block, the first bad word lies in the second or third block
@pytest.mark.parametrize("words, message", [
    (["000", "100", "010", "0a0", "01", "110"], "not a binary word: '0a0'"),
    (["000", "100", "0a0", "010", "01", "110"], "not a binary word: '0a0'"),
    (["000", "100", "010", "110", "01", "0a0"], "term '01' has length 2, expected 3"),
])
def test_design_from_dict_reports_the_first_bad_word_across_blocks(monkeypatch, words, message):
    monkeypatch.setattr(poly, "_WORDS_PER_BLOCK", 2)
    with pytest.raises(ValueError) as excinfo:
        design_from_dict({"d": 3, "terms": words})
    assert str(excinfo.value) == message


def test_design_from_dict_parses_in_bounded_memory():
    n, d = 4 * poly._WORDS_PER_BLOCK, 62
    values = np.arange(n, dtype=np.int64) << 40
    obj = {"d": d, "terms": format_words(values, d)}
    tracemalloc.start()
    try:
        design = design_from_dict(obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(design.sorted_terms, values)
    # the int64 array, plus a few bytes per character of one block
    assert peak < 8 * n + 4 * poly._WORDS_PER_BLOCK * d


def test_design_from_dict_reads_full_width_words():
    words = ["0" * 62, "1" + "0" * 61, "0" * 61 + "1", "1" * 62]
    design = design_from_dict({"d": 62, "terms": words})
    assert design.sorted_terms.tolist() == [0, 1, 1 << 61, (1 << 62) - 1]


def test_dot_export():
    square = DesignPoly.of(2, [0b00, 0b01, 0b10, 0b11])
    dot = to_dot(square, name="sq")
    assert dot.startswith("graph sq {")
    # words put X1 first, so "10" is the monomial X1
    assert {line for line in dot.splitlines() if "--" in line} == {
        '  "00" -- "10" [dir=1];', '  "01" -- "11" [dir=1];',
        '  "00" -- "01" [dir=2];', '  "10" -- "11" [dir=2];'}


def test_edges_listing():
    square = DesignPoly.of(2, [0b00, 0b01, 0b10, 0b11])
    rows, cols, starts = square.grlex_pairs
    terms = square.ordered_terms
    edges = {(int(terms[lo]), int(terms[up]), i + 1)
             for i, (start, end) in enumerate(zip(starts, starts[1:]))
             for lo, up in zip(rows[start:end], cols[start:end])}
    assert edges == {(0b00, 0b01, 1), (0b10, 0b11, 1),
                     (0b00, 0b10, 2), (0b01, 0b11, 2)}
