import itertools
import json
import re
import tracemalloc

import numpy as np
import pytest

from eqdesign import poly
from eqdesign.families import generate
from eqdesign.poly import (DesignPoly, common_multiplicity, design_from_dict, dumps_design,
                           format_words, loads_design, mono_from_vars, mono_parse, mono_str,
                           to_dot)

from conftest import term_set

X1, X2, X3, X4 = 0b0001, 0b0010, 0b0100, 0b1000


def test_mono_words():
    assert mono_str(X1, 3) == "100"
    assert mono_str(0, 3) == "000"
    assert mono_parse("101") == 0b101
    with pytest.raises(ValueError):
        mono_parse("10a")
    assert mono_from_vars(1, 3) == X1 | X3
    for i in (0, -1, 1.5, True):
        with pytest.raises(ValueError, match=f"^variable index must be an int >= 1, got {re.escape(repr(i))}$"):
            mono_from_vars(i)


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
    with pytest.raises(ValueError, match=r"^dimensions differ: 2 vs 3$"):
        p.scalar(DesignPoly.zero(3))


def test_designs_differing_in_terms_or_dimension_are_unequal():
    assert DesignPoly.of(3, [0, X1]) != DesignPoly.of(3, [0, X2])
    assert DesignPoly.of(2, [0, X1]) != DesignPoly.of(3, [0, X1])
    assert DesignPoly.of(3, [0, X1]) == DesignPoly.of(3, [X1, 0])
    # another type is never equal to a design
    assert not DesignPoly.of(2, [0]) == 0
    assert DesignPoly.of(2, [0]) != "x"


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


def test_complement_enumerates_up_to_max_enum_dim(monkeypatch):
    monkeypatch.setattr(poly, "MAX_ENUM_DIM", 3)
    assert len(DesignPoly.zero(3).complement()) == 8
    with pytest.raises(ValueError, match=r"^refusing to enumerate 2\^4 vertices$"):
        DesignPoly.zero(4).complement()


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


@pytest.mark.parametrize("s", [np.uint64(5), np.int64(5), np.uint8(5)], ids=repr)
def test_a_monomial_of_any_integer_type_is_an_int(s):
    assert poly.check_monomial(s, 6) == 5 and type(poly.check_monomial(s, 6)) is int
    assert mono_str(s, 6) == "101000"
    base = generate("M", 6, 2)
    assert base.mirror(s) == base.mirror(5)
    perm = (2, 3, 1, 6, 4, 5)
    image = base.image(s, perm)
    assert image == base.image(5, perm)
    assert image.grlex_pairs[2] == base.image(5, perm).grlex_pairs[2]


@pytest.mark.parametrize("kind", [np.int64, np.uint8], ids=lambda kind: kind.__name__)
def test_a_permutation_entry_of_any_integer_type_is_an_int(kind):
    # H(12, 37) has 228 vertices, so a uint8 sort key direction * 228 + row would wrap
    base, perm = generate("H", 12, 37), (12, 1, 11, 2, 10, 3, 9, 4, 8, 5, 7, 6)
    expected = base.image(5, perm)
    for other in (tuple(map(kind, perm)), (kind(perm[0]),) + perm[1:]):
        assert base.permute(other) == base.permute(perm)
        image = base.image(5, other)
        assert image == expected
        assert all(np.array_equal(got, want) for got, want in
                   zip(image.grlex_pairs[:2], expected.grlex_pairs[:2]))
        assert image.grlex_pairs[2] == expected.grlex_pairs[2]


@pytest.mark.parametrize("perm", [(2.0, 1.0, 3, 4, 5, 6), (np.float64(2.0), 1, 3, 4, 5, 6),
                                  (2, True, 3, 4, 5, 6), (True, 2, 3, 4, 5, 6),
                                  ("2", "1", "3", "4", "5", "6"), (2, 2, 3, 4, 5, 6),
                                  (2, 1, 3, 4, 5)], ids=repr)
def test_a_permutation_that_is_not_of_ints_is_refused(perm):
    base = generate("M", 6, 2)
    message = f"^not a permutation of 1..6: {re.escape(repr(list(perm)))}$"
    for use in (lambda: base.permute(perm), lambda: base.image(0, perm)):
        with pytest.raises(ValueError, match=message):
            use()


@pytest.mark.parametrize("s", [5.0, True, False, "5", None, np.float64(5.0), np.bool_(True)],
                         ids=repr)
def test_a_monomial_that_is_not_an_int_is_refused(s):
    base = generate("M", 6, 2)
    message = f"^a monomial must be an int, got {re.escape(repr(s))}$"
    for use in (lambda: poly.check_monomial(s, 6), lambda: base.mirror(s),
                lambda: base.image(s, (1, 2, 3, 4, 5, 6)), lambda: mono_str(s, 6)):
        with pytest.raises(ValueError, match=message):
            use()


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
    ({"d": True, "terms": ["1"]}, "ambient dimension must be an int in [1, 62], got True"),
    ({"d": True, "terms": ["1", "1"]}, "ambient dimension must be an int in [1, 62], got True"),
    ({"d": "3", "terms": ["010"]}, "ambient dimension must be an int in [1, 62], got '3'"),
    ({"d": "3", "terms": []}, "ambient dimension must be an int in [1, 62], got '3'"),
    ({"d": 3.0, "terms": ["010"]}, "ambient dimension must be an int in [1, 62], got 3.0"),
    ({"d": None, "terms": ["010"]}, "ambient dimension must be an int in [1, 62], got None"),
    ({"d": 63, "terms": ["1" * 63]}, "ambient dimension must be an int in [1, 62], got 63"),
    ({"d": 0, "terms": [""]}, "ambient dimension must be an int in [1, 62], got 0"),
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


@pytest.mark.parametrize("name", ['a"b; x', "", "1abc", "a-b", "a b", "H_8_4\n", "é",
                                  "graph", "Strict", None, 7])
def test_dot_refuses_a_name_that_is_not_a_dot_id(name):
    with pytest.raises(ValueError, match=r"^graph name must match \[A-Za-z_\]\[A-Za-z_0-9\]\* "
                                         r"and not be a DOT keyword, got "):
        to_dot(DesignPoly.of(2, [0, 1]), name=name)


@pytest.mark.parametrize("name", ["H_8_4", "path_20_1", "_", "design", "graph_1"])
def test_dot_writes_a_dot_id_as_is(name):
    assert to_dot(DesignPoly.of(2, [0, 1]), name=name).startswith(f"graph {name} {{\n")


def test_edges_listing():
    square = DesignPoly.of(2, [0b00, 0b01, 0b10, 0b11])
    rows, cols, starts = square.grlex_pairs
    terms = square.ordered_terms
    edges = {(int(terms[lo]), int(terms[up]), i + 1)
             for i, (start, end) in enumerate(zip(starts, starts[1:]))
             for lo, up in zip(rows[start:end], cols[start:end])}
    assert edges == {(0b00, 0b01, 1), (0b10, 0b11, 1),
                     (0b00, 0b10, 2), (0b01, 0b11, 2)}


def test_edge_offsets_are_python_ints_summing_the_profile():
    searched = generate("H", 9, 5)
    for design in (searched, searched.image(0b101, (9, 1, 8, 2, 7, 3, 6, 4, 5))):
        starts = design.grlex_pairs[2]
        assert type(starts) is list and all(type(k) is int for k in starts)
        assert starts == [0, *itertools.accumulate(design.edge_profile())]
