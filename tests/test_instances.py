import hashlib
import json
import math
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from kfusion.frames import verify_k_fusion
from kfusion.instances import (
    canonical_text,
    document_digest,
    instance_digest,
    instance_from_document,
    load_instance,
    parse_number,
    random_instance,
    save_instance,
)
from kfusion.numerics import ToleranceProfile, numerical_rank

from conftest import traced_peak

DATA = resources.files("kfusion") / "data"


def bundled_path(name):
    return str(DATA / name)


def bundled_document(name):
    return json.loads((DATA / name).read_text())


# ------------------------------------------------------------------- parsing


def test_rational_entries_parse_exactly():
    assert parse_number("1/2", "x") == 0.5
    assert parse_number("-3/4", "x") == -0.75
    assert parse_number("0.25", "x") == 0.25
    assert parse_number(2, "x") == 2.0


def test_bad_rational_names_the_field():
    with pytest.raises(ValueError, match="k_matrix row 0"):
        doc = bundled_document("example_r3.json")
        doc["k_matrix"]["entries"][0][0] = "one half"
        instance_from_document(doc)


def test_bad_entry_names_its_index():
    doc = bundled_document("example_r3.json")
    doc["k_matrix"]["entries"][2][1] = "two thirds"
    with pytest.raises(ValueError) as info:
        instance_from_document(doc)
    assert str(info.value) == "k_matrix row 2[1]: cannot parse 'two thirds' as a rational"
    doc = bundled_document("example_r3.json")
    doc["systems"]["W"]["members"][0]["span"][1][2] = True
    with pytest.raises(ValueError) as info:
        instance_from_document(doc)
    assert str(info.value) == "system 'W' member 0 span vector 1[2]: expected a number, got a boolean"


def test_float_rows_parse_as_their_exact_rational_strings():
    """Rows of JSON floats, taken by numpy in one call, equal the same rows parsed scalar by scalar."""
    doc = random_instance(3, 5, 4, 3).document
    text = json.dumps(doc)
    as_floats = instance_from_document(json.loads(text))
    as_strings = instance_from_document(json.loads(text, parse_float=lambda s: str(Fraction(s))))
    np.testing.assert_array_equal(as_floats.k_matrix, as_strings.k_matrix)
    for name, system in as_floats.systems.items():
        for (got, _), (want, _) in zip(system.members, as_strings.systems[name].members):
            np.testing.assert_array_equal(got.basis, want.basis)


def test_a_float_row_whose_sum_overflows_still_parses():
    doc = json.loads((DATA / "example_r3.json").read_text())
    doc["k_matrix"]["entries"][0] = [1e308, 1e308, 0.0]
    np.testing.assert_array_equal(instance_from_document(doc).k_matrix[0], [1e308, 1e308, 0.0])


def test_bundled_r3_matches_worked_data():
    inst = load_instance(bundled_path("example_r3.json"))
    np.testing.assert_array_equal(
        inst.k_matrix, [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    )
    assert set(inst.systems) == {"W", "V", "V0", "Z"}
    assert inst.system("W").dims() == [2, 1, 1]
    assert inst.system("Z").dims() == [2, 2, 1]
    assert inst.options["perturbation"]["lambda1"] == "1/10"


def test_bundled_r4_kills_the_fourth_coordinate():
    inst = load_instance(bundled_path("example_r4.json"))
    assert inst.ambient_dim == 4
    np.testing.assert_array_equal(inst.k_matrix @ np.eye(4)[:, 3], np.zeros(4))
    assert inst.system("W").dims() == [2, 1]


def test_spanning_sets_are_orthonormalized_on_load():
    inst = load_instance(bundled_path("example_r3.json"))
    basis = inst.system("W").members[0][0].basis
    np.testing.assert_allclose(basis.T @ basis, np.eye(2), atol=1e-12)


def test_nonpositive_weight_rejected_naming_the_member():
    doc = bundled_document("example_r3.json")
    doc["systems"]["W"]["members"][1]["weight"] = "0"
    with pytest.raises(ValueError, match="system 'W' member 1"):
        instance_from_document(doc)


def test_wrong_span_length_names_the_vector():
    doc = bundled_document("example_r3.json")
    doc["systems"]["V"]["members"][0]["span"][0] = ["1", "0"]
    with pytest.raises(ValueError, match="system 'V' member 0 span vector 0"):
        instance_from_document(doc)


def test_k_row_count_must_match_ambient_dim():
    doc = bundled_document("example_r3.json")
    doc["ambient_dim"] = 2
    with pytest.raises(ValueError, match="k_matrix"):
        instance_from_document(doc)


def test_system_w_is_required():
    doc = bundled_document("example_r3.json")
    doc["systems"] = {"A": doc["systems"]["W"]}
    with pytest.raises(ValueError, match="'W'"):
        instance_from_document(doc)


def test_parse_error_reports_the_line(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{\n  "ambient_dim": 3,\n}\n')
    with pytest.raises(ValueError, match="line 3"):
        load_instance(bad)


def test_unknown_system_lookup(tmp_path):
    inst = load_instance(bundled_path("example_r3.json"))
    with pytest.raises(ValueError, match="no system named"):
        inst.system("Q")


# ----------------------------------------------------------------- round trip


def test_save_load_round_trip_is_content_identical(tmp_path):
    source = bundled_path("example_r3.json")
    inst = load_instance(source)
    copy = tmp_path / "copy.json"
    save_instance(inst, copy)
    assert copy.read_text() == (DATA / "example_r3.json").read_text()
    assert instance_digest(load_instance(copy)) == instance_digest(inst)


def test_digest_tracks_content():
    doc = bundled_document("example_r3.json")
    base = instance_digest(instance_from_document(doc))
    doc["comment"] = "edited"
    assert instance_digest(instance_from_document(doc)) != base
    assert len(base) == 64


def test_an_override_profile_is_saved_and_read_back(tmp_path):
    document = random_instance(3, 5, 4, 3).document
    tol = ToleranceProfile(rank_rel=1e-6, eq_abs=1e-4, eq_rel=1e-3)
    inst = instance_from_document(document, tol)
    path = tmp_path / "random.json"
    save_instance(inst, path)
    assert "options" not in inst.document  # the copy is written, the document kept
    again = load_instance(path)
    assert again.tol == inst.tol
    cert, again_cert = (verify_k_fusion(i.system("W"), i.k_matrix, i.tol) for i in (inst, again))
    assert again_cert.passed == cert.passed
    assert again_cert.bounds == cert.bounds
    # under the document's own profile the written bytes are the canonical text
    save_instance(again, path)
    assert path.read_text() == canonical_text(again.document)


# ------------------------------------------------------------- canonical text


class _Dict(dict):
    pass


class _List(list):
    pass


_FLOATS = st.floats() | st.sampled_from([-0.0, math.nan, math.inf, -math.inf])
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), _FLOATS, _FLOATS.map(np.float64), st.text()
)
# rows take the one-piece path when every entry is a finite float and their sum is finite
_ROWS = st.one_of(
    st.lists(_FLOATS, min_size=1),
    st.lists(st.floats(1e308, 1.7e308), min_size=2),  # finite entries, overflowing sum
    st.lists(_FLOATS | st.integers() | st.booleans(), min_size=1),
)
# keys of one type per dict, so that they sort; json converts the non-string ones
_KEYS = (st.text(), st.integers(), st.floats(), st.booleans(), st.none())


def _containers(children):
    lists = st.lists(children, max_size=4)
    dicts = st.one_of(*(st.dictionaries(keys, children, max_size=4) for keys in _KEYS))
    return st.one_of(lists, lists.map(tuple), lists.map(_List), dicts, dicts.map(_Dict))


_DOCUMENTS = st.recursive(
    _LEAVES | _ROWS | _ROWS.map(tuple) | _ROWS.map(_List), _containers, max_leaves=30
)


def _assert_stdlib_text(doc):
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert canonical_text(doc) == text
    assert document_digest(doc) == hashlib.sha256(text.encode()).hexdigest()


@seed(32)
@settings(deadline=None, max_examples=400)
@given(_DOCUMENTS)
def test_canonical_text_is_the_stdlib_encoding_byte_for_byte(doc):
    _assert_stdlib_text(doc)


@pytest.fixture(scope="module")
def large_instance():
    """The n = 64, m = 32, rank-64 instance, about 2 MB of canonical text."""
    return random_instance(5, 64, 32, 64)


@pytest.mark.parametrize(
    "name", ["example_r3.json", "example_r4.json", None], ids=["r3", "r4", "random-5-64-32-64"]
)
def test_canonical_text_of_an_instance_is_the_stdlib_encoding(large_instance, name):
    _assert_stdlib_text(large_instance.document if name is None else bundled_document(name))


def test_digest_and_save_hold_no_copy_of_the_text(large_instance, tmp_path):
    # the stdlib encoder's chunk list for this document peaks near 7.5 MB
    path = tmp_path / "large.json"
    assert traced_peak(lambda: document_digest(large_instance.document)) < 0.5e6
    assert traced_peak(lambda: save_instance(large_instance, path)) < 0.5e6
    assert path.read_text() == canonical_text(large_instance.document)


# ------------------------------------------------------------------ generator


def test_random_instance_is_deterministic():
    a = random_instance(0, 4, 3, 2)
    b = random_instance(0, 4, 3, 2)
    assert instance_digest(a) == instance_digest(b)
    assert instance_digest(a) != instance_digest(random_instance(1, 4, 3, 2))
    # the seed is named in the comment only; no option carries it
    assert a.document["comment"] == "seeded random instance (seed=0)"
    assert "options" not in a.document and a.options == {}


def test_random_instance_round_trips_through_files(tmp_path):
    inst = random_instance(3, 5, 4, 3)
    path = tmp_path / "random.json"
    save_instance(inst, path)
    again = load_instance(path)
    np.testing.assert_array_equal(again.k_matrix, inst.k_matrix)
    assert instance_digest(again) == instance_digest(inst)


def test_random_instance_hits_prescribed_rank():
    for rank in (0, 2, 4):
        inst = random_instance(7, 4, 3, rank)
        assert numerical_rank(inst.k_matrix) == rank


def test_full_rank_k_reduces_to_fusion_frame_check():
    inst = random_instance(11, 4, 4, 4)
    assert numerical_rank(inst.k_matrix) == 4
    cert = verify_k_fusion(inst.system("W"), inst.k_matrix)
    identity = verify_k_fusion(inst.system("W"), np.eye(4))
    assert cert.passed == identity.passed


def test_random_instance_rejects_infeasible_dims():
    with pytest.raises(ValueError):
        random_instance(0, 4, 3, 5)
    with pytest.raises(ValueError):
        random_instance(0, 0, 3, 0)
    with pytest.raises(ValueError):
        random_instance(0, 4, 0, 2)


def test_verify_rate_over_seeds_is_recorded():
    # empirical generator health metric, recorded rather than asserted
    verified = 0
    total = 100
    for seed in range(total):
        dim = 3 + seed % 6
        inst = random_instance(seed, dim, 3, 2)
        if verify_k_fusion(inst.system("W"), inst.k_matrix).passed:
            verified += 1
    print(f"random instances verified as K-fusion frames: {verified}/{total}")
    assert 0 <= verified <= total
