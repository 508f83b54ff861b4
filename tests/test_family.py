"""Family descriptions: parsing, catalog, realization, SLD conversions."""

import copy
import json

import pytest

from sldgf import (BUILTIN_FAMILIES, FamilyError, Graph, LaurentPoly3, SLD,
                   builtin, parse_family_spec, poly_from_terms, realize,
                   serialize_family_spec, sld_from_wep, wep_from_sld)

from conftest import brute_sectors
from test_custom_family import CATERPILLAR

X = LaurentPoly3.var("x")
Y = LaurentPoly3.var("y")
ONE = LaurentPoly3.const(1)


def path_spec_document() -> dict:
    """Hand-written description of the chain family: cut the last vertex,
    glue two connected vertices."""
    return {
        "name": "path",
        "base_graph": {"n": 2, "edges": [[0, 1]]},
        "boundary": [1],
        "replacement": {"n": 2, "edges": [[0, 1]]},
        "glue_map": {"1": 0},
        "next_boundary_map": {"1": 1},
        "prefix_weps": [LaurentPoly3.const(1).to_json(), (X + Y).to_json()],
        "recursion_start": 2,
        "qubit_count": {"offset": 0, "step": 1},
    }


def isolated_vertex_document() -> dict:
    """Empty boundary and one fresh vertex a step: member r is r isolated
    vertices."""
    return {
        "name": "isolated", "base_graph": {"n": 1, "edges": []},
        "boundary": [], "replacement": {"n": 1, "edges": []},
        "glue_map": {}, "next_boundary_map": {},
        "prefix_weps": [ONE.to_json()], "recursion_start": 1,
        "qubit_count": {"offset": 0, "step": 1},
    }


def _bad_documents() -> dict:
    """Documents with a non-integral or negative size or index. int() used
    to truncate each into another family that passed validation."""
    docs = {name: copy.deepcopy(CATERPILLAR)
            for name in ("n", "boundary", "glue_map")}
    docs["n"]["base_graph"]["n"] = 1.9
    docs["boundary"]["boundary"] = [0.5]
    docs["glue_map"]["glue_map"] = {"0": 1.5}
    docs["offset"] = path_spec_document()
    docs["offset"]["qubit_count"]["offset"] = 0.7
    docs["prefix_weps"] = path_spec_document()
    docs["prefix_weps"]["prefix_weps"][1]["terms"][1]["e"] = [1.7, 0, 0]
    docs["negative_n"] = isolated_vertex_document()
    docs["negative_n"]["base_graph"]["n"] = -1
    docs["negative_n"]["qubit_count"]["offset"] = -2
    return docs


BAD_DOCUMENTS = _bad_documents()


class TestParsing:
    def test_path_document_matches_builtin(self):
        assert parse_family_spec(json.dumps(path_spec_document())) == \
            builtin("path")

    def test_cycle_document_matches_builtin(self):
        doc = {
            "name": "cycle",
            "base_graph": {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]},
            "boundary": [0, 2],
            "replacement": {"n": 3, "edges": [[0, 1], [1, 2]]},
            "glue_map": {"0": 0, "2": 2},
            "next_boundary_map": {"0": 0, "2": 1},
            "prefix_weps": [ONE.to_json(), (X + Y).to_json(),
                            ((X + Y) * (X + Y)).to_json()],
            "recursion_start": 3,
            "qubit_count": {"offset": 0, "step": 1},
        }
        assert parse_family_spec(json.dumps(doc)) == builtin("cycle")

    def test_round_trip_is_identity_on_builtins(self):
        for name in BUILTIN_FAMILIES:
            spec = builtin(name)
            assert parse_family_spec(serialize_family_spec(spec)) == spec

    def test_serialisation_is_byte_stable(self):
        for name in BUILTIN_FAMILIES:
            text = serialize_family_spec(builtin(name))
            again = serialize_family_spec(parse_family_spec(text))
            assert text == again

    def test_non_injective_glue_map_rejected(self):
        doc = {
            "name": "bad",
            "base_graph": {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]},
            "boundary": [0, 2],
            "replacement": {"n": 3, "edges": [[0, 1], [1, 2]]},
            "glue_map": {"0": 0, "2": 0},
            "next_boundary_map": {"0": 0, "2": 1},
            "prefix_weps": [ONE.to_json(), (X + Y).to_json(),
                            ((X + Y) * (X + Y)).to_json()],
            "recursion_start": 3,
            "qubit_count": {"offset": 0, "step": 1},
        }
        with pytest.raises(FamilyError, match="injective"):
            parse_family_spec(json.dumps(doc))

    def test_mismatched_next_boundary_subgraph_rejected(self):
        doc = path_spec_document()
        # boundary of the base edge is adjacent to nothing it maps onto:
        # force a two-vertex boundary whose image is not an edge
        doc["base_graph"] = {"n": 2, "edges": [[0, 1]]}
        doc["boundary"] = [0, 1]
        doc["replacement"] = {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}
        doc["glue_map"] = {"0": 0, "1": 1}
        doc["next_boundary_map"] = {"0": 0, "1": 2}
        doc["qubit_count"] = {"offset": -2, "step": 2}
        with pytest.raises(FamilyError, match="induce"):
            parse_family_spec(json.dumps(doc))

    def test_replacement_smaller_than_boundary_rejected(self):
        doc = path_spec_document()
        doc["boundary"] = [0, 1]
        doc["glue_map"] = {"0": 0, "1": 1}
        doc["next_boundary_map"] = {"0": 0, "1": 1}
        doc["replacement"] = {"n": 1, "edges": []}
        with pytest.raises(FamilyError):
            parse_family_spec(json.dumps(doc))

    def test_missing_field_rejected(self):
        doc = path_spec_document()
        del doc["glue_map"]
        with pytest.raises(FamilyError, match="missing"):
            parse_family_spec(json.dumps(doc))

    def test_invalid_json_rejected(self):
        with pytest.raises(FamilyError, match="JSON"):
            parse_family_spec("{not json")

    @pytest.mark.parametrize("text", ["5", "\"x\"", "null", "[1]"])
    def test_non_object_document_rejected(self, text):
        with pytest.raises(FamilyError, match="must be a JSON object"):
            parse_family_spec(text)

    @pytest.mark.parametrize("case", sorted(BAD_DOCUMENTS))
    def test_non_integral_or_negative_values_rejected(self, case):
        with pytest.raises(FamilyError):
            parse_family_spec(json.dumps(BAD_DOCUMENTS[case]))

    @pytest.mark.parametrize("value", [2.0, "2"])
    def test_integral_values_in_other_forms_accepted(self, value):
        doc = path_spec_document()
        doc["base_graph"]["n"] = value
        doc["recursion_start"] = value
        assert parse_family_spec(json.dumps(doc)) == builtin("path")

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(FamilyError, match="negative vertex count"):
            Graph.from_edges(-1, [])

    def test_unknown_builtin_rejected(self):
        with pytest.raises(FamilyError, match="unknown"):
            builtin("moebius")


class TestCatalog:
    def test_path_and_star_qubit_law(self):
        for name in ("path", "star"):
            spec = builtin(name)
            assert spec.recursion_start == 2
            assert [spec.qubit_count(r) for r in (1, 2, 7)] == [1, 2, 7]

    def test_cycle_prefix(self):
        spec = builtin("cycle")
        assert spec.recursion_start == 3
        assert spec.prefix_weps == (ONE, X + Y, (X + Y) * (X + Y))

    def test_pusteblume_first_member_has_four_qubits(self):
        spec = builtin("pusteblume")
        assert spec.qubit_count(1) == 4
        g = realize(spec, 1)
        assert g.vertex_count == 4
        assert sorted(g.degrees()) == [1, 1, 1, 3]

    def test_every_builtin_validates(self):
        for name in BUILTIN_FAMILIES:
            builtin(name).validate()


class TestRealize:
    def test_path_member_four_is_a_chain(self):
        g = realize(builtin("path"), 4)
        assert g.vertex_count == 4
        assert g.sorted_edges() == [(0, 1), (1, 2), (2, 3)]

    def test_cycle_member_five_is_a_five_cycle(self):
        g = realize(builtin("cycle"), 5)
        assert g.vertex_count == 5
        assert g.degrees() == [2] * 5

    def test_cycle_is_vertex_transitive_from_three_up(self):
        spec = builtin("cycle")
        for r in range(3, 13):
            assert realize(spec, r).degrees() == [2] * r

    def test_cycle_prefix_member_two_isolated(self):
        g = realize(builtin("cycle"), 2)
        assert g.vertex_count == 2
        assert not g.edges

    def test_joint_squares_first_member_is_a_four_cycle(self):
        g = realize(builtin("joint_squares"), 1)
        four_cycle = Graph.from_edges(4, [[0, 1], [1, 2], [2, 3], [0, 3]])
        assert brute_sectors(g.vertex_count, g.sorted_edges()) == \
            brute_sectors(4, four_cycle.sorted_edges())

    def test_vertex_count_follows_qubit_law(self):
        for name in BUILTIN_FAMILIES:
            spec = builtin(name)
            r = 1
            while spec.qubit_count(r) <= 14:
                try:
                    g = realize(spec, r)
                except FamilyError:
                    r += 1
                    continue
                assert g.vertex_count == spec.qubit_count(r), (name, r)
                r += 1

    def test_member_below_defined_range_rejected(self):
        with pytest.raises(FamilyError):
            realize(builtin("joint_squares"), -1)
        spec = parse_family_spec(json.dumps(path_spec_document()))
        with pytest.raises(FamilyError, match="no defined graph"):
            realize(spec, 1)  # parsed specs carry no prefix graphs

    def test_grid_member_three_is_three_by_two(self):
        g = realize(builtin("grid_2"), 3)
        assert g.vertex_count == 6
        assert sorted(g.degrees()) == [2, 2, 2, 2, 3, 3]
        assert len(g.sorted_edges()) == 7

    def test_joint_squares_member_two_shares_one_corner(self):
        g = realize(builtin("joint_squares"), 2)
        assert g.vertex_count == 7
        assert sorted(g.degrees()) == [2, 2, 2, 2, 2, 2, 4]
        assert len(g.sorted_edges()) == 8


class TestConversions:
    def test_bell_pair(self):
        wep = wep_from_sld(SLD((1, 0, 3)))
        assert wep == poly_from_terms([(2, 0, 0, 1), (0, 2, 0, 3)])
        assert sld_from_wep(wep) == SLD((1, 0, 3))

    def test_empty_graph(self):
        assert wep_from_sld(SLD((1,))) == ONE

    def test_three_chain(self):
        wep = poly_from_terms([(3, 0, 0, 1), (1, 2, 0, 3), (0, 3, 0, 4)])
        assert sld_from_wep(wep).sectors == (1, 0, 3, 4)
        assert sld_from_wep(wep).sectors == brute_sectors(3, [(0, 1), (1, 2)])

    def test_non_homogeneous_rejected(self):
        with pytest.raises(FamilyError, match="homogeneous"):
            sld_from_wep(X * X + Y)

    def test_negative_coefficients_rejected(self):
        with pytest.raises(FamilyError):
            sld_from_wep(X - Y)

    def test_sld_invariants_enforced(self):
        with pytest.raises(FamilyError):
            SLD((2, 0, 2))
        with pytest.raises(FamilyError):
            SLD((1, 2))
        with pytest.raises(FamilyError):
            SLD((1, -1, 4))
