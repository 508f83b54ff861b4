"""Family descriptions: parsing, catalog, realization, SLD conversions."""

import copy
import json
import re

import pytest

from sldgf import (BUILTIN_FAMILIES, FamilyError, Graph, LaurentPoly3, SLD,
                   builtin, parse_family_spec, poly_from_terms, realize,
                   serialize_family_spec, sld_from_wep, wep_from_sld)

from conftest import brute_sectors
from test_custom_family import CATERPILLAR, LADDER_3

X = LaurentPoly3.var("x")
Y = LaurentPoly3.var("y")
Z = LaurentPoly3.var("z")
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


def still_document() -> dict:
    """The caterpillar with a one-vertex replacement: the family does not
    grow, and every member has one qubit."""
    return {**copy.deepcopy(CATERPILLAR), "name": "still",
            "replacement": {"n": 1, "edges": []},
            "next_boundary_map": {"0": 0},
            "qubit_count": {"offset": 1, "step": 0}}


def _bad_documents() -> dict:
    """Documents that break one rule each, with the FamilyError message
    that names it.

    The first group has a non-integral or negative size or index, which
    int() used to truncate into another family that passed validation, or
    a string where a list or an object belongs, which was iterated as one
    or failed with an AttributeError, or a number with a zero denominator,
    which ended in a ZeroDivisionError traceback. The second group is the
    caterpillar, or the path where a prefix member is wanted, with one rule of
    Graph.from_edges or FamilySpec.validate broken. The third group was
    read as another family: a JSON boolean read as the number 0 or 1, a
    boundary vertex named twice in a map (the last one won), and a prefix
    member with more qubits than the qubit law gives it.
    """
    docs = {}

    def bad(case, message, document=CATERPILLAR):
        docs[case] = (copy.deepcopy(document), message)
        return docs[case][0]

    def not_integer(value):
        return f"malformed family spec: {value} is not an integer"

    bad("n", not_integer(1.9))["base_graph"]["n"] = 1.9
    bad("boundary", not_integer(0.5))["boundary"] = [0.5]
    bad("glue_map", not_integer(1.5))["glue_map"] = {"0": 1.5}
    bad("offset", not_integer(0.7),
        path_spec_document())["qubit_count"]["offset"] = 0.7
    bad("prefix_weps", not_integer(1.7), path_spec_document())[
        "prefix_weps"][1]["terms"][1]["e"] = [1.7, 0, 0]
    doc = bad("negative_n", "negative vertex count -1",
              isolated_vertex_document())
    doc["base_graph"]["n"] = -1
    doc["qubit_count"]["offset"] = -2
    bad("zero_denominator_c", "malformed family spec: zero denominator "
        "in '1/0'")["prefix_weps"][0]["terms"][0]["c"] = "1/0"
    bad("zero_denominator_n", "malformed family spec: zero denominator "
        "in '2/0'")["base_graph"]["n"] = "2/0"
    bad("string_boundary", "family spec field 'boundary' must be a JSON "
        "list")["boundary"] = "0"
    bad("string_edge", "edge '01' is not a pair")[
        "replacement"]["edges"][0] = "01"
    bad("string_exponent", "malformed family spec: bad exponent triple "
        "'000'")["prefix_weps"][0]["terms"][0]["e"] = "000"
    bad("string_prefix_weps", "family spec field 'prefix_weps' must be a "
        "JSON list")["prefix_weps"] = "ab"
    bad("string_glue_map", "family spec field 'glue_map' must be a JSON "
        "object")["glue_map"] = "x"

    doc = bad("self_loop", "self-loop at vertex 2")
    doc["replacement"]["edges"][1] = [2, 2]
    doc = bad("edge_range", "edge (0, 1) outside vertex range")
    doc["base_graph"]["edges"] = [[0, 1]]
    # two boundary vertices leave one fresh vertex a step
    doc = bad("repeated_boundary", "boundary vertices must be distinct")
    doc["boundary"] = [0, 0]
    doc["qubit_count"] = {"offset": 0, "step": 1}
    doc = bad("outer_boundary", "boundary vertex outside the base graph")
    doc["boundary"] = [1]
    doc["glue_map"], doc["next_boundary_map"] = {"1": 0}, {"1": 1}
    doc = bad("map_keys", "glue_map must be keyed exactly by the boundary")
    doc["glue_map"] = {"0": 0, "1": 2}
    doc = bad("recursion_start", "recursion_start must be at least 1")
    doc.update(recursion_start=0, prefix_weps=[])
    doc["qubit_count"]["offset"] = 1
    doc = bad("prefix_count", "prefix_weps must list the weight enumerators "
              "of members 0 .. recursion_start-1")
    doc["prefix_weps"] *= 2
    doc = bad("prefix_one", "the index-0 weight enumerator must be 1")
    doc["prefix_weps"] = [X.to_json()]
    # member 2 is the base graph, so member 1 is a prefix member
    doc = bad("prefix_z", "prefix weight enumerators must not involve z")
    doc.update(recursion_start=2,
               prefix_weps=[ONE.to_json(), (X * Z).to_json()])
    doc["qubit_count"]["offset"] = -3
    # a prefix member must be the weight enumerator of some stabilizer state
    bad("prefix_sectors", "A_0 must equal 1", path_spec_document())[
        "prefix_weps"][1] = (3 * X).to_json()
    bad("prefix_homogeneous", "weight enumerator must be homogeneous",
        path_spec_document())["prefix_weps"][1] = (X + ONE).to_json()
    doc = bad("qubit_step", "qubit step must equal |replacement| - |boundary|")
    doc["qubit_count"] = {"offset": -2, "step": 3}
    doc = bad("qubit_offset", "qubit law does not match the base graph size")
    doc["qubit_count"]["offset"] = 0

    def not_number(value):
        return f"malformed family spec: cannot interpret {value} as an " \
            "exact rational"

    bad("bool_start", not_number(True))["recursion_start"] = True
    bad("bool_step", not_number(True),
        path_spec_document())["qubit_count"]["step"] = True
    bad("bool_coefficient", not_number(True), path_spec_document())[
        "prefix_weps"][0]["terms"][0]["c"] = True
    bad("bool_edge", not_number(False),
        path_spec_document())["base_graph"]["edges"] = [[False, True]]
    twice = "family spec names key 1 twice in one object"
    bad("twice_glue_map", twice, path_spec_document())["glue_map"] = \
        {"1": 0, "1.0": 1}
    bad("twice_next_boundary_map", twice, path_spec_document())[
        "next_boundary_map"] = {"1": 1, "1.0": 0}
    bad("prefix_qubits", "prefix member 1 has 2 qubits, but the qubit law "
        "gives 1", path_spec_document())["prefix_weps"][1] = \
        ((X + Y) * (X + Y)).to_json()
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
        # and every other document that breaks one rule (_bad_documents)
        document, message = BAD_DOCUMENTS[case]
        with pytest.raises(FamilyError, match=f"^{re.escape(message)}$"):
            parse_family_spec(json.dumps(document))

    @pytest.mark.parametrize("old, new, key", [
        ('"glue_map": {"1": 0}', '"glue_map": {"1": 0, "1": 1}', "1"),
        ('"name": "path"', '"name": "path", "name": "star"', "name")],
        ids=["glue_map", "name"])
    def test_key_named_twice_rejected(self, old, new, key):
        # json.loads keeps the last of two equal keys, so the path with its
        # glue map written {"1": 0, "1": 1} was read as another family
        text = json.dumps(path_spec_document())
        assert old in text
        with pytest.raises(FamilyError, match=f"^family spec names key "
                           f"'{key}' twice in one object$"):
            parse_family_spec(text.replace(old, new))

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


# a ladder with a pendant vertex whose glue map swaps the two boundary
# vertices, so each new rung is crossed against the last
TWISTED_LADDER = {
    "name": "twisted_ladder",
    "base_graph": {"n": 3, "edges": [[0, 1], [1, 2]]},
    "boundary": [1, 2],
    "replacement": {"n": 4, "edges": [[0, 1], [0, 2], [1, 3], [2, 3]]},
    "glue_map": {"1": 1, "2": 0},
    "next_boundary_map": {"1": 2, "2": 3},
    "prefix_weps": [{"vars": ["x", "y", "z"],
                     "terms": [{"e": [0, 0, 0], "c": "1"}]}],
    "recursion_start": 1,
    "qubit_count": {"offset": 1, "step": 2},
}

# exact members: the kept vertices keep their order and the replacement's
# follow them, so every vertex is numbered in creation order
REALIZED_EDGES = {
    ("grid_2", 4): (8, [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 5),
                        (4, 5), (4, 6), (5, 7), (6, 7)]),
    ("joint_squares", 3): (10, [(0, 1), (0, 3), (1, 2), (2, 3), (3, 4),
                                (3, 5), (4, 6), (5, 6), (6, 7), (6, 9),
                                (7, 8), (8, 9)]),
    ("ladder_3", 3): (9, [(0, 1), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4),
                          (3, 6), (4, 5), (4, 7), (5, 8), (6, 7), (7, 8)]),
    ("caterpillar", 4): (7, [(0, 1), (0, 2), (2, 3), (2, 4), (4, 5),
                             (4, 6)]),
    ("twisted_ladder", 3): (7, [(0, 2), (1, 2), (1, 4), (2, 3), (3, 4),
                                (3, 5), (4, 6), (5, 6)]),
}


class TestRealize:
    @pytest.mark.parametrize("name, r", sorted(REALIZED_EDGES),
                             ids=[name for name, _ in sorted(REALIZED_EDGES)])
    def test_member_numbering(self, name, r):
        documents = {doc["name"]: doc
                     for doc in (CATERPILLAR, LADDER_3, TWISTED_LADDER)}
        spec = (parse_family_spec(json.dumps(documents[name]))
                if name in documents else builtin(name))
        g = realize(spec, r)
        assert (g.vertex_count, g.sorted_edges()) == REALIZED_EDGES[name, r]

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

    @pytest.mark.parametrize("wep, message", [
        (LaurentPoly3.zero(), "zero polynomial is not a weight enumerator"),
        (X * Z, "weight enumerator must not involve z"),
        (poly_from_terms([(2, -1, 0, 1)]),
         "weight enumerator must have nonnegative exponents")],
        ids=["zero", "z", "negative_exponent"])
    def test_malformed_enumerator_rejected(self, wep, message):
        with pytest.raises(FamilyError, match=f"^{message}$"):
            sld_from_wep(wep)

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
