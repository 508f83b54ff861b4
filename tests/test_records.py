"""Value semantics of the package's records.

Graph, SLD, FamilySpec, Quotient and TransferSystem are frozen; Graph, SLD
and Quotient hash by their fields, the others are unhashable. Each record
equals a record of its class with equal compared fields and ignores the
rest: FamilySpec's prefix_graphs, TransferSystem's quotient and caches,
SingularityReport's squarefree part.
"""

import mpmath as mp
import pytest

from sldgf import (SLD, FamilyError, FamilySpec, Graph, LeadingTerm,
                   SingularityReport, TransferSystem, build_transfer_system,
                   builtin, family_gf)
from sldgf.transfer import Quotient

EDGE = Graph(2, frozenset({(0, 1)}))


def _spec_copy(spec, **changes):
    """spec rebuilt field by field through the constructor, with changes."""
    fields = {key: getattr(spec, key) for key in (
        "name", "base_graph", "boundary", "replacement", "glue_map",
        "next_boundary_map", "prefix_weps", "prefix_graphs")}
    return FamilySpec(**{**fields, **changes})


def _quotient_copy(q, **changes):
    fields = {key: getattr(q, key)
              for key in ("block_of", "rows", "v", "step", "start")}
    return Quotient(**{**fields, **changes})


def _report(z=1, squarefree=()):
    return SingularityReport(mp.mpc(z), True, 1, True, list(squarefree))


def _pairs():
    """(record, an equal one, an unequal one) for each of the records."""
    path, star = (build_transfer_system(builtin(n)) for n in ("path", "star"))
    family_gf(path)  # the cached GF is no part of the system's value
    spec = builtin("cycle")
    return {
        "Graph": (EDGE, Graph(vertex_count=2, edges=frozenset({(0, 1)})),
                  Graph(2, frozenset())),
        "SLD": (SLD((1, 0, 3)), SLD(sectors=(1, 0, 3)), SLD((1, 1, 2))),
        "FamilySpec": (spec, _spec_copy(spec, prefix_graphs=None),
                       _spec_copy(spec, name="ring")),
        "Quotient": (path.quotient, _quotient_copy(path.quotient),
                     _quotient_copy(path.quotient, start=(0, 0, 0))),
        "TransferSystem": (path, TransferSystem(columns=path.columns,
                                                vector=path.vector,
                                                spec=path.spec),
                           TransferSystem(star.columns, star.vector,
                                          path.spec)),
        "SingularityReport": (_report(squarefree=[1, -1]),
                              _report(squarefree=[-1, 2, -1]), _report(2)),
        "LeadingTerm": (LeadingTerm(_report(), mp.mpc(3)),
                        LeadingTerm(report=_report(squarefree=[1, -1]),
                                    residue=mp.mpc(3)),
                        LeadingTerm(_report(), mp.mpc(-3))),
    }


PAIRS = _pairs()
HASHABLE = ("Graph", "SLD", "Quotient")
# each frozen record and one of its fields
FROZEN = {"Graph": "vertex_count", "SLD": "sectors", "FamilySpec": "name",
          "Quotient": "step", "TransferSystem": "columns"}


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_equality_is_over_the_compared_fields(name):
    record, equal, other = PAIRS[name]
    assert record == equal and not record != equal
    assert record != other and not record == other


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_a_record_equals_no_object_of_another_class(name):
    record = PAIRS[name][0]
    assert record != tuple(vars(record).values())
    assert record != None  # noqa: E711


@pytest.mark.parametrize("name", HASHABLE)
def test_hashable_records_hash_by_their_fields(name):
    record, equal, other = PAIRS[name]
    assert hash(record) == hash(equal)
    assert len({record, equal, other}) == 2


@pytest.mark.parametrize("name", sorted(set(PAIRS) - set(HASHABLE)))
def test_other_records_are_unhashable(name):
    with pytest.raises(TypeError):
        hash(PAIRS[name][0])


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_records_refuse_assignment_and_deletion(name):
    record, field = PAIRS[name][0], FROZEN[name]
    value = getattr(record, field)
    for attr in (field, "fresh"):
        with pytest.raises(AttributeError):
            setattr(record, attr, value)
        with pytest.raises(AttributeError):
            delattr(record, attr)
    assert getattr(record, field) is value and not hasattr(record, "fresh")


def test_constructor_defaults():
    spec = _spec_copy(builtin("path"))
    bare = FamilySpec(spec.name, spec.base_graph, spec.boundary,
                      spec.replacement, spec.glue_map, spec.next_boundary_map,
                      spec.prefix_weps)
    assert bare.prefix_graphs is None and bare == spec
    report = SingularityReport(mp.mpc(0.5), True, 1, True)
    assert report._squarefree == [] and report == _report(0.5)


def test_graph_caches_its_neighbour_masks():
    graph = Graph.from_edges(3, [(0, 1), (1, 2)])
    masks = graph.neighbour_masks
    assert masks == (0b010, 0b101, 0b010)
    assert graph.neighbour_masks is masks
    assert graph == Graph.from_edges(3, [(1, 2), (0, 1)])


@pytest.mark.parametrize("sectors, message", [
    ((), "must not be empty"), ((1, -1, 4), "nonnegative"),
    ((2, 1, 1), "A_0 must equal 1"), ((1, 1, 1), r"sum to 2\^n")])
def test_sld_checks_its_sectors(sectors, message):
    with pytest.raises(FamilyError, match=message):
        SLD(sectors)
