"""Recursively definable graph families.

A family is described by a cut-and-glue rule: start from a base graph, pick
an ordered boundary of vertices, and at each step excise the boundary's
induced subgraph, glue in a fixed replacement graph, reattach all edges that
used to end on the boundary, and designate a new boundary inside the
replacement. Families may carry explicitly given weight enumerators for
artificial initial members that precede the recursion.

The module also holds the sector-length distribution / weight enumerator
conversions and the JSON (de)serialisation of family descriptions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Sequence

# to_rational is public here, private in algebra so that bench/spans.py does
# not wrap it
from .algebra import (LaurentPoly3, _integer, _rational as to_rational,
                      poly_from_terms)


class FamilyError(ValueError):
    """Raised for malformed family descriptions or out-of-range members."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..vertex_count-1."""

    vertex_count: int
    edges: frozenset[tuple[int, int]]

    @staticmethod
    def from_edges(vertex_count: int, edges: Sequence[Sequence[int]]) -> "Graph":
        vertex_count = _integer(vertex_count)
        if vertex_count < 0:
            raise FamilyError(f"negative vertex count {vertex_count}")
        norm = set()
        for e in edges:
            if not isinstance(e, (list, tuple)) or len(e) != 2:
                raise FamilyError(f"edge {e!r} is not a pair")
            u, v = _integer(e[0]), _integer(e[1])
            if u == v:
                raise FamilyError(f"self-loop at vertex {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise FamilyError(f"edge ({u}, {v}) outside vertex range")
            norm.add((min(u, v), max(u, v)))
        return Graph(vertex_count, frozenset(norm))

    def neighbours(self, v: int) -> list[int]:
        out = [b for a, b in self.edges if a == v]
        out += [a for a, b in self.edges if b == v]
        return sorted(out)

    def neighbour_masks(self) -> list[int]:
        masks = [0] * self.vertex_count
        for a, b in self.edges:
            masks[a] |= 1 << b
            masks[b] |= 1 << a
        return masks

    def degrees(self) -> list[int]:
        deg = [0] * self.vertex_count
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1
        return deg

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def induced(self, vertices: Sequence[int]) -> "Graph":
        """Induced subgraph, relabelled by position in ``vertices``."""
        pos = {v: i for i, v in enumerate(vertices)}
        edges = [(pos[a], pos[b]) for a, b in self.edges
                 if a in pos and b in pos]
        return Graph.from_edges(len(vertices), edges)

    def to_json(self) -> dict:
        return {"n": self.vertex_count,
                "edges": [list(e) for e in self.sorted_edges()]}

    @staticmethod
    def from_json(data: Mapping) -> "Graph":
        return Graph.from_edges(data["n"], data["edges"])


EMPTY_GRAPH = Graph(0, frozenset())
SINGLE_VERTEX = Graph(1, frozenset())


@dataclass(frozen=True)
class SLD:
    """Sector-length distribution A_0..A_n of an n-qubit stabilizer state."""

    sectors: tuple[int, ...]

    def __post_init__(self):
        if not self.sectors:
            raise FamilyError("sector list must not be empty")
        if any(a < 0 for a in self.sectors):
            raise FamilyError("sector lengths must be nonnegative")
        if self.sectors[0] != 1:
            raise FamilyError("A_0 must equal 1")
        if sum(self.sectors) != 1 << self.n:
            raise FamilyError("sector lengths must sum to 2^n")

    @property
    def n(self) -> int:
        return len(self.sectors) - 1

    def __iter__(self):
        return iter(self.sectors)

    def __getitem__(self, k: int) -> int:
        return self.sectors[k]


def wep_from_sld(sld: SLD) -> LaurentPoly3:
    """Weight enumerator sum_k A_k x^(n-k) y^k of a sector-length distribution."""
    n = sld.n
    return poly_from_terms((n - k, k, 0, a) for k, a in enumerate(sld) if a)


def sld_from_wep(wep: LaurentPoly3) -> SLD:
    """Invert wep_from_sld; rejects non-homogeneous or non-integer input."""
    if wep.is_zero():
        raise FamilyError("zero polynomial is not a weight enumerator")
    degrees = {ex + ey for (ex, ey, ez) in wep.terms}
    if any(ez != 0 for (_, _, ez) in wep.terms):
        raise FamilyError("weight enumerator must not involve z")
    if len(degrees) != 1:
        raise FamilyError("weight enumerator must be homogeneous")
    if any(ex < 0 or ey < 0 for (ex, ey, _) in wep.terms):
        raise FamilyError("weight enumerator must have nonnegative exponents")
    n = degrees.pop()
    sectors = [0] * (n + 1)
    for (ex, ey, _), coeff in wep.terms.items():
        if coeff.denominator != 1 or coeff < 0:
            raise FamilyError("weight enumerator coefficients must be nonnegative integers")
        sectors[ey] = int(coeff)
    return SLD(tuple(sectors))


@dataclass(frozen=True)
class FamilySpec:
    """Declarative description of a recursively definable graph family.

    ``base_graph`` is the member at index ``recursion_start``; earlier
    members (indices 0 .. recursion_start-1) are covered by ``prefix_weps``
    and, where meaningful, by ``prefix_graphs``. ``glue_map`` says which
    replacement vertex inherits each boundary vertex's outside edges;
    ``next_boundary_map`` designates the next boundary inside the
    replacement. The member at index r has qubit_offset + qubit_step * r
    qubits (for r >= 1; index 0 is always the empty-graph convention).
    """

    name: str
    base_graph: Graph
    boundary: tuple[int, ...]
    replacement: Graph
    glue_map: dict[int, int]
    next_boundary_map: dict[int, int]
    prefix_weps: tuple[LaurentPoly3, ...]
    recursion_start: int
    qubit_offset: int
    qubit_step: int
    # auxiliary catalog data, not part of the spec identity
    prefix_graphs: dict[int, Graph] | None = field(default=None, repr=False,
                                                   compare=False)
    __hash__ = None  # unhashable: glue_map and next_boundary_map are dicts

    def qubit_count(self, r: int) -> int:
        return self.qubit_offset + self.qubit_step * r

    def validate(self) -> None:
        g, j = self.base_graph, self.replacement
        if len(set(self.boundary)) != len(self.boundary):
            raise FamilyError("boundary vertices must be distinct")
        if any(not 0 <= v < g.vertex_count for v in self.boundary):
            raise FamilyError("boundary vertex outside the base graph")
        if j.vertex_count < len(self.boundary):
            raise FamilyError("replacement graph smaller than the boundary")
        for label, m in (("glue_map", self.glue_map),
                         ("next_boundary_map", self.next_boundary_map)):
            if set(m) != set(self.boundary):
                raise FamilyError(f"{label} must be keyed exactly by the boundary")
            if any(not 0 <= v < j.vertex_count for v in m.values()):
                raise FamilyError(f"{label} value outside the replacement graph")
            if len(set(m.values())) != len(m):
                raise FamilyError(f"{label} must be injective")
        for a in self.boundary:
            for b in self.boundary:
                if a < b and g.has_edge(a, b) != j.has_edge(
                        self.next_boundary_map[a], self.next_boundary_map[b]):
                    raise FamilyError(
                        "next boundary does not induce the same subgraph as the boundary")
        if self.recursion_start < 1:
            raise FamilyError("recursion_start must be at least 1")
        if len(self.prefix_weps) != self.recursion_start:
            raise FamilyError(
                "prefix_weps must list the weight enumerators of members "
                "0 .. recursion_start-1")
        if self.prefix_weps[0] != LaurentPoly3.const(1):
            raise FamilyError("the index-0 weight enumerator must be 1")
        for w in self.prefix_weps:
            if any(ez != 0 for (_, _, ez) in w.terms):
                raise FamilyError("prefix weight enumerators must not involve z")
        if self.qubit_step != j.vertex_count - len(self.boundary):
            raise FamilyError("qubit step must equal |replacement| - |boundary|")
        if self.qubit_count(self.recursion_start) != g.vertex_count:
            raise FamilyError("qubit law does not match the base graph size")

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "base_graph": self.base_graph.to_json(),
            "boundary": list(self.boundary),
            "replacement": self.replacement.to_json(),
            "glue_map": {str(k): v for k, v in sorted(self.glue_map.items())},
            "next_boundary_map": {str(k): v for k, v in
                                  sorted(self.next_boundary_map.items())},
            "prefix_weps": [w.to_json() for w in self.prefix_weps],
            "recursion_start": self.recursion_start,
            "qubit_count": {"offset": self.qubit_offset, "step": self.qubit_step},
        }


def serialize_family_spec(spec: FamilySpec) -> str:
    return json.dumps(spec.to_json(), indent=2)


def parse_family_spec(text: str) -> FamilySpec:
    """Parse and validate a family description document."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FamilyError(f"family spec is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise FamilyError("family spec must be a JSON object")
    required = {"name", "base_graph", "boundary", "replacement", "glue_map",
                "next_boundary_map", "prefix_weps", "recursion_start",
                "qubit_count"}
    missing = required - set(data)
    if missing:
        raise FamilyError(f"family spec missing fields: {sorted(missing)}")
    for key in sorted(required - {"name", "recursion_start"}):
        kind = list if key in ("boundary", "prefix_weps") else dict
        if not isinstance(data[key], kind):
            raise FamilyError(f"family spec field {key!r} must be a JSON "
                              f"{'list' if kind is list else 'object'}")
    try:
        spec = FamilySpec(
            name=str(data["name"]),
            base_graph=Graph.from_json(data["base_graph"]),
            boundary=tuple(_integer(v) for v in data["boundary"]),
            replacement=Graph.from_json(data["replacement"]),
            glue_map={_integer(k): _integer(v)
                      for k, v in data["glue_map"].items()},
            next_boundary_map={_integer(k): _integer(v)
                               for k, v in data["next_boundary_map"].items()},
            prefix_weps=tuple(LaurentPoly3.from_json(w)
                              for w in data["prefix_weps"]),
            recursion_start=_integer(data["recursion_start"]),
            qubit_offset=_integer(data["qubit_count"]["offset"]),
            qubit_step=_integer(data["qubit_count"]["step"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, FamilyError):
            raise
        raise FamilyError(f"malformed family spec: {exc}") from exc
    spec.validate()
    return spec


def realize(spec: FamilySpec, r: int) -> Graph:
    """Concrete graph of the family member with index r.

    Members below recursion_start exist only where a prefix graph is
    defined; from recursion_start on, the graph is built by r -
    recursion_start cut-and-glue steps applied to the base graph. Vertex
    labels of deleted vertices are retired; the result is renumbered
    contiguously in creation order.
    """
    if r < 0:
        raise FamilyError("member index must be nonnegative")
    if r < spec.recursion_start:
        graphs = spec.prefix_graphs or {}
        if r in graphs:
            return graphs[r]
        raise FamilyError(
            f"member {r} of family {spec.name!r} precedes the recursion and "
            "has no defined graph")
    alive = list(range(spec.base_graph.vertex_count))
    edges = set(spec.base_graph.edges)
    boundary = list(spec.boundary)
    next_label = spec.base_graph.vertex_count
    glue_pos = [spec.glue_map[v] for v in spec.boundary]
    next_pos = [spec.next_boundary_map[v] for v in spec.boundary]
    for _ in range(r - spec.recursion_start):
        boundary_set = set(boundary)
        new_labels = [next_label + jv
                      for jv in range(spec.replacement.vertex_count)]
        next_label += spec.replacement.vertex_count
        target_of = {boundary[t]: new_labels[glue_pos[t]]
                     for t in range(len(boundary))}
        next_edges = set()
        for a, b in edges:
            ina, inb = a in boundary_set, b in boundary_set
            if not ina and not inb:
                next_edges.add((a, b))
            elif ina != inb:
                outside, inside = (b, a) if ina else (a, b)
                target = target_of[inside]
                next_edges.add((min(outside, target), max(outside, target)))
            # edges inside the boundary are cut together with its subgraph
        for a, b in spec.replacement.edges:
            la, lb = new_labels[a], new_labels[b]
            next_edges.add((min(la, lb), max(la, lb)))
        edges = next_edges
        alive = [v for v in alive if v not in boundary_set] + new_labels
        boundary = [new_labels[p] for p in next_pos]
    renumber = {v: i for i, v in enumerate(sorted(alive))}
    return Graph.from_edges(len(alive), [(renumber[a], renumber[b])
                                         for a, b in edges])


_X_PLUS_Y = poly_from_terms([(1, 0, 0, 1), (0, 1, 0, 1)])
_X_PLUS_Y_SQ = _X_PLUS_Y * _X_PLUS_Y
_ONE = LaurentPoly3.const(1)

_TWO_ISOLATED = Graph(2, frozenset())
_EDGE = Graph.from_edges(2, [(0, 1)])
_PATH3 = Graph.from_edges(3, [(0, 1), (1, 2)])
_TRIANGLE = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
_STAR4 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
_CYCLE4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
_SQUARE = Graph.from_edges(4, [(0, 1), (2, 3), (0, 2), (1, 3)])
_HUB_PAIR = Graph.from_edges(3, [(0, 2), (1, 2)])

BUILTIN_FAMILIES = ("path", "star", "cycle", "pusteblume",
                    "complete_bipartite_2", "joint_squares", "grid_2")


def builtin(name: str) -> FamilySpec:
    """Catalog of built-in recursively definable families."""
    if name == "path":
        # Grow a chain by replacing its last vertex with two joined vertices.
        spec = FamilySpec(
            name="path", base_graph=_EDGE, boundary=(1,), replacement=_EDGE,
            glue_map={1: 0}, next_boundary_map={1: 1},
            prefix_weps=(_ONE, _X_PLUS_Y), recursion_start=2,
            qubit_offset=0, qubit_step=1,
            prefix_graphs={0: EMPTY_GRAPH, 1: SINGLE_VERTEX})
    elif name == "star":
        # Grow a star by replacing its central vertex with two joined
        # vertices; the new centre keeps all spokes.
        spec = FamilySpec(
            name="star", base_graph=_EDGE, boundary=(0,), replacement=_EDGE,
            glue_map={0: 0}, next_boundary_map={0: 0},
            prefix_weps=(_ONE, _X_PLUS_Y), recursion_start=2,
            qubit_offset=0, qubit_step=1,
            prefix_graphs={0: EMPTY_GRAPH, 1: SINGLE_VERTEX})
    elif name == "cycle":
        # Grow a ring by replacing an adjacent (first, last) pair with a
        # three-vertex chain. Members 0..2 are fixed by convention; index 2
        # is the two-isolated-vertices graph.
        spec = FamilySpec(
            name="cycle", base_graph=_TRIANGLE, boundary=(0, 2),
            replacement=_PATH3, glue_map={0: 0, 2: 2},
            next_boundary_map={0: 0, 2: 1},
            prefix_weps=(_ONE, _X_PLUS_Y, _X_PLUS_Y_SQ), recursion_start=3,
            qubit_offset=0, qubit_step=1,
            prefix_graphs={0: EMPTY_GRAPH, 1: SINGLE_VERTEX, 2: _TWO_ISOLATED})
    elif name == "pusteblume":
        # A 4-vertex star whose third leaf sprouts further leaves.
        spec = FamilySpec(
            name="pusteblume", base_graph=_STAR4, boundary=(3,),
            replacement=_EDGE, glue_map={3: 0}, next_boundary_map={3: 0},
            prefix_weps=(_ONE,), recursion_start=1,
            qubit_offset=3, qubit_step=1,
            prefix_graphs={0: EMPTY_GRAPH})
    elif name == "complete_bipartite_2":
        # Two hub vertices joined to r-2 others; each step cuts the hub pair
        # and glues it back with one extra common neighbour. Members 1 and 2
        # are fixed to one and two isolated vertices.
        spec = FamilySpec(
            name="complete_bipartite_2", base_graph=_HUB_PAIR, boundary=(0, 1),
            replacement=_HUB_PAIR, glue_map={0: 0, 1: 1},
            next_boundary_map={0: 0, 1: 1},
            prefix_weps=(_ONE, _X_PLUS_Y, _X_PLUS_Y_SQ), recursion_start=3,
            qubit_offset=0, qubit_step=1,
            prefix_graphs={0: EMPTY_GRAPH, 1: SINGLE_VERTEX, 2: _TWO_ISOLATED})
    elif name == "joint_squares":
        # Chain of 4-cycles sharing corners; each step replaces the free
        # corner with a fresh square whose opposite corner grows next.
        spec = FamilySpec(
            name="joint_squares", base_graph=_CYCLE4, boundary=(0,),
            replacement=_CYCLE4, glue_map={0: 0}, next_boundary_map={0: 2},
            prefix_weps=(_ONE,), recursion_start=1,
            qubit_offset=1, qubit_step=3,
            prefix_graphs={0: EMPTY_GRAPH})
    elif name == "grid_2":
        # Ladder (r x 2 grid): extrude the last rung by a fresh square.
        spec = FamilySpec(
            name="grid_2", base_graph=_EDGE, boundary=(0, 1),
            replacement=_SQUARE, glue_map={0: 0, 1: 1},
            next_boundary_map={0: 2, 1: 3},
            prefix_weps=(_ONE,), recursion_start=1,
            qubit_offset=0, qubit_step=2,
            prefix_graphs={0: EMPTY_GRAPH})
    else:
        raise FamilyError(f"unknown family {name!r}; expected one of "
                          f"{', '.join(BUILTIN_FAMILIES)}")
    spec.validate()
    return spec
