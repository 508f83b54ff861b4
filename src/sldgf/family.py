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

import functools
import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

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

    @functools.cached_property
    def neighbour_masks(self) -> tuple[int, ...]:
        masks = [0] * self.vertex_count
        for a, b in self.edges:
            masks[a] |= 1 << b
            masks[b] |= 1 << a
        return tuple(masks)

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

    ``recursion_start``, ``qubit_step`` and ``qubit_offset`` are derived
    from the rule, not stored: the recursion starts after the prefix
    members, each step adds |replacement| - |boundary| qubits, and the
    base graph has qubit_count(recursion_start) of them.
    """

    name: str
    base_graph: Graph
    boundary: tuple[int, ...]
    replacement: Graph
    glue_map: dict[int, int]
    next_boundary_map: dict[int, int]
    prefix_weps: tuple[LaurentPoly3, ...]
    # auxiliary catalog data, not part of the spec identity
    prefix_graphs: dict[int, Graph] | None = field(default=None, repr=False,
                                                   compare=False)
    __hash__ = None  # unhashable: glue_map and next_boundary_map are dicts

    @property
    def recursion_start(self) -> int:
        return len(self.prefix_weps)

    @property
    def qubit_step(self) -> int:
        return self.replacement.vertex_count - len(self.boundary)

    @property
    def qubit_offset(self) -> int:
        return (self.base_graph.vertex_count
                - self.qubit_step * self.recursion_start)

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
        if not self.prefix_weps or self.prefix_weps[0] != _ONE:
            raise FamilyError("the index-0 weight enumerator must be 1")
        for r, w in enumerate(self.prefix_weps):
            if any(ez != 0 for (_, _, ez) in w.terms):
                raise FamilyError("prefix weight enumerators must not involve z")
            # FamilyError unless w is a weight enumerator
            n = sld_from_wep(w).n
            if r >= 1 and n != self.qubit_count(r):
                raise FamilyError(
                    f"prefix member {r} has {n} qubits, but the qubit law "
                    f"gives {self.qubit_count(r)}")

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
    """Parse and validate a family description document; its
    recursion_start and qubit_count must be the values the rule implies."""
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
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
            glue_map=_unique_keys((_integer(k), _integer(v))
                                  for k, v in data["glue_map"].items()),
            next_boundary_map=_unique_keys(
                (_integer(k), _integer(v))
                for k, v in data["next_boundary_map"].items()),
            prefix_weps=tuple(LaurentPoly3.from_json(w)
                              for w in data["prefix_weps"]),
        )
        start = _integer(data["recursion_start"])
        offset = _integer(data["qubit_count"]["offset"])
        step = _integer(data["qubit_count"]["step"])
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, FamilyError):
            raise
        raise FamilyError(f"malformed family spec: {exc}") from exc
    if start < 1:
        raise FamilyError("recursion_start must be at least 1")
    if start != spec.recursion_start:
        raise FamilyError(
            "prefix_weps must list the weight enumerators of members "
            "0 .. recursion_start-1")
    spec.validate()
    if step != spec.qubit_step:
        raise FamilyError("qubit step must equal |replacement| - |boundary|")
    if offset != spec.qubit_offset:
        raise FamilyError("qubit law does not match the base graph size")
    return spec


def _unique_keys(pairs: Iterable[tuple]) -> dict:
    """The pairs as a dict, refusing a key named twice, which a dict would
    read as its last value: a JSON object that repeats a key, or a vertex
    map whose keys "1" and "1.0" both read as the integer 1."""
    data: dict = {}
    for key, value in pairs:
        if key in data:
            raise FamilyError(f"family spec names key {key!r} twice in one "
                              "object")
        data[key] = value
    return data


def realize(spec: FamilySpec, r: int) -> Graph:
    """Concrete graph of the family member with index r.

    Members below recursion_start exist only where a prefix graph is
    defined; from recursion_start on, the graph is built by r -
    recursion_start cut-and-glue steps applied to the base graph. Each
    step numbers the kept vertices first, in their order, then the
    replacement's, so vertices stay numbered in creation order.
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
    n, edges, boundary = (spec.base_graph.vertex_count,
                          list(spec.base_graph.edges), spec.boundary)
    glue = [spec.glue_map[v] for v in spec.boundary]
    nxt = [spec.next_boundary_map[v] for v in spec.boundary]
    for _ in range(r - spec.recursion_start):
        cut = set(boundary)
        label = {v: i for i, v in
                 enumerate(v for v in range(n) if v not in cut)}
        kept = len(label)
        label.update((v, kept + g) for v, g in zip(boundary, glue))
        # an edge inside the boundary is cut, one leaving it is glued
        edges = [(label[a], label[b]) for a, b in edges
                 if a not in cut or b not in cut]
        edges += [(kept + a, kept + b) for a, b in spec.replacement.edges]
        n = kept + spec.replacement.vertex_count
        boundary = [kept + p for p in nxt]
    return Graph.from_edges(n, edges)


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
            prefix_weps=(_ONE, _X_PLUS_Y),
            prefix_graphs={0: EMPTY_GRAPH, 1: SINGLE_VERTEX})
    elif name == "star":
        # Grow a star by replacing its central vertex with two joined
        # vertices; the new centre keeps all spokes.
        spec = FamilySpec(
            name="star", base_graph=_EDGE, boundary=(0,), replacement=_EDGE,
            glue_map={0: 0}, next_boundary_map={0: 0},
            prefix_weps=(_ONE, _X_PLUS_Y),
            prefix_graphs={0: EMPTY_GRAPH, 1: SINGLE_VERTEX})
    elif name == "cycle":
        # Grow a ring by replacing an adjacent (first, last) pair with a
        # three-vertex chain. Members 0..2 are fixed by convention; index 2
        # is the two-isolated-vertices graph.
        spec = FamilySpec(
            name="cycle", base_graph=_TRIANGLE, boundary=(0, 2),
            replacement=_PATH3, glue_map={0: 0, 2: 2},
            next_boundary_map={0: 0, 2: 1},
            prefix_weps=(_ONE, _X_PLUS_Y, _X_PLUS_Y_SQ),
            prefix_graphs={0: EMPTY_GRAPH, 1: SINGLE_VERTEX, 2: _TWO_ISOLATED})
    elif name == "pusteblume":
        # A 4-vertex star whose third leaf sprouts further leaves.
        spec = FamilySpec(
            name="pusteblume", base_graph=_STAR4, boundary=(3,),
            replacement=_EDGE, glue_map={3: 0}, next_boundary_map={3: 0},
            prefix_weps=(_ONE,), prefix_graphs={0: EMPTY_GRAPH})
    elif name == "complete_bipartite_2":
        # Two hub vertices joined to r-2 others; each step cuts the hub pair
        # and glues it back with one extra common neighbour. Members 1 and 2
        # are fixed to one and two isolated vertices.
        spec = FamilySpec(
            name="complete_bipartite_2", base_graph=_HUB_PAIR, boundary=(0, 1),
            replacement=_HUB_PAIR, glue_map={0: 0, 1: 1},
            next_boundary_map={0: 0, 1: 1},
            prefix_weps=(_ONE, _X_PLUS_Y, _X_PLUS_Y_SQ),
            prefix_graphs={0: EMPTY_GRAPH, 1: SINGLE_VERTEX, 2: _TWO_ISOLATED})
    elif name == "joint_squares":
        # Chain of 4-cycles sharing corners; each step replaces the free
        # corner with a fresh square whose opposite corner grows next.
        spec = FamilySpec(
            name="joint_squares", base_graph=_CYCLE4, boundary=(0,),
            replacement=_CYCLE4, glue_map={0: 0}, next_boundary_map={0: 2},
            prefix_weps=(_ONE,), prefix_graphs={0: EMPTY_GRAPH})
    elif name == "grid_2":
        # Ladder (r x 2 grid): extrude the last rung by a fresh square.
        spec = FamilySpec(
            name="grid_2", base_graph=_EDGE, boundary=(0, 1),
            replacement=_SQUARE, glue_map={0: 0, 1: 1},
            next_boundary_map={0: 2, 1: 3},
            prefix_weps=(_ONE,), prefix_graphs={0: EMPTY_GRAPH})
    else:
        raise FamilyError(f"unknown family {name!r}; expected one of "
                          f"{', '.join(BUILTIN_FAMILIES)}")
    spec.validate()
    return spec
