"""Hypergraph data structure modelling a circuit netlist.

In the VLSI/PCB CAD setting of the paper, a netlist naturally defines a
hypergraph ``H``: vertices correspond to *modules* (cells, chips, blocks)
and hyperedges correspond to *signal nets*, each net being the subset of
modules it connects.

The class below is a general weighted hypergraph.  Vertices are arbitrary
hashable labels; hyperedges are named and map to frozensets of vertices.
Vertex weights model module area (used by the weighted r-bipartition
"engineer's rule"); edge weights model net criticality.

Design notes
------------
* All mutation goes through :meth:`add_vertex` / :meth:`add_edge` /
  :meth:`remove_edge` / :meth:`remove_vertex`, which keep the
  vertex->incident-edge index consistent.  Every query is O(1) or linear in
  the size of the answer.
* Hyperedges are *sets* of vertices: a net listing the same module twice is
  the same as listing it once, matching netlist semantics.
* Singleton edges (one-pin nets) are legal — they can never cross a cut —
  and empty edges are rejected.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping
from typing import Iterator

Vertex = Hashable
EdgeName = Hashable


class HypergraphError(ValueError):
    """Raised on structurally invalid hypergraph operations."""


class Hypergraph:
    """A weighted hypergraph ``H = (V, E)``.

    Parameters
    ----------
    vertices:
        Optional iterable of vertex labels to pre-create.
    edges:
        Optional mapping ``name -> iterable of vertices`` or iterable of
        vertex-iterables (auto-named ``e0, e1, ...``).  Vertices appearing
        in edges are created implicitly with weight 1.

    Examples
    --------
    The 8-node, 5-edge hypergraph of Figure 1 of the paper::

        >>> h = Hypergraph()
        >>> _ = h.add_edge([1, 2, 3], name="A")
        >>> _ = h.add_edge([3, 4], name="B")
        >>> h.num_vertices, h.num_edges
        (4, 2)
    """

    def __init__(
        self,
        vertices: Iterable[Vertex] | None = None,
        edges: Mapping[EdgeName, Iterable[Vertex]] | Iterable[Iterable[Vertex]] | None = None,
    ) -> None:
        self._vertex_weights: dict[Vertex, float] = {}
        self._edge_members: dict[EdgeName, frozenset[Vertex]] = {}
        self._edge_weights: dict[EdgeName, float] = {}
        self._incidence: dict[Vertex, set[EdgeName]] = {}
        self._auto_edge_counter = 0

        if vertices is not None:
            for v in vertices:
                self.add_vertex(v)
        if edges is not None:
            if isinstance(edges, Mapping):
                for name, members in edges.items():
                    self.add_edge(members, name=name)
            else:
                for members in edges:
                    self.add_edge(members)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_vertex(self, v: Vertex, weight: float = 1.0) -> Vertex:
        """Add vertex ``v`` (idempotent; re-adding updates the weight)."""
        if weight <= 0:
            raise HypergraphError(f"vertex weight must be positive, got {weight!r}")
        if v not in self._vertex_weights:
            self._incidence[v] = set()
        self._vertex_weights[v] = float(weight)
        return v

    def add_edge(
        self,
        members: Iterable[Vertex],
        name: EdgeName | None = None,
        weight: float = 1.0,
    ) -> EdgeName:
        """Add a hyperedge over ``members`` and return its name.

        Unknown member vertices are created with weight 1.  Duplicate
        members collapse (an edge is a set).  An empty member list and a
        duplicate edge name are both errors.
        """
        member_set = frozenset(members)
        if not member_set:
            raise HypergraphError("hyperedge must contain at least one vertex")
        if weight <= 0:
            raise HypergraphError(f"edge weight must be positive, got {weight!r}")
        if name is None:
            while f"e{self._auto_edge_counter}" in self._edge_members:
                self._auto_edge_counter += 1
            name = f"e{self._auto_edge_counter}"
            self._auto_edge_counter += 1
        elif name in self._edge_members:
            raise HypergraphError(f"duplicate edge name {name!r}")
        for v in member_set:
            if v not in self._vertex_weights:
                self.add_vertex(v)
            self._incidence[v].add(name)
        self._edge_members[name] = member_set
        self._edge_weights[name] = float(weight)
        return name

    def remove_edge(self, name: EdgeName) -> None:
        """Remove hyperedge ``name``; its vertices remain."""
        members = self._edge_members.pop(name, None)
        if members is None:
            raise HypergraphError(f"no such edge {name!r}")
        del self._edge_weights[name]
        for v in members:
            self._incidence[v].discard(name)

    def remove_vertex(self, v: Vertex) -> None:
        """Remove vertex ``v`` from the graph and from every incident edge.

        Edges that would become empty are removed entirely.
        """
        if v not in self._vertex_weights:
            raise HypergraphError(f"no such vertex {v!r}")
        for name in list(self._incidence[v]):
            shrunk = self._edge_members[name] - {v}
            if shrunk:
                self._edge_members[name] = shrunk
            else:
                self.remove_edge(name)
        del self._incidence[v]
        del self._vertex_weights[v]

    @classmethod
    def from_edge_list(cls, edge_list: Iterable[Iterable[Vertex]]) -> "Hypergraph":
        """Build a hypergraph from bare member lists (auto-named edges)."""
        return cls(edges=list(edge_list))

    def copy(self) -> "Hypergraph":
        """Deep-enough copy (labels are shared, structure is not)."""
        h = Hypergraph()
        for v, w in self._vertex_weights.items():
            h.add_vertex(v, w)
        for name, members in self._edge_members.items():
            h.add_edge(members, name=name, weight=self._edge_weights[name])
        return h

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def vertices(self) -> list[Vertex]:
        """Vertex labels in insertion order."""
        return list(self._vertex_weights)

    @property
    def edge_names(self) -> list[EdgeName]:
        """Edge names in insertion order."""
        return list(self._edge_members)

    @property
    def edges(self) -> dict[EdgeName, frozenset[Vertex]]:
        """Mapping of edge name to member frozenset (a copy)."""
        return dict(self._edge_members)

    @property
    def num_vertices(self) -> int:
        return len(self._vertex_weights)

    @property
    def num_edges(self) -> int:
        return len(self._edge_members)

    @property
    def num_pins(self) -> int:
        """Total pin count: sum of edge sizes (netlist terminology)."""
        return sum(len(m) for m in self._edge_members.values())

    def __contains__(self, v: Vertex) -> bool:
        return v in self._vertex_weights

    def __len__(self) -> int:
        return self.num_vertices

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._vertex_weights)

    def has_edge(self, name: EdgeName) -> bool:
        return name in self._edge_members

    def edge_members(self, name: EdgeName) -> frozenset[Vertex]:
        """The vertex set of hyperedge ``name``."""
        try:
            return self._edge_members[name]
        except KeyError:
            raise HypergraphError(f"no such edge {name!r}") from None

    def edge_size(self, name: EdgeName) -> int:
        """Number of pins of hyperedge ``name`` (the paper's edge degree)."""
        return len(self.edge_members(name))

    def edge_weight(self, name: EdgeName) -> float:
        if name not in self._edge_weights:
            raise HypergraphError(f"no such edge {name!r}")
        return self._edge_weights[name]

    def vertex_weight(self, v: Vertex) -> float:
        try:
            return self._vertex_weights[v]
        except KeyError:
            raise HypergraphError(f"no such vertex {v!r}") from None

    def set_vertex_weight(self, v: Vertex, weight: float) -> None:
        if v not in self._vertex_weights:
            raise HypergraphError(f"no such vertex {v!r}")
        if weight <= 0:
            raise HypergraphError(f"vertex weight must be positive, got {weight!r}")
        self._vertex_weights[v] = float(weight)

    @property
    def total_vertex_weight(self) -> float:
        return sum(self._vertex_weights.values())

    def incident_edges(self, v: Vertex) -> frozenset[EdgeName]:
        """Names of hyperedges containing vertex ``v``."""
        try:
            return frozenset(self._incidence[v])
        except KeyError:
            raise HypergraphError(f"no such vertex {v!r}") from None

    def incident_edges_view(self, v: Vertex) -> set[EdgeName]:
        """Zero-copy view of the incidence set of ``v`` — read-only.

        Hot-path variant of :meth:`incident_edges` (the intersection-graph
        clique loop calls this once per vertex); callers must not mutate
        the returned set or hold it across hypergraph mutations.
        """
        try:
            return self._incidence[v]
        except KeyError:
            raise HypergraphError(f"no such vertex {v!r}") from None

    def iter_edges(self) -> Iterator[tuple[EdgeName, frozenset[Vertex]]]:
        """Iterate ``(name, members)`` pairs without copying the edge dict."""
        return iter(self._edge_members.items())

    def vertex_degree(self, v: Vertex) -> int:
        """Number of hyperedges containing ``v`` (the paper's node degree)."""
        return len(self.incident_edges(v))

    def neighbors(self, v: Vertex) -> frozenset[Vertex]:
        """Vertices sharing at least one hyperedge with ``v`` (excl. ``v``)."""
        out: set[Vertex] = set()
        for name in self.incident_edges(v):
            out.update(self._edge_members[name])
        out.discard(v)
        return frozenset(out)

    @property
    def max_vertex_degree(self) -> int:
        """The paper's ``d`` bound: max edges incident to one vertex."""
        if not self._vertex_weights:
            return 0
        return max(len(e) for e in self._incidence.values())

    @property
    def max_edge_size(self) -> int:
        """The paper's ``r`` bound: max pins on one edge."""
        if not self._edge_members:
            return 0
        return max(len(m) for m in self._edge_members.values())

    def is_graph(self) -> bool:
        """True when every hyperedge has exactly two pins."""
        return all(len(m) == 2 for m in self._edge_members.values())

    # ------------------------------------------------------------------
    # derived structures
    # ------------------------------------------------------------------

    def induced(self, vertex_subset: Iterable[Vertex]) -> "Hypergraph":
        """Sub-hypergraph on ``vertex_subset``.

        Each edge is restricted to the subset; edges that lose all of
        their pins disappear.  Edges reduced to one pin are kept (they are
        uncuttable but contribute to degree statistics).
        """
        subset = set(vertex_subset)
        unknown = subset - set(self._vertex_weights)
        if unknown:
            raise HypergraphError(f"vertices not in hypergraph: {sorted(map(repr, unknown))}")
        h = Hypergraph()
        for v in subset:
            h.add_vertex(v, self._vertex_weights[v])
        for name, members in self._edge_members.items():
            kept = members & subset
            if kept:
                h.add_edge(kept, name=name, weight=self._edge_weights[name])
        return h

    def restricted_to_edges(self, edge_subset: Iterable[EdgeName]) -> "Hypergraph":
        """Sub-hypergraph keeping only the named edges (all vertices kept).

        Member frozensets are immutable and shared with ``self`` rather
        than rebuilt — this runs once per :func:`algorithm1` call (the
        large-edge filter) and used to cost as much as a multi-start.
        """
        h = Hypergraph()
        h._vertex_weights = dict(self._vertex_weights)
        h._incidence = {v: set() for v in self._vertex_weights}
        for name in edge_subset:
            members = self.edge_members(name)
            if name in h._edge_members:
                raise HypergraphError(f"duplicate edge name {name!r}")
            h._edge_members[name] = members
            h._edge_weights[name] = self._edge_weights[name]
            for v in members:
                h._incidence[v].add(name)
        return h

    def connected_components(self) -> list[set[Vertex]]:
        """Vertex sets of the connected components of ``H``.

        Two vertices are connected when linked by a chain of hyperedges.
        """
        seen: set[Vertex] = set()
        components: list[set[Vertex]] = []
        for start in self._vertex_weights:
            if start in seen:
                continue
            component = {start}
            frontier = [start]
            seen.add(start)
            while frontier:
                v = frontier.pop()
                for name in self._incidence[v]:
                    for u in self._edge_members[name]:
                        if u not in seen:
                            seen.add(u)
                            component.add(u)
                            frontier.append(u)
            components.append(component)
        return components

    def is_connected(self) -> bool:
        if not self._vertex_weights:
            return True
        return len(self.connected_components()) == 1

    def clique_expansion(self):
        """Plain graph with a clique over every hyperedge's pins.

        Used for interop; edge multiplicities collapse (the result is a
        simple graph).  The spectral baseline applies its weighted form
        implicitly from the pin incidence instead.
        """
        from repro.core.graph import Graph

        g = Graph(self._vertex_weights)
        for members in self._edge_members.values():
            pins = sorted(members, key=repr)
            for i, u in enumerate(pins):
                for w in pins[i + 1 :]:
                    g.add_edge(u, w)
        return g

    def star_expansion(self):
        """Bipartite star expansion: one extra node per hyperedge.

        Hyperedge nodes are ``("edge", name)`` tuples so they cannot clash
        with module labels.
        """
        from repro.core.graph import Graph

        g = Graph(self._vertex_weights)
        for name, members in self._edge_members.items():
            enode = ("edge", name)
            g.add_vertex(enode)
            for v in members:
                g.add_edge(enode, v)
        return g

    # ------------------------------------------------------------------
    # statistics / diagnostics
    # ------------------------------------------------------------------

    def edge_size_histogram(self) -> dict[int, int]:
        """Mapping ``edge size -> count`` over all hyperedges."""
        hist: dict[int, int] = {}
        for members in self._edge_members.values():
            hist[len(members)] = hist.get(len(members), 0) + 1
        return dict(sorted(hist.items()))

    def average_edge_size(self) -> float:
        if not self._edge_members:
            return 0.0
        return self.num_pins / self.num_edges

    def validate(self) -> None:
        """Check internal index consistency; raises on corruption."""
        for name, members in self._edge_members.items():
            for v in members:
                if v not in self._vertex_weights:
                    raise HypergraphError(f"edge {name!r} references unknown vertex {v!r}")
                if name not in self._incidence[v]:
                    raise HypergraphError(f"incidence index missing {name!r} at vertex {v!r}")
        for v, names in self._incidence.items():
            for name in names:
                if name not in self._edge_members:
                    raise HypergraphError(f"incidence of {v!r} lists unknown edge {name!r}")
                if v not in self._edge_members[name]:
                    raise HypergraphError(f"incidence of {v!r} lists non-incident edge {name!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (
            self._vertex_weights == other._vertex_weights
            and self._edge_members == other._edge_members
            and self._edge_weights == other._edge_weights
        )

    def __repr__(self) -> str:
        return (
            f"Hypergraph(num_vertices={self.num_vertices}, "
            f"num_edges={self.num_edges}, num_pins={self.num_pins})"
        )
