"""Finite simple graphs, builders, perturbations, and amenability measures.

Vertices are identified by coordinate tuples (integers, variable arity) so that
the finite volumes of an exhaustion include into each other honestly: the box
[-n,n]^d uses labels (j1,...,jd), the chain [-n,n] uses (j,), and a comb
product uses base-label + fiber-label concatenation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import DomainError

MAX_DEGREE = 64


class GraphBuildError(DomainError):
    pass


@dataclass(frozen=True)
class Graph:
    """Finite simple undirected graph with stable ids and coordinate labels.

    Immutable after build; `adjacency[v]` is the sorted tuple of neighbors of
    vertex id v and `labels[v]` its coordinate tuple.
    """

    labels: tuple
    adjacency: tuple
    _index: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_index",
                           {lab: i for i, lab in enumerate(self.labels)})

    @property
    def vertex_count(self):
        return len(self.labels)

    def id_of(self, label):
        try:
            return self._index[tuple(label)]
        except KeyError:
            raise GraphBuildError("no vertex %r" % (tuple(label),)) from None

    def has_vertex(self, label):
        return tuple(label) in self._index

    def edges(self):
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def adjacency_matrix(self):
        from scipy import sparse

        n = self.vertex_count
        rows, cols = [], []
        for u, nbrs in enumerate(self.adjacency):
            rows.extend([u] * len(nbrs))
            cols.extend(nbrs)
        data = np.ones(len(rows))
        return sparse.csr_matrix((data, (rows, cols)), shape=(n, n))

    def to_doc(self):
        """The JSON-ready description {labels, edges} that `graph_from_doc`
        reads back."""
        return {
            "labels": [list(l) for l in self.labels],
            "edges": [[u, v] for u, v in self.edges()],
        }


def from_edges(labels, edge_labels, max_degree=MAX_DEGREE):
    """Build a Graph from coordinate labels and label-pair edges."""
    labels = tuple(tuple(l) for l in labels)
    index = {}
    for i, lab in enumerate(labels):
        if lab in index:
            raise GraphBuildError("duplicate vertex label %r" % (lab,))
        index[lab] = i
    adj = [set() for _ in labels]
    for a, b in edge_labels:
        try:
            u, v = index[tuple(a)], index[tuple(b)]
        except KeyError as exc:
            raise GraphBuildError("edge endpoint %r is not a vertex"
                                  % (exc.args[0],)) from None
        if u == v:
            raise GraphBuildError("self-loop at %r" % (a,))
        adj[u].add(v)
        adj[v].add(u)
    for i, nbrs in enumerate(adj):
        if len(nbrs) > max_degree:
            raise GraphBuildError(
                "degree %d at %r exceeds cap %d" % (len(nbrs), labels[i], max_degree))
    return Graph(labels, tuple(tuple(sorted(n)) for n in adj))


def graph_from_doc(doc):
    """A Graph from a parsed {labels, edges} description (`Graph.to_doc`),
    edges given as pairs of vertex ids."""
    labels = [_label(lab) for lab in _list(_field(doc, "labels"))]
    edges = [_list(edge, 2) for edge in _list(_field(doc, "edges"))]
    if not all(type(i) is int and 0 <= i < len(labels)
               for edge in edges for i in edge):
        raise GraphBuildError("edges must join vertex ids 0..%d"
                              % (len(labels) - 1))
    return from_edges(labels, [(labels[u], labels[v]) for u, v in edges])


def build_lattice_box(d, n, boundary="free"):
    """Box [-n,n]^d with free or periodic (modulo 2n+1) nearest-neighbor edges."""
    if d < 1:
        raise GraphBuildError("d must be >= 1")
    if boundary not in ("free", "periodic"):
        raise GraphBuildError("boundary must be free or periodic")
    side = 2 * n + 1
    coords = [tuple(c) for c in np.stack(np.meshgrid(
        *[np.arange(-n, n + 1)] * d, indexing="ij"), axis=-1).reshape(-1, d)]
    coords = [tuple(int(x) for x in c) for c in coords]
    edges = []
    for c in coords:
        for ax in range(d):
            nb = list(c)
            nb[ax] += 1
            if nb[ax] > n:
                if boundary == "periodic" and side > 2:
                    nb[ax] -= side
                else:
                    continue
            nbt = tuple(nb)
            if nbt != c:
                edges.append((c, nbt))
    # periodic side==2 would duplicate edges; side is always odd here
    return from_edges(coords, set(tuple(sorted(e)) for e in edges))


def build_chain(n):
    """Path graph on [-n,n] with labels (j,); anchor is (0,)."""
    labels = [(j,) for j in range(-n, n + 1)]
    edges = [((j,), (j + 1,)) for j in range(-n, n)]
    return from_edges(labels, edges)


def build_cycle(m):
    """Cycle on m >= 3 vertices, labels (j,) for j = 0..m-1 (test oracle)."""
    if m < 3:
        raise GraphBuildError("cycle needs >= 3 vertices")
    labels = [(j,) for j in range(m)]
    edges = [((j,), ((j + 1) % m,)) for j in range(m)]
    return from_edges(labels, edges)


def comb_product(base, fiber, root):
    """Comb product: fibers attached at `root`, base edges along the root copy.

    (g,h) ~ (g',h') iff (g = g' and h ~ h') or (h = h' = root and g ~ g').
    Labels are concatenated (base coords..., fiber coords...).
    """
    root = tuple(root)
    if not fiber.has_vertex(root):
        raise GraphBuildError("invalid fiber root %r" % (root,))
    labels = [bl + fl for bl in base.labels for fl in fiber.labels]
    edges = []
    for bl in base.labels:
        for (u, v) in fiber.edges():
            edges.append((bl + fiber.labels[u], bl + fiber.labels[v]))
    for (u, v) in base.edges():
        edges.append((base.labels[u] + root, base.labels[v] + root))
    return from_edges(labels, edges)


@dataclass(frozen=True)
class Perturbation:
    """Edge edits on a base graph plus optional finite attachments.

    `attached` is a tuple of (graph, links) pairs; links are (attached_label,
    base_label) pairs wiring new vertices into the base.
    """

    removed_edges: tuple = ()
    added_edges: tuple = ()
    attached: tuple = ()

    def __post_init__(self):
        rem = {tuple(sorted((tuple(a), tuple(b)))) for a, b in self.removed_edges}
        add = {tuple(sorted((tuple(a), tuple(b)))) for a, b in self.added_edges}
        if rem & add:
            raise GraphBuildError("added and removed edge sets must be disjoint")


def apply_perturbation(g, p):
    """Apply edge edits and attachments; return the new graph."""
    edges = {tuple(sorted(e)) for e in g.edges()}
    for a, b in p.removed_edges:
        e = tuple(sorted((g.id_of(a), g.id_of(b))))
        if e not in edges:
            raise GraphBuildError("edge to remove not present: %r-%r" % (a, b))
        edges.discard(e)
    for a, b in p.added_edges:
        u, v = g.id_of(a), g.id_of(b)
        if tuple(sorted((u, v))) in edges:
            raise GraphBuildError("edge to add already present: %r-%r" % (a, b))
        if u == v:
            raise GraphBuildError("self-loop at %r" % (a,))
        edges.add(tuple(sorted((u, v))))

    new_labels = list(g.labels)
    taken = set(new_labels)
    new_edges = [(g.labels[u], g.labels[v]) for u, v in edges]
    for bg, links in p.attached:
        for lab in bg.labels:
            if lab in taken:
                raise GraphBuildError("attached label %r clashes" % (lab,))
            taken.add(lab)
            new_labels.append(lab)
        for u, v in bg.edges():
            new_edges.append((bg.labels[u], bg.labels[v]))
        for alab, blab in links:
            alab, blab = tuple(alab), tuple(blab)
            if not bg.has_vertex(alab):
                raise GraphBuildError("dangling attachment vertex %r" % (alab,))
            if not g.has_vertex(blab):
                raise GraphBuildError("unknown base vertex %r" % (blab,))
            new_edges.append((alab, blab))
    return from_edges(new_labels, new_edges)


# ---------------------------------------------------------------------------
# JSON graph description interface


def _field(doc, key, *default):
    """doc[key] of a description object; without a default, key is required."""
    if not isinstance(doc, dict):
        raise GraphBuildError("expected a JSON object, got %s" % json.dumps(doc))
    if key not in doc and not default:
        raise GraphBuildError("missing %r in %s" % (key, json.dumps(doc)))
    return doc.get(key, *default)


def _list(value, size=None):
    """A JSON list, of `size` entries when given."""
    if not isinstance(value, list) or size not in (None, len(value)):
        raise GraphBuildError("expected a list%s, got %s" % (
            "" if size is None else " of %d" % size, json.dumps(value)))
    return value


def _label(value):
    if not all(type(c) is int for c in _list(value)):
        raise GraphBuildError("a vertex label is a list of integers, got %s"
                              % json.dumps(value))
    return tuple(value)


def _size(params, key):
    value = _field(params, key)
    if type(value) is not int or value < 0:
        raise GraphBuildError("%s must be a non-negative integer, got %s"
                              % (key, json.dumps(value)))
    return value


_BUILDERS = {
    "lattice_box": lambda p: build_lattice_box(
        _size(p, "d"), _size(p, "n"), _field(p, "boundary", "free")),
    "chain": lambda p: build_chain(_size(p, "n")),
    "cycle": lambda p: build_cycle(_size(p, "m")),
}


def build_from_description(doc):
    """Build a graph from a parsed JSON description {builder, params,
    perturbation}."""
    name = _field(doc, "builder", None)
    if name == "comb":
        params = _field(doc, "params")
        base = build_from_description(_field(params, "base"))
        fiber = build_from_description(_field(params, "fiber"))
        g = comb_product(base, fiber, _label(_field(params, "root")))
    elif name in _BUILDERS:
        g = _BUILDERS[name](_field(doc, "params", {}))
    else:
        raise GraphBuildError("unknown builder %r" % (name,))
    records = _list(_field(doc, "perturbation", []))
    if records:
        removed, added, attached = [], [], []
        for rec in records:
            op = _field(rec, "op", None)
            if op in ("add_edge", "remove_edge"):
                edges = added if op == "add_edge" else removed
                edges.append((_label(_field(rec, "u")),
                              _label(_field(rec, "v"))))
            elif op == "attach":
                bg = graph_from_doc(_field(rec, "graph"))
                links = [(_label(a), _label(b)) for a, b in
                         (_list(ab, 2) for ab in _list(_field(rec, "links")))]
                attached.append((bg, links))
            else:
                raise GraphBuildError("unknown perturbation op %r" % (op,))
        g = apply_perturbation(g, Perturbation(
            tuple(removed), tuple(added), tuple(attached)))
    return g
