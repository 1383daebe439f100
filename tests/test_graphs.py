import json
import re
from fractions import Fraction

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from combgas import graphs


def label_edges(g):
    """The edge set of g as unordered pairs of vertex labels."""
    return {frozenset((g.labels[u], g.labels[v])) for u, v in g.edges()}


def edge(a, b):
    return frozenset(((a,), (b,)))


def test_chain_basics():
    g = graphs.build_chain(3)
    edges = label_edges(g)
    assert g.vertex_count == 7
    assert len(edges) == 6
    assert sum((0,) in e for e in edges) == 2
    assert sum((3,) in e for e in edges) == 1
    assert connected_components(g.adjacency_matrix())[0] == 1
    assert edge(0, 1) in edges
    assert edge(-3, 3) not in edges


def test_adjacency_symmetric_no_loops():
    g = graphs.build_lattice_box(2, 2, "periodic")
    a = g.adjacency_matrix().toarray()
    assert np.array_equal(a, a.T)
    assert np.all(np.diag(a) == 0)
    # periodic box is 2d-regular
    assert np.all(a.sum(axis=0) == 4)


def test_lattice_box_free_vs_periodic_edges():
    free = graphs.build_lattice_box(1, 2, "free")
    per = graphs.build_lattice_box(1, 2, "periodic")
    assert len(label_edges(free)) == 4
    assert len(label_edges(per)) == 5


def test_cycle():
    g = graphs.build_cycle(6)
    assert g.vertex_count == 6
    edges = label_edges(g)
    assert len(edges) == 6
    assert all(sum(lab in e for e in edges) == 2 for lab in g.labels)


def test_comb_product_edge_count():
    base = graphs.build_lattice_box(1, 2, "periodic")
    fiber = graphs.build_chain(2)
    g = graphs.comb_product(base, fiber, (0,))
    # 5 fibers of 4 edges each + 5 backbone edges
    assert g.vertex_count == 25
    assert len(label_edges(g)) == 5 * 4 + 5
    assert connected_components(g.adjacency_matrix())[0] == 1


def test_json_round_trip():
    g = graphs.build_cycle(5)
    g2 = graphs.graph_from_doc(json.loads(json.dumps(g.to_doc())))
    assert g2.vertex_count == g.vertex_count
    assert g2.labels == g.labels
    assert label_edges(g2) == label_edges(g)


def test_degree_cap():
    labels = [(0,)] + [(i,) for i in range(1, 70)]
    edges = [((0,), (i,)) for i in range(1, 70)]
    with pytest.raises(graphs.GraphBuildError):
        graphs.from_edges(labels, edges)


def test_apply_perturbation_add_edge():
    g = graphs.build_chain(3)
    p = graphs.Perturbation(added_edges=(((-1,), (1,)),))
    g2 = graphs.apply_perturbation(g, p)
    assert label_edges(g2) == label_edges(g) | {edge(-1, 1)}


def test_apply_perturbation_remove_and_attach():
    g = graphs.build_chain(2)
    nail = graphs.from_edges([(100,)], [])
    p = graphs.Perturbation(
        removed_edges=(((1,), (2,)),),
        attached=((nail, (((100,), (0,)),)),),
    )
    g2 = graphs.apply_perturbation(g, p)
    assert g2.labels == g.labels + ((100,),)
    assert label_edges(g2) == (label_edges(g) - {edge(1, 2)}) | {edge(100, 0)}


def test_perturbation_involution():
    g = graphs.build_chain(3)
    p = graphs.Perturbation(added_edges=(((-2,), (2,)),))
    g2 = graphs.apply_perturbation(g, p)
    q = graphs.Perturbation(removed_edges=(((-2,), (2,)),))
    g3 = graphs.apply_perturbation(g2, q)
    assert label_edges(g3) == label_edges(g)


def test_perturbation_disjointness():
    with pytest.raises(graphs.GraphBuildError):
        graphs.Perturbation(added_edges=(((0,), (1,)),),
                            removed_edges=(((1,), (0,)),))


NAIL = graphs.from_edges([(100,)], [])


@pytest.mark.parametrize("kwargs,message", [
    ({"removed_edges": (((-2,), (2,)),)}, "edge to remove not present"),
    ({"added_edges": (((0,), (1,)),)}, "edge to add already present"),
    ({"added_edges": (((1,), (1,)),)}, "self-loop at (1,)"),
    ({"added_edges": (((9,), (1,)),)}, "no vertex (9,)"),
    ({"attached": ((graphs.build_chain(1), ()),)},
     "attached label (-1,) clashes"),
    ({"attached": ((NAIL, ()), (NAIL, ()))}, "attached label (100,) clashes"),
    ({"attached": ((NAIL, (((101,), (0,)),)),)},
     "dangling attachment vertex (101,)"),
    ({"attached": ((NAIL, (((100,), (9,)),)),)}, "unknown base vertex (9,)"),
    ({"attached": ((graphs.from_edges([(100 + i,) for i in range(64)], []),
                    tuple(((100 + i,), (0,)) for i in range(64))),)},
     "degree 66 at (0,) exceeds cap 64"),
], ids=["remove_absent", "add_present", "self_loop", "no_vertex",
        "clash_base", "clash_attached", "dangling", "unknown_base",
        "degree_cap"])
def test_apply_perturbation_refusals(kwargs, message):
    with pytest.raises(graphs.GraphBuildError, match=re.escape(message)):
        graphs.apply_perturbation(graphs.build_chain(2),
                                  graphs.Perturbation(**kwargs))


def test_symdiff_density_comb_vs_fibers():
    n = 4
    base = graphs.build_lattice_box(1, n, "periodic")
    fiber = graphs.build_chain(n)
    comb = graphs.comb_product(base, fiber, (0,))
    fibers_only = graphs.from_edges(
        comb.labels,
        [(u, v) for u, v in (tuple(map(tuple, (comb.labels[a], comb.labels[b])))
                             for a, b in comb.edges())
         if u[1] != 0 or v[1] != 0 or u[0] == v[0]],
    )
    # the symmetric difference is exactly the backbone edge set
    base_edges = len(label_edges(base))
    assert len(label_edges(comb)) - len(label_edges(fibers_only)) == base_edges
    diff = label_edges(comb) ^ label_edges(fibers_only)
    assert diff == {frozenset((b + (0,), c + (0,)))
                    for b, c in label_edges(base)}
    # its density vanishes as the window grows: density-zero perturbation
    dens = Fraction(len(diff), comb.vertex_count)
    assert dens == Fraction(base_edges, (2 * n + 1) ** 2)
    assert float(dens) < 0.15


def test_build_from_description_and_errors():
    doc = {"builder": "chain", "params": {"n": 2},
           "perturbation": [{"op": "add_edge", "u": [-1], "v": [1]}]}
    g = graphs.build_from_description(doc)
    assert edge(-1, 1) in label_edges(g)
    with pytest.raises(graphs.GraphBuildError):
        graphs.build_from_description({"builder": "nope"})


def test_build_from_description_comb():
    doc = {"builder": "comb",
           "params": {"base": {"builder": "lattice_box",
                               "params": {"d": 1, "n": 2,
                                          "boundary": "periodic"}},
                      "fiber": {"builder": "chain", "params": {"n": 2}},
                      "root": [0]}}
    g = graphs.build_from_description(doc)
    assert g.vertex_count == 25
