import json
from fractions import Fraction

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from combgas import graphs


def label_edges(g):
    """The edge set of g as unordered pairs of vertex labels."""
    return {frozenset((g.labels[u], g.labels[v])) for u, v in g.edges()}


def test_chain_basics():
    g = graphs.build_chain(3)
    assert g.vertex_count == 7
    assert g.edge_count == 6
    assert g.degree(g.id_of((0,))) == 2
    assert g.degree(g.id_of((3,))) == 1
    assert connected_components(g.adjacency_matrix())[0] == 1
    assert g.has_edge(g.id_of((0,)), g.id_of((1,)))
    assert not g.has_edge(g.id_of((-3,)), g.id_of((3,)))


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
    assert free.edge_count == 4
    assert per.edge_count == 5


def test_cycle():
    g = graphs.build_cycle(6)
    assert g.vertex_count == 6
    assert g.edge_count == 6
    assert all(g.degree(v) == 2 for v in range(6))


def test_comb_product_edge_count():
    base = graphs.build_lattice_box(1, 2, "periodic")
    fiber = graphs.build_chain(2)
    g = graphs.comb_product(base, fiber, (0,))
    # 5 fibers of 4 edges each + 5 backbone edges
    assert g.vertex_count == 25
    assert g.edge_count == 5 * 4 + 5
    assert connected_components(g.adjacency_matrix())[0] == 1


def test_json_round_trip():
    g = graphs.build_cycle(5)
    g2 = graphs.graph_from_json(g.to_json())
    assert g2.vertex_count == g.vertex_count
    assert g2.labels == g.labels
    assert label_edges(g2) == label_edges(g)


def test_degree_cap():
    labels = [(0,)] + [(i,) for i in range(1, 70)]
    edges = [((0,), (i,)) for i in range(1, 70)]
    with pytest.raises(graphs.GraphBuildError):
        graphs.from_edges(labels, edges)


def test_apply_perturbation_add_edge_blocks():
    g = graphs.build_chain(3)
    p = graphs.Perturbation(added_edges=(((-1,), (1,)),))
    g2, blocks = graphs.apply_perturbation(g, p)
    assert g2.edge_count == g.edge_count + 1
    assert set(blocks.support) == {(-1,), (1,)}
    assert np.array_equal(blocks.d_block, blocks.d_block.T)
    assert blocks.d_block.sum() == 2  # one added edge, two symmetric entries


def test_apply_perturbation_remove_and_attach():
    g = graphs.build_chain(2)
    nail = graphs.from_edges([(100,)], [])
    p = graphs.Perturbation(
        removed_edges=(((1,), (2,)),),
        attached=((nail, (((100,), (0,)),)),),
    )
    g2, blocks = graphs.apply_perturbation(g, p)
    assert not g2.has_edge(g2.id_of((1,)), g2.id_of((2,)))
    assert g2.has_edge(g2.id_of((100,)), g2.id_of((0,)))
    assert blocks.b_graph.vertex_count == 1
    assert blocks.c_block.shape[1] == 1


def test_perturbation_involution():
    g = graphs.build_chain(3)
    p = graphs.Perturbation(added_edges=(((-2,), (2,)),))
    g2, _ = graphs.apply_perturbation(g, p)
    q = graphs.Perturbation(removed_edges=(((-2,), (2,)),))
    g3, _ = graphs.apply_perturbation(g2, q)
    assert label_edges(g3) == label_edges(g)


def test_perturbation_disjointness():
    with pytest.raises(graphs.GraphBuildError):
        graphs.Perturbation(added_edges=(((0,), (1,)),),
                            removed_edges=(((1,), (0,)),))


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
    assert comb.edge_count - fibers_only.edge_count == base.edge_count
    diff = label_edges(comb) ^ label_edges(fibers_only)
    assert diff == {frozenset((b + (0,), c + (0,)))
                    for b, c in label_edges(base)}
    # its density vanishes as the window grows: density-zero perturbation
    dens = Fraction(len(diff), comb.vertex_count)
    assert dens == Fraction(base.edge_count, (2 * n + 1) ** 2)
    assert float(dens) < 0.15


def test_build_from_description_and_errors():
    doc = {"builder": "chain", "params": {"n": 2},
           "perturbation": [{"op": "add_edge", "u": [-1], "v": [1]}]}
    g, blocks = graphs.build_from_description(doc)
    assert g.has_edge(g.id_of((-1,)), g.id_of((1,)))
    assert blocks is not None
    with pytest.raises(graphs.GraphBuildError):
        graphs.build_from_description({"builder": "nope"})


def test_build_from_description_comb():
    doc = {"builder": "comb",
           "params": {"base": {"builder": "lattice_box",
                               "params": {"d": 1, "n": 2,
                                          "boundary": "periodic"}},
                      "fiber": {"builder": "chain", "params": {"n": 2}},
                      "root": [0]}}
    g, _ = graphs.build_from_description(json.dumps(doc))
    assert g.vertex_count == 25
