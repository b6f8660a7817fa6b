import pytest

from fstarcount.bases import eval_fstar
from fstarcount.coloring import (Hypergraph, coloring_complex_faces,
                                 coloring_complex_fvector,
                                 coloring_complex_hstar, edge_chain_faces,
                                 improper_vertex_set,
                                 realize_coloring_complex)
from fstarcount.cones import enumerate_atomic
from fstarcount.simplices import fstar_complex, homogenize, is_unimodular

TRIPLE_EDGES = (frozenset(range(1, 7)), frozenset(range(4, 10)),
               frozenset({1, 2, 3, 7, 8, 9}))
TRIPLE_GRAPH = Hypergraph(10, TRIPLE_EDGES)


class TestHypergraph:
    def test_edge_too_small(self):
        with pytest.raises(ValueError, match="two vertices"):
            Hypergraph(3, (frozenset({1}),))

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError):
            Hypergraph(3, (frozenset({1, 4}),))

    @pytest.mark.parametrize("vertex_count,edges", [
        (9, [{1, 2}]),                    # 545,834 chains on one edge
        (8, [{1, 2}, {3, 4}, {5, 6}]),    # 3 x 47,292 chains
        (10**18, [{1, 2}]),               # refused without a vertex range
    ])
    def test_too_many_chain_faces_refused(self, vertex_count, edges):
        with pytest.raises(ValueError, match="coloring complex too large"):
            Hypergraph(vertex_count, tuple(map(frozenset, edges)))


class TestImproperVertexSet:
    def test_large_edge(self):
        vectors = improper_vertex_set(TRIPLE_GRAPH, frozenset(range(1, 7)))
        assert len(vectors) == 30

    def test_full_edge_empty(self):
        graph = Hypergraph(3, (frozenset({1, 2, 3}),))
        assert improper_vertex_set(graph, frozenset({1, 2, 3})) == set()

    def test_two_vertex_edge(self):
        graph = Hypergraph(3, (frozenset({1, 2}),))
        assert improper_vertex_set(graph, frozenset({1, 2})) == {
            (0, 0, 1), (1, 1, 0)}

    def test_non_edge_rejected(self):
        with pytest.raises(ValueError):
            improper_vertex_set(TRIPLE_GRAPH, frozenset({1, 2}))


class TestFVector:
    def test_triple_edge_instance(self):
        assert coloring_complex_fvector(TRIPLE_GRAPH) == (86, 450, 720, 360)

    def test_single_sphere(self):
        single = Hypergraph(10, (frozenset(range(1, 7)),))
        f = coloring_complex_fvector(single)
        assert f == (30, 150, 240, 120)
        # Euler relation of the sphere
        assert f[0] - f[1] + f[2] - f[3] == 0

    def test_edge_covering_all_vertices(self):
        graph = Hypergraph(4, (frozenset({1, 2, 3, 4}),))
        assert coloring_complex_fvector(graph) == ()


class TestHStar:
    def test_triple_edge_instance(self):
        fstar, hstar = coloring_complex_hstar(TRIPLE_GRAPH)
        assert hstar.entries == (-4, 102, 168, 94)
        assert fstar.entries == (86, 450, 720, 360)
        assert fstar.is_nonnegative_integral()

    def test_single_sphere(self):
        single = Hypergraph(10, (frozenset(range(1, 7)),))
        _, hstar = coloring_complex_hstar(single)
        assert hstar.entries == (0, 30, 60, 30)

    def test_empty_complex(self):
        graph = Hypergraph(4, (frozenset({1, 2, 3, 4}),))
        fstar, hstar = coloring_complex_hstar(graph)
        assert fstar.entries == (0,) and hstar.entries == (0,)


class TestInclusionExclusion:
    def test_triple_edge_decomposition(self):
        per_edge = [edge_chain_faces(TRIPLE_GRAPH, e) for e in TRIPLE_EDGES]
        shared = per_edge[0] & per_edge[1] & per_edge[2]
        # every pairwise intersection already equals the common part
        for i in range(3):
            for j in range(i + 1, 3):
                assert per_edge[i] & per_edge[j] == shared
        # the shared subcomplex is two isolated vertices, the vectors
        # constant on vertices 1..9
        assert shared == {
            frozenset({(0,) * 9 + (1,)}), frozenset({(1,) * 9 + (0,)})}
        union = coloring_complex_faces(TRIPLE_GRAPH)
        assert len(union) == sum(len(s) for s in per_edge) - 2 * len(shared)

    def test_f_vector_identity(self):
        single = Hypergraph(10, (frozenset(range(1, 7)),))
        sphere_f = coloring_complex_fvector(single)
        total_f = coloring_complex_fvector(TRIPLE_GRAPH)
        shared_f = (2, 0, 0, 0)
        assert total_f == tuple(3 * s - 2 * x
                                for s, x in zip(sphere_f, shared_f))


class TestGeometricRealization:
    def test_small_instance_faces_unimodular(self):
        graph = Hypergraph(4, (frozenset({1, 2}), frozenset({3, 4})))
        realized = realize_coloring_complex(graph)
        assert all(is_unimodular(cell.as_closed()) for cell in realized.cells)

    def test_unimodular_agrees_with_the_atomic_count(self):
        graph = Hypergraph(5, (frozenset({1, 2}), frozenset({3, 4, 5})))
        cells = realize_coloring_complex(graph).cells
        assert len(cells) == sum(coloring_complex_fvector(graph))
        for cell in cells:
            assert is_unimodular(cell)
            assert len(enumerate_atomic(homogenize(cell, 1))) == 1

    def test_counting_oracle_agreement(self):
        # the combinatorial face counts and the geometric lattice counts
        # define the same counting polynomial
        fstar, _ = coloring_complex_hstar(TRIPLE_GRAPH)
        realized = realize_coloring_complex(TRIPLE_GRAPH)
        geometric = fstar_complex(realized)
        assert geometric == fstar
        for k in range(1, 5):
            assert eval_fstar(geometric, k) == eval_fstar(fstar, k)
