import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (all_pairs_nerve, assert_junction_tree, random_graph,
                     random_nerve_tree, random_pairwise_tree,
                     running_intersection_violations)
from hatcc import nerve as nerve_module
from hatcc.compile import UnsatCertificate, augment
from hatcc.factor_graph import FactorDecl, FactorGraph, VariableDecl
from hatcc.generators import (gen_four_cycle, gen_grid_mrf,
                              gen_permutation_graph, gen_zk_sync)
from hatcc.holonomy import diagnose
from hatcc.nerve import (FactorNerve, backbone, build_factor_nerve,
                         fundamental_cycle, to_dot)
from hatcc.trees import UnionFind


class TestBuildNerve:
    def test_four_cycle_edges_and_interfaces(self):
        nerve = build_factor_nerve(gen_four_cycle("odd"))
        got = {e.key: e.interface for e in nerve.edges}
        # ring of factors AB, BC, CD, DA sharing B, C, D, A
        assert got == {(0, 1): (1,), (1, 2): (2,), (2, 3): (3,),
                       (0, 3): (0,)}

    def test_four_cycle_weights_log_two(self):
        nerve = build_factor_nerve(gen_four_cycle("even"))
        for e in nerve.edges:
            assert e.weight == pytest.approx(math.log(2))

    def test_disjoint_scopes_no_edge(self):
        g = FactorGraph("sum_product",
                        tuple(VariableDecl(i, 2) for i in range(4)),
                        (FactorDecl(0, (0, 1), [1.0] * 4),
                         FactorDecl(1, (2, 3), [1.0] * 4)))
        assert build_factor_nerve(g).edges == ()


class TestBackbone:
    def test_four_cycle_single_chord(self):
        nerve = build_factor_nerve(gen_four_cycle("odd"))
        bb = backbone(nerve)
        assert len(bb.chords) == 1
        assert len(bb.tree_edges) == 3

    def test_tree_nerve_zero_chords(self):
        g = FactorGraph("sum_product",
                        tuple(VariableDecl(i, 2) for i in range(3)),
                        (FactorDecl(0, (0, 1), [1.0] * 4),
                         FactorDecl(1, (1, 2), [1.0] * 4)))
        bb = backbone(build_factor_nerve(g))
        assert bb.chords == ()

    def test_chord_count_identity(self):
        for seed in range(20):
            g = random_graph(seed, n=7, m=8)
            nerve = build_factor_nerve(g)
            bb = backbone(nerve)
            components = len(bb.roots)
            assert len(bb.chords) == (len(nerve.edges)
                                      - len(nerve.vertices) + components)

    def test_spanning_forest_weight_maximal(self):
        r = np.random.default_rng(0)
        for seed in range(10):
            g = random_graph(seed, n=6, m=7)
            nerve = build_factor_nerve(g)
            bb = backbone(nerve)
            best = sum(e.weight for e in bb.tree_edges)
            # random alternative spanning forests never beat the backbone
            for _ in range(20):
                order = list(nerve.edges)
                r.shuffle(order)
                parent = {v: v for v in nerve.vertices}

                def find(x):
                    while parent[x] != x:
                        parent[x] = parent[parent[x]]
                        x = parent[x]
                    return x

                total = 0.0
                for e in order:
                    a, b = find(e.f1), find(e.f2)
                    if a != b:
                        parent[a] = b
                        total += e.weight
                assert total <= best + 1e-9

    def test_deterministic(self):
        g = gen_grid_mrf(3, 3, 2.0, 0.3, 0)
        b1 = backbone(build_factor_nerve(g))
        b2 = backbone(build_factor_nerve(g))
        assert [e.key for e in b1.tree_edges] == [e.key for e in b2.tree_edges]
        assert b1.roots == b2.roots


class TestFundamentalCycle:
    def test_four_cycle_path_and_interfaces(self):
        g = gen_four_cycle("odd")
        bb = backbone(build_factor_nerve(g))
        chord = bb.chords[0]
        cyc = fundamental_cycle(g, bb, chord)
        assert cyc.factor_sequence[0] == chord.f2
        assert cyc.factor_sequence[-1] == chord.f1
        assert cyc.interface_sequence[-1] == chord.interface
        # consecutive factors share their listed interface
        for (a, b), J in zip(zip(cyc.factor_sequence,
                                 cyc.factor_sequence[1:]),
                             cyc.interface_sequence):
            shared = set(g.factors[a].scope) & set(g.factors[b].scope)
            assert set(J) == shared

    def test_adjacent_endpoints_two_factor_cycle(self):
        # two factors sharing different variable pairs: parallel nerve paths
        g = FactorGraph("sum_product",
                        tuple(VariableDecl(i, 2) for i in range(3)),
                        (FactorDecl(0, (0, 1), [1.0] * 4),
                         FactorDecl(1, (0, 1, 2), [1.0] * 8),
                         FactorDecl(2, (1, 2), [1.0] * 4)))
        bb = backbone(build_factor_nerve(g))
        # the all-pairs chord (0, 2) closes a cycle around variable 1 only
        assert bb.chords == ()
        full = backbone(all_pairs_nerve(g))
        assert full.tree_edges == bb.tree_edges
        assert [c.key for c in full.chords] == [(0, 2)]
        cyc = fundamental_cycle(g, bb, full.chords[0])
        assert cyc.factor_sequence == (2, 1, 0)
        assert cyc.interface_sequence == ((1, 2), (0, 1), (1,))

    def test_cycles_are_simple(self):
        for seed in range(15):
            g = random_graph(seed, n=6, m=8)
            bb = backbone(build_factor_nerve(g))
            for chord in bb.chords:
                cyc = fundamental_cycle(g, bb, chord)
                assert len(set(cyc.factor_sequence)) == \
                    len(cyc.factor_sequence)


def reference_backbone(graph):
    """All-pairs nerve, Kruskal by (-weight, f1, f2), each component rooted
    at its factor of highest all-pairs degree (ties to the smallest id)."""
    nerve = all_pairs_nerve(graph)
    uf = UnionFind()
    tree = [e for e in sorted(nerve.edges,
                              key=lambda e: (-e.weight, e.f1, e.f2))
            if uf.union(e.f1, e.f2)]
    degree = {v: 0 for v in nerve.vertices}
    adj = {v: [] for v in nerve.vertices}
    for e in nerve.edges:
        degree[e.f1] += 1
        degree[e.f2] += 1
    for e in tree:
        adj[e.f1].append(e.f2)
        adj[e.f2].append(e.f1)
    roots, parent = [], {}
    for v in nerve.vertices:
        if v in parent:
            continue
        comp = [u for u in nerve.vertices if uf.find(u) == uf.find(v)]
        root = max(comp, key=lambda u: (degree[u], -u))
        roots.append(root)
        parent[root] = None
        stack = [root]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in parent:
                    parent[y] = x
                    stack.append(y)
    return sorted(tree, key=lambda e: e.key), roots, parent


def sample_graphs():
    graphs = [random_graph(seed, n=6, m=7) for seed in range(40)]
    graphs += [random_graph(seed, n=8, m=10) for seed in range(10)]
    graphs += [gen_grid_mrf(r, c, 2.0, f, 0)
               for r, c in ((3, 3), (4, 4), (3, 5)) for f in (0.0, 0.3)]
    for seed in range(5):
        for consistent in (True, False):
            graphs.append(gen_permutation_graph(
                "random", 3, 0.1, seed, consistent=consistent, n=7,
                p=0.5).graph)
        graphs.append(gen_zk_sync("random", 3, 0.1, 0.5, seed, n=7,
                                  p=0.4).graph)
        graphs.append(gen_zk_sync("cycle", 2, 0.1, 1.0, seed, n=6).graph)
        graphs.append(random_nerve_tree(seed))
        graphs.append(random_pairwise_tree(seed))
    return graphs


def bipartite_cycle_rank(graph):
    """Independent cycles of the variable-factor incidence graph."""
    uf = UnionFind()
    nodes = set()
    incidences = 0
    for f in graph.factors:
        nodes.add(("f", f.id))
        for v in f.scope:
            incidences += 1
            nodes.add(("v", v))
            uf.union(("f", f.id), ("v", v))
    components = len({uf.find(x) for x in nodes})
    return incidences - len(nodes) + components


class TestSparseNerve:
    def test_backbone_matches_all_pairs_reference(self):
        for g in sample_graphs():
            bb = backbone(build_factor_nerve(g))
            tree, roots, parent = reference_backbone(g)
            assert list(bb.tree_edges) == tree
            assert list(bb.roots) == roots
            assert bb.parent == parent

    def test_edges_subset_of_all_pairs(self):
        for g in sample_graphs():
            full = all_pairs_nerve(g).edge_map()
            nerve = build_factor_nerve(g)
            assert [e.key for e in nerve.edges] == sorted(nerve.edge_map())
            for e in nerve.edges:
                assert full[e.key] == e

    def test_holders_connected_through_their_variable(self):
        for g in sample_graphs():
            nerve = build_factor_nerve(g)
            for v in range(len(g.variables)):
                holders = g.var_neighbors(v)
                uf = UnionFind()
                for e in nerve.edges:
                    if v in e.interface:
                        uf.union(e.f1, e.f2)
                assert len({uf.find(f) for f in holders}) <= 1

    def test_chords_at_most_bipartite_cycle_rank(self):
        for g in sample_graphs():
            bb = backbone(build_factor_nerve(g))
            assert len(bb.chords) <= bipartite_cycle_rank(g)

    @pytest.mark.parametrize("rows,cols", [(3, 3), (4, 5), (6, 6)])
    @pytest.mark.parametrize("field", [0.0, 0.3])
    def test_chords_equal_cycle_rank_on_pairwise_grids(self, rows, cols,
                                                       field):
        g = gen_grid_mrf(rows, cols, 2.0, field, 0)
        bb = backbone(build_factor_nerve(g))
        assert len(bb.chords) == bipartite_cycle_rank(g) \
            == (rows - 1) * (cols - 1)

    def test_no_chords_iff_running_intersection(self):
        # the backbone is a junction tree of the model exactly when the
        # nerve has no chord; the compiled model always is one
        seen = set()
        for g in sample_graphs():
            rep = diagnose(g)
            backbone_ok = not running_intersection_violations(
                [f.scope for f in g.factors],
                [(e.f1, e.f2) for e in rep.backbone.tree_edges])
            no_chords = not rep.backbone.chords
            assert no_chords == backbone_ok
            seen.add(no_chords)
            compiled = augment(g, rep)
            assert not isinstance(compiled, UnsatCertificate)
            assert_junction_tree(compiled)
        assert seen == {True, False}


def reference_nerve(graph):
    """Kruskal by (-weight, f1, f2) over all pairs of each variable's
    holders, taken from the all-pairs nerve."""
    full = all_pairs_nerve(graph)
    chosen = {}
    for v in range(len(graph.variables)):
        uf = UnionFind()
        for e in sorted((e for e in full.edges if v in e.interface),
                        key=lambda e: (-e.weight, e.f1, e.f2)):
            if uf.union(e.f1, e.f2):
                chosen[e.key] = e
    return FactorNerve(full.vertices,
                       tuple(chosen[k] for k in sorted(chosen)),
                       full.overlaps)


def graph_of(cards, scopes):
    return FactorGraph(
        "sum_product", tuple(VariableDecl(i, c) for i, c in enumerate(cards)),
        tuple(FactorDecl(j, s, np.ones(math.prod(cards[v] for v in s)))
              for j, s in enumerate(scopes)))


@st.composite
def cards_and_scopes(draw):
    cards = draw(st.lists(st.integers(1, 3), min_size=1, max_size=6))
    scope = st.lists(st.integers(0, len(cards) - 1), unique=True,
                     max_size=min(4, len(cards)))
    return cards, draw(st.lists(scope, max_size=10))


class TestNerveReference:
    @given(cards_and_scopes())
    @settings(max_examples=300, deadline=None)
    # factors sharing two variables, one beside a unary on the same pair
    @example(([2, 3, 2], [[0, 1], [0, 1, 2], [1], [1, 2], [0, 1]]))
    # a cardinality-1 variable: pairs sharing it tie with unary pairs
    @example(([2, 1, 2], [[0, 1], [0], [0, 1], [1, 2], [1], [0, 2]]))
    # empty scopes and two components
    @example(([2, 2, 3, 3], [[], [0, 1], [1], [], [2, 3], [3, 2], [3]]))
    def test_matches_all_pairs_kruskal(self, drawn):
        g = graph_of(*drawn)
        got, want = build_factor_nerve(g), reference_nerve(g)
        assert got == want
        assert backbone(got) == backbone(want)

    def test_unary_ladder_builds_a_star_in_linear_time(self, monkeypatch):
        built = []
        real = nerve_module.NerveEdge

        def counted(*args):
            built.append(args)
            return real(*args)
        monkeypatch.setattr(nerve_module, "NerveEdge", counted)
        counts = []
        ladder = (100, 200, 400, 800)
        for d in ladder:
            g = graph_of([2], [[0]] * d)
            built.clear()
            nerve = build_factor_nerve(g)
            assert len(nerve.edges) == d - 1
            assert {e.f1 for e in nerve.edges} == {0}
            assert nerve.overlaps == (d - 1,) * d
            counts.append(len(built))
        # one edge built per kept edge; all pairs would be d(d - 1)/2
        assert counts == [d - 1 for d in ladder]


def test_dot_export_styles():
    g = gen_four_cycle("odd")
    nerve = build_factor_nerve(g)
    bb = backbone(nerve)
    dot = to_dot(nerve, bb)
    assert dot.count("style=dashed") == len(bb.chords)
    assert dot.startswith("graph nerve {")
