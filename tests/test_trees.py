import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parsiml import (EdgeProbs, NewickError, TopologyCapError, Tree,
                     brute_force_score, canonical_newick,
                     char_likelihood_exhaustive, char_likelihood_pruning,
                     enumerate_topologies, fitch_score, parse_newick,
                     pattern_likelihoods, topology_count)
from parsiml.trees import EXTENSION_CAP, _extensions

from conftest import (all_characters, caterpillar, is_binary, random_tree,
                      reference_rooted_plan)


@st.composite
def binary_trees(draw, min_leaves=3, max_leaves=6):
    n = draw(st.integers(min_leaves, max_leaves))
    index = draw(st.integers(0, topology_count(n) - 1))
    return _topology(n, index)


_topology_cache = {}


def _topology(n, index):
    if n not in _topology_cache:
        _topology_cache[n] = list(enumerate_topologies(n))
    return _topology_cache[n][index]


class TestEdgeCount:
    def test_quartet(self, quartet):
        assert len(quartet.edges) == 5

    def test_two_leaf(self, two_leaf):
        assert len(two_leaf.edges) == 1

    def test_binary_five_leaf(self):
        assert len(caterpillar(5).edges) == 7

    @given(binary_trees())
    def test_binary_formula(self, tree):
        assert len(tree.edges) == 2 * tree.n - 3


class TestValidate:
    """Every ``Tree`` is a tree: construction refuses any other graph."""

    def test_quartet_ok(self, quartet):
        assert Tree(4, quartet.edges) == quartet

    def test_internal_degree_two(self):
        # the path 1 - 3 - 2: vertex 3 is an unlabeled degree-2 vertex
        with pytest.raises(ValueError, match="internal degree-2 vertex 3"):
            Tree(2, [(1, 3), (2, 3)])

    def test_nonpositive_vertex_rejected(self):
        # leaf v is vertex v, so an id below 1 could be mistaken for a leaf
        with pytest.raises(ValueError, match="not positive"):
            Tree(3, [(0, 1), (0, 2), (0, 3)])

    def test_disconnected(self):
        with pytest.raises(ValueError, match="one tree"):
            Tree(4, [(1, 2), (3, 4)])

    @pytest.mark.parametrize("n,edges", [
        (3, [(1, 4), (2, 4), (3, 5), (4, 5), (5, 6), (4, 6)]),
        (4, [(1, 5), (2, 5), (3, 6), (4, 6)]),
    ], ids=["cycle", "disconnected"])
    def test_traversal_refuses_non_tree(self, n, edges):
        # in a child process with a timeout: a cycle once made the
        # traversal loop forever
        code = (f"from parsiml import Tree, fitch_score\n"
                f"try:\n"
                f"    tree = Tree({n}, {edges})\n"
                f"    fitch_score(tree, (0,) * {n})\n"
                f"except ValueError as exc:\n"
                f"    print('refused:', exc)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=20)
        assert proc.stdout.startswith("refused:"), proc.stderr
        assert "one tree" in proc.stdout

    def test_leaf_with_wrong_degree(self):
        # leaf 3 sits in the middle of a path
        with pytest.raises(ValueError, match="leaf 3 has degree 2"):
            Tree(3, [(1, 3), (3, 2)])

    @pytest.mark.parametrize("n,edges,message", [
        (4, [(1, 5), (2, 5), (3, 5)], "leaf 4 has degree 0, expected 1"),
        (3, [(1, 4), (2, 4), (3, 4), (4, 7)], "internal degree-1 vertex 7"),
        (3, [(1, 4), (2, 4), (3, 4), (4, 4)], "self-loop on vertex 4"),
        (3, [(1, 4), (2, 4), (3, 4), (4, 1)], r"duplicate edge \(1, 4\)"),
        (3, [], "at least one edge"),
        (0, [(1, 2)], "leaf count must be positive"),
        (1, [(1, 2)], "internal degree-1 vertex 2"),
    ], ids=["missing-leaf", "unlabeled-pendant", "self-loop", "duplicate-edge",
            "no-edge", "no-leaf", "one-leaf"])
    def test_refused_at_construction(self, n, edges, message):
        with pytest.raises(ValueError, match=message):
            Tree(n, edges)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_enumerated_trees_are_valid(self, n):
        for tree in enumerate_topologies(n):
            text = canonical_newick(tree)
            assert canonical_newick(parse_newick(text)) == text


def _mutations(tree, rng):
    """Edge lists that each break one rule, for every mutation that fits."""
    edges = list(tree.edges)
    internal = tree.internal_vertices()
    fresh = max(tree.vertices) + 1
    u, v = edges[rng.randrange(len(edges))]
    yield "subdivide", [e for e in edges if e != (u, v)] + [(u, fresh),
                                                            (fresh, v)]
    leaf = rng.randint(1, tree.n)
    yield "drop-leaf-edge", [e for e in edges if leaf not in e]
    if internal:
        yield "hang", edges + [(rng.choice(internal), fresh)]
        w = rng.choice(internal)
        swap = {leaf: w, w: leaf}
        yield "swap-ids", [(swap.get(a, a), swap.get(b, b)) for a, b in edges]
    chords = [(a, b) for a in internal for b in internal
              if a < b and (a, b) not in tree.edges]
    if chords:
        yield "chord", edges + [rng.choice(chords)]


def _refused(n, edges) -> bool:
    try:
        Tree(n, edges)
    except ValueError:
        return True
    return False


@pytest.mark.parametrize("n", range(2, 9))
def test_only_trees_construct_and_kernels_agree_on_them(n):
    for seed in range(10):
        tree = random_tree(n, seed)
        rng = random.Random(seed)
        for name, edges in _mutations(tree, rng):
            assert _refused(n, edges), f"{name} mutation accepted: {edges}"
        probs = EdgeProbs.from_vector(
            tree, [rng.uniform(0.0, 0.5) for _ in tree.edges])
        for ch in all_characters(n):
            assert fitch_score(tree, ch) == brute_force_score(tree, ch)
            assert char_likelihood_pruning(tree, probs, ch) == pytest.approx(
                char_likelihood_exhaustive(tree, probs, ch), rel=1e-12)
        again = parse_newick(canonical_newick(tree))
        assert canonical_newick(again) == canonical_newick(tree)
        assert len(again.edges) == len(tree.edges)


class TestRootedPlan:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_matches_reference_at_every_anchor(self, n):
        for tree in enumerate_topologies(n):
            for anchor in tree.vertices:
                assert tree.rooted_plan(anchor) == \
                    reference_rooted_plan(tree, anchor)

    @pytest.mark.parametrize("text", ["(1,2);", "(1,2,3,4,5);",
                                      "((1,2,3),(4,5,6));",
                                      "(1,(2,3,4),(5,6,7,8));"])
    def test_matches_reference_off_binary(self, text):
        tree = parse_newick(text)
        for anchor in tree.vertices:
            assert tree.rooted_plan(anchor) == \
                reference_rooted_plan(tree, anchor)

    def test_canonical_root_is_leaf_one_neighbour(self):
        trees = [t for n in range(3, 8) for t in enumerate_topologies(n)]
        trees.append(parse_newick("((2,1,5),(3,4,6,7));"))
        for tree in trees:
            (leaf1_edge,) = [e for e in tree.edges if 1 in e]
            assert tree.canonical_root() == leaf1_edge[1]
        assert parse_newick("(1,2);").canonical_root() == 1

    @pytest.mark.parametrize("call", [
        lambda t, a: t.rooted_plan(a),
        lambda t, a: pattern_likelihoods(t, EdgeProbs.uniform(t, 0.1),
                                         [(0, 0, 1, 1)], anchor=a),
        lambda t, a: char_likelihood_pruning(t, EdgeProbs.uniform(t, 0.1),
                                             (0, 0, 1, 1), anchor=a),
    ], ids=["rooted_plan", "pattern_likelihoods", "char_likelihood_pruning"])
    @pytest.mark.parametrize("anchor", [0, 7, 99])
    def test_anchor_off_the_tree_refused(self, quartet, call, anchor):
        with pytest.raises(ValueError, match=f"anchor {anchor} is not a vertex"):
            call(quartet, anchor)
        assert quartet.rooted_plan(6) == reference_rooted_plan(quartet, 6)


class TestEnumeration:
    @pytest.mark.parametrize("n,expected", [(3, 1), (4, 3), (5, 15), (6, 105), (7, 945)])
    def test_counts_and_uniqueness(self, n, expected):
        # oracle: dedup by canonical form, compare against the double factorial
        seen = set()
        count = 0
        for tree in enumerate_topologies(n):
            seen.add(canonical_newick(tree))
            count += 1
        assert count == expected == topology_count(n)
        assert len(seen) == expected

    def test_all_binary(self):
        assert all(is_binary(t) for t in enumerate_topologies(5))

    def test_prune_skips_subtrees(self):
        seen = []

        def keep_first_quartet(edges):
            seen.append(len(edges))
            # a 4-leaf partial tree has 5 edges; keep only the first one
            return len(edges) == 5 and seen.count(5) > 1

        kept = list(enumerate_topologies(5, prune=keep_first_quartet))
        assert kept == list(enumerate_topologies(5))[:5]
        # every tree on the way is offered: 1 + 3 partial, then 5 complete
        assert sorted(seen) == [3] + [5] * 3 + [7] * 5

    def test_cap_refused(self):
        with pytest.raises(TopologyCapError, match="cap"):
            next(enumerate_topologies(9))

    def test_cap_can_be_raised(self):
        stream = enumerate_topologies(9, cap=9)
        assert next(stream).n == 9

    def test_too_few_leaves(self):
        with pytest.raises(ValueError):
            next(enumerate_topologies(2))
        with pytest.raises(ValueError, match="defined for n >= 3"):
            topology_count(2)


class TestExtensions:
    """The one enumeration both exhaustive oracles walk."""

    @pytest.mark.parametrize("tree", [random_tree(n, n) for n in range(2, 8)]
                             + [parse_newick("(1,2,(3,4,5));")],
                             ids=[f"n={n}" for n in range(2, 8)]
                             + ["(1,2,(3,4,5))"])
    def test_every_assignment_once_with_the_leaves_fixed(self, tree):
        internal = tree.internal_vertices()
        rng = random.Random(tree.n)
        for ch in rng.sample(list(all_characters(tree.n)),
                             min(8, 2 ** tree.n)):
            seen = [dict(state) for state in _extensions(tree, ch, "test")]
            assert len(seen) == 2 ** len(internal)
            assert len({tuple(sorted(s.items())) for s in seen}) == len(seen)
            for count, state in enumerate(seen):
                assert set(state) == tree.vertices
                assert all(state[v] == ch[v - 1] for v in range(1, tree.n + 1))
                # internal vertex j (sorted) takes bit j of the count: the
                # order both oracles sum and minimise in
                assert [state[v] for v in internal] == [
                    count >> j & 1 for j in range(len(internal))]

    @pytest.mark.parametrize("oracle,word", [
        (brute_force_score, "brute-force"),
        (lambda tree, ch: char_likelihood_exhaustive(
            tree, EdgeProbs.uniform(tree, 0.1), ch), "exhaustive"),
    ], ids=["brute-force", "exhaustive"])
    def test_oracles_refuse_past_the_one_cap(self, oracle, word):
        assert EXTENSION_CAP == 24
        tree = caterpillar(27)  # 25 internal vertices
        with pytest.raises(ValueError) as err:
            oracle(tree, (0,) * 27)
        assert str(err.value) == (f"25 internal vertices exceeds the {word} "
                                  f"cap (24)")


class TestNewick:
    def test_parse_quartet(self, quartet):
        assert quartet.n == 4
        assert len(quartet.edges) == 5
        assert canonical_newick(quartet) == "(1,2,(3,4));"

    def test_write_parse_round_trip(self, quartet):
        text = canonical_newick(quartet)
        again = parse_newick(text)
        assert canonical_newick(again) == text

    def test_write_of_parse_is_idempotent(self):
        for raw in ["((1,2),(3,4));", "((3,4),(2,1));", "(4,(1,2),3);",
                    "(1,2);", "(1,(2,(3,(4,5))));"]:
            once = canonical_newick(parse_newick(raw))
            assert canonical_newick(parse_newick(once)) == once

    def test_multifurcation_allowed(self):
        star = parse_newick("(1,2,3,4);")
        assert not is_binary(star)
        assert star.degree(star.canonical_root()) == 4

    def test_star_resolved_form(self):
        # the unrooted topology of ((1,2),3,4) is the quartet 12|34
        tree = parse_newick("((1,2),3,4);")
        assert all(tree.degree(v) == 3 for v in tree.internal_vertices())
        assert canonical_newick(tree) == "(1,2,(3,4));"

    def test_parse_error_carries_position(self):
        with pytest.raises(NewickError) as err:
            parse_newick("((1,2),(3,x));")
        assert err.value.position == 10

    @pytest.mark.parametrize("bad", [
        "((1,2),(3,4))",     # missing terminator
        "((1,2);",           # unbalanced
        "(1);",              # single-child group
        "1;",                # a lone leaf is not a tree
        "((1,2),(3,4)); x",  # trailing content
        "(1,2,(3,4)",        # unclosed
    ])
    def test_malformed_inputs(self, bad):
        with pytest.raises(NewickError):
            parse_newick(bad)

    def test_end_of_input_names_its_position(self):
        message = r"unexpected end of input \(position 7\)"
        with pytest.raises(NewickError, match=message) as err:
            parse_newick("((1,2),")
        assert err.value.position == 7

    def test_duplicate_label(self):
        with pytest.raises(NewickError, match="duplicate leaf label 2"):
            parse_newick("((1,2),(2,3));")

    def test_unknown_label(self):
        with pytest.raises(NewickError, match="unknown label 7"):
            parse_newick("((1,2),(3,7));")

    def test_deep_caterpillar_round_trip(self):
        n = 3000
        text = str(n)
        for leaf in range(n - 1, 0, -1):
            text = f"({leaf},{text})"
        tree = parse_newick(text + ";")
        assert tree.n == n and len(tree.edges) == 2 * n - 3
        canon = canonical_newick(tree)
        assert canon == canonical_newick(caterpillar(n))
        assert canonical_newick(parse_newick(canon)) == canon

    def test_internal_ids_follow_group_closing_order(self):
        tree = parse_newick("((1,2),((3,4),5),6);")
        assert tree.edges == ((1, 7), (2, 7), (3, 8), (4, 8), (5, 9), (6, 10),
                              (7, 10), (8, 9), (9, 10))

    def test_whitespace_tolerated(self):
        tree = parse_newick(" ( ( 1 , 2 ) , ( 3 , 4 ) ) ; ")
        assert canonical_newick(tree) == "(1,2,(3,4));"

    @given(binary_trees())
    @settings(max_examples=60)
    def test_round_trip_any_topology(self, tree):
        assert canonical_newick(parse_newick(canonical_newick(tree))) == canonical_newick(tree)
