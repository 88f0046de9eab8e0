import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parsiml import (DataMatrix, brute_force_score, canonical_newick,
                     enumerate_topologies, fitch_score, is_constant,
                     mp_search, pad_constant_sites, pad_with_count,
                     parse_newick, parsimony_score, random_instance)
from parsiml import parsimony
from parsiml.parsimony import (_PatternMasks, _edge_plan, _graft,
                               pattern_scores)
from parsiml.trees import Tree, _postorder

from conftest import all_characters, caterpillar, complement, random_tree


class TestFitch:
    def test_constant_character(self, quartet):
        assert fitch_score(quartet, (0, 0, 0, 0)) == 0

    def test_split_compatible(self, quartet):
        # frozen from brute force over the 4 internal assignments
        assert fitch_score(quartet, (0, 0, 1, 1)) == 1
        assert brute_force_score(quartet, (0, 0, 1, 1)) == 1

    def test_split_incompatible(self, quartet):
        assert fitch_score(quartet, (0, 1, 0, 1)) == 2
        assert brute_force_score(quartet, (0, 1, 0, 1)) == 2

    def test_two_leaf(self, two_leaf):
        assert fitch_score(two_leaf, (0, 1)) == 1
        assert fitch_score(two_leaf, (0, 0)) == 0

    def test_length_mismatch(self, quartet):
        with pytest.raises(ValueError, match="4 leaves"):
            fitch_score(quartet, (0, 1))

    def test_polytomy_star(self):
        # (0,0,1,1) on the 4-star needs two flips no matter the center state;
        # a plain intersect-else-union fold would undercount this as one
        star = parse_newick("(1,2,3,4);")
        assert fitch_score(star, (0, 0, 1, 1)) == 2
        assert brute_force_score(star, (0, 0, 1, 1)) == 2

    def test_polytomy_full_sweep(self):
        tree = parse_newick("(1,2,(3,4,5));")
        for ch in all_characters(5):
            assert fitch_score(tree, ch) == brute_force_score(tree, ch)

    def test_matches_brute_force_on_quartets(self):
        for tree in enumerate_topologies(4):
            for ch in all_characters(4):
                assert fitch_score(tree, ch) == brute_force_score(tree, ch)

    @given(st.integers(0, 31))
    def test_caterpillar_matches_brute_force(self, bits):
        tree = caterpillar(5)
        ch = tuple((bits >> i) & 1 for i in range(5))
        assert fitch_score(tree, ch) == brute_force_score(tree, ch)


class TestBruteForce:
    def test_two_leaf_flip(self, two_leaf):
        assert brute_force_score(two_leaf, (0, 1)) == 1
        assert brute_force_score(two_leaf, (0, 0)) == 0


class TestScoreProperties:
    @given(st.integers(3, 6), st.integers(0, 104), st.data())
    @settings(max_examples=80, deadline=None)
    def test_bounds_and_symmetry(self, n, index, data):
        from parsiml import topology_count
        tree = list(enumerate_topologies(n))[index % topology_count(n)]
        ch = tuple(data.draw(st.lists(st.integers(0, 1), min_size=n,
                                      max_size=n)))
        score = fitch_score(tree, ch)
        assert 0 <= score <= min(ch.count(0), ch.count(1))
        assert (score == 0) == is_constant(ch)
        assert score == fitch_score(tree, complement(ch))


class TestMatrixScoreOracle:
    """The bitmask core against per-pattern brute force."""

    @staticmethod
    def brute_total(tree, data):
        return sum(mult * brute_force_score(tree, ch)
                   for ch, mult in data.patterns)

    @pytest.mark.parametrize("n,k,seed", [(4, 9, 0), (5, 12, 1), (6, 16, 2),
                                          (7, 6, 3)])
    def test_every_topology(self, n, k, seed):
        data = random_instance(n, k, seed)
        for tree in enumerate_topologies(n):
            assert parsimony_score(tree, data) == self.brute_total(tree, data)

    @pytest.mark.parametrize("text", ["(1,2,3,4,5);", "(1,2,(3,4,5));"])
    def test_polytomies(self, text):
        tree = parse_newick(text)
        data = DataMatrix(5, tuple((ch, 1 + i % 3) for i, ch in
                                   enumerate(sorted(all_characters(5)))))
        assert parsimony_score(tree, data) == self.brute_total(tree, data)

    def test_counts_near_float_limit(self):
        base = random_instance(6, 10, 4)
        padded = pad_with_count(base, 2 ** 53 - base.k).padded
        heavy = DataMatrix(6, tuple((ch, 2 ** 52 + 2 * i + 1) for i, (ch, _)
                                    in enumerate(base.patterns)))
        for tree in list(enumerate_topologies(6))[::7]:
            assert parsimony_score(tree, padded) == \
                self.brute_total(tree, base)
            assert parsimony_score(tree, heavy) == \
                self.brute_total(tree, heavy)


def grown_trees(n):
    """Every edge list the grower hands its bound on the way to n leaves."""
    seen = []
    for _ in enumerate_topologies(n, prune=lambda edges: seen.append(edges)):
        pass
    return seen


def kind_matrix(n, kind, seed):
    """A 12-column random matrix, the same patterns at multiplicities
    2^52 + odd (every bit slice in use), an all-constant matrix, or a
    tie-rich one: every leaf's singleton split, which costs one flip on any
    tree, and one cherry, which costs one flip on the (2n-7)!! trees
    holding it and two elsewhere."""
    if kind == "random":
        return random_instance(n, 12, seed)
    if kind == "heavy":
        return DataMatrix(n, tuple(
            (ch, 2 ** 52 + 2 * i + 1)
            for i, (ch, _) in enumerate(random_instance(n, 12, seed)
                                        .patterns)))
    if kind == "constant":
        return DataMatrix.from_columns(n, [(0,) * n] * (seed + 1)
                                       + [(1,) * n] * 2)
    singletons = [tuple(int(v == leaf) for v in range(n)) for leaf in range(n)]
    cherry = tuple(int(v in (seed, seed + 1)) for v in range(n))
    return DataMatrix.from_columns(n, singletons + [cherry] * 3)


def rooted_edges(plan):
    """A plan as its (parent, child, edge slot) triples, after checking
    that it lists every child before its parent."""
    placed = set()
    triples = set()
    for v, children in plan:
        for c, e in children:
            assert c in placed
            triples.add((v, c, e))
        placed.add(v)
    return triples


class TestInsertionCost:
    """A child's score as its parent's plus the weight of the new leaf's
    mask on the subdivided edge, against a full Fitch pass over the child,
    and a plan derived from the parent's against a fresh one."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kind", ["random", "heavy", "constant"])
    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_parent_plus_cost_is_child_score(self, n, kind, seed):
        data = kind_matrix(n, kind, seed)
        masks = _PatternMasks(n, data.patterns)
        parents = {}
        priced = children = 0
        for edges in grown_trees(n):
            m = (len(edges) + 3) // 2
            fresh = _edge_plan(edges)
            score = masks.score(fresh)
            plan = fresh
            if m > 3:
                # the tail (u,w),(w,v),(w,m) names the subdivided edge (u,v)
                (u, w), (_, v), _ = edges[-3:]
                parent, parent_plan, costs = parents[m - 1]
                assert parent + costs[u, v] == score
                plan = _graft(parent_plan, (u, v), w, m)
                assert rooted_edges(plan) == rooted_edges(fresh)
                assert plan[-1] == fresh[-1]  # still hanging from leaf 1
                children += 1
            if m < n:
                flips = masks.insertion_masks(plan, m + 1)
                assert flips == masks.insertion_masks(fresh, m + 1)
                assert set(flips) == set(edges)
                costs = {e: masks.weight(mask) for e, mask in flips.items()}
                parents[m] = score, plan, costs
                priced += len(costs)
            else:
                assert score == parsimony_score(Tree(n, edges), data)
        assert children == priced  # every edge of every partial tree


class TestInsertionMasks:
    """Each edge's mask from the one pass, against grafting the new leaf on
    that edge and rescoring every pattern with an independent Fitch pass."""

    @pytest.mark.parametrize("kind", ["random", "heavy", "constant", "ties"])
    @pytest.mark.parametrize("n", range(4, 10))
    def test_mask_is_where_grafting_adds_a_flip(self, n, kind):
        data = kind_matrix(n + 1, kind, n % 3)
        chars = [ch for ch, _ in data.patterns]
        # a binary tree on leaves 1..n, its internal ids moved past leaf n+1
        tree = random_tree(n, n)
        tree = Tree(n, [tuple(v + (v > n) for v in e) for e in tree.edges])
        before = pattern_scores(tree, [ch[:n] for ch in chars])
        # parsimony_score of the tree on the first n leaves; the truncated
        # patterns may merge past the 2^53 multiplicity limit
        score = sum(s * mult for s, (_, mult) in zip(before, data.patterns))
        masks = _PatternMasks(n + 1, data.patterns)
        plan = _edge_plan(tree.edges)
        flips = masks.insertion_masks(plan, n + 1)
        assert set(flips) == set(tree.edges)
        for edge, mask in flips.items():
            grafted = Tree(n + 1, [e for _, kids in
                                   _graft(plan, edge, 2 * n + 1, n + 1)
                                   for _, e in kids])
            after = pattern_scores(grafted, chars)
            assert [a - b for a, b in zip(after, before)] == \
                [mask >> j & 1 for j in range(len(chars))]
            assert masks.weight(mask) == \
                parsimony_score(grafted, data) - score


class TestPatternScores:
    """Every pattern's flip count from one pass, against brute force."""

    @pytest.mark.parametrize("tree", [random_tree(n, 10 + n)
                                      for n in range(4, 9)]
                             + [parse_newick("(1,2,(3,4,5));"),
                                parse_newick("(1,2,3,4,5);"),
                                parse_newick("(1,2);")],
                             ids=lambda tree: canonical_newick(tree))
    def test_matches_brute_force(self, tree):
        chars = list(all_characters(tree.n))
        assert pattern_scores(tree, chars) == \
            [brute_force_score(tree, ch) for ch in chars]

    def test_large_counts(self):
        # flip counts up to 16 need several bit-sliced counters
        tree = caterpillar(32)
        chars = [ch for ch, _ in random_instance(32, 64, 5).patterns]
        chars += [tuple(i % 2 for i in range(32)), (0,) * 32, (1,) * 32]
        scores = pattern_scores(tree, chars)
        assert scores == [fitch_score(tree, ch) for ch in chars]
        assert max(scores) == 16

    def test_edge_cases(self, quartet):
        assert pattern_scores(quartet, []) == []
        with pytest.raises(ValueError, match="3 states"):
            pattern_scores(quartet, [(0, 1, 1)])


class TestEveryAnchor:
    """The majority rule hung from every vertex, leaves included: a leaf
    root's own state is one more set, and its plan scores as any other."""

    @staticmethod
    def assert_every_anchor(tree):
        chars = list(all_characters(tree.n))
        masks = _PatternMasks(tree.n, [(ch, 1) for ch in chars])
        expected = [brute_force_score(tree, ch) for ch in chars]
        for anchor in sorted(tree.vertices):
            misses = masks.misses(tree.rooted_plan(anchor))
            assert [sum(m >> j & 1 for m in misses)
                    for j in range(len(chars))] == expected, anchor

    @pytest.mark.parametrize("n", range(2, 7))
    def test_every_binary_topology(self, n):
        trees = (enumerate_topologies(n) if n > 2
                 else [parse_newick("(1,2);")])
        for tree in trees:
            self.assert_every_anchor(tree)

    @pytest.mark.parametrize("text", ["(1,2,(3,4,5));", "(1,(2,3,4,5),6,7);",
                                      "(1,2,3,4,5);", "((1,2,3),(4,5,6));"])
    def test_polytomies(self, text):
        self.assert_every_anchor(parse_newick(text))


class TestMatrixScore:
    def test_weighted_sum(self, quartet, quartet_matrix):
        assert parsimony_score(quartet, quartet_matrix) == 3

    def test_multiplicities_weigh_in(self, quartet):
        m = DataMatrix.from_columns(4, [(0, 1, 0, 1)] * 5)
        assert parsimony_score(quartet, m) == 10

    def test_constant_matrix_scores_zero(self, quartet):
        m = DataMatrix.from_columns(4, [(0, 0, 0, 0), (1, 1, 1, 1)])
        assert parsimony_score(quartet, m) == 0

    def test_padding_leaves_score_unchanged(self, quartet, quartet_matrix):
        padded = pad_constant_sites(quartet_matrix, 0.5)
        assert parsimony_score(quartet, padded.padded) == \
            parsimony_score(quartet, quartet_matrix) == 3

    def test_compression_invariance(self, quartet):
        columns = [(0, 0, 1, 1)] * 3 + [(0, 1, 0, 1)] * 2 + [(1, 0, 0, 1)]
        compressed = DataMatrix.from_columns(4, columns)
        by_hand = sum(fitch_score(quartet, ch) for ch in columns)
        assert parsimony_score(quartet, compressed) == by_hand

    def test_dimension_mismatch(self, quartet):
        with pytest.raises(ValueError):
            parsimony_score(quartet, DataMatrix.from_columns(5, [(0, 1, 0, 1, 0)]))


class TestSearch:
    def test_tie_between_compatible_splits(self, quartet_matrix):
        score, optima = mp_search(quartet_matrix)
        assert score == 3
        assert [canonical_newick(t) for t in optima] == \
            ["(1,(2,4),3);", "(1,2,(3,4));"]

    def test_unique_optimum(self):
        m = DataMatrix.from_columns(4, [(0, 0, 1, 1)])
        score, optima = mp_search(m)
        assert score == 1
        assert [canonical_newick(t) for t in optima] == ["(1,2,(3,4));"]

    def test_all_constant_ties_everything(self):
        m = DataMatrix.from_columns(4, [(1, 1, 1, 1)] * 2)
        score, optima = mp_search(m)
        assert score == 0
        assert len(optima) == 3

    @staticmethod
    def exhaustive(data):
        """The least score over every topology and every tree attaining it,
        in the order ``mp_search`` returns them."""
        topologies = list(enumerate_topologies(data.n))
        scores = [parsimony_score(t, data) for t in topologies]
        best = min(scores)
        return best, sorted((t for t, s in zip(topologies, scores)
                             if s == best), key=canonical_newick)

    @pytest.mark.parametrize("n,k,seed", [
        (4, 3, 0), (5, 6, 1), (6, 10, 2), (7, 12, 3),
        (8, 8, 3), (8, 24, 3), (8, 64, 3)]
        + [pytest.param(n, kind, seed, id=f"{n}-{kind}-{seed}")
           for n, kind, seed in [(6, "heavy", 0), (8, "heavy", 2),
                                 (5, "constant", 0), (8, "constant", 1),
                                 (6, "ties", 0), (8, "ties", 2)]])
    def test_matches_exhaustive_minimum(self, n, k, seed):
        data = (random_instance(n, k, seed) if isinstance(k, int)
                else kind_matrix(n, k, seed))
        # Tree equality is edge equality: same edges and internal ids
        assert mp_search(data) == self.exhaustive(data)

    @given(st.integers(3, 7), st.data())
    @settings(max_examples=40, deadline=None)
    def test_property_matches_exhaustive(self, n, source):
        columns = source.draw(st.lists(
            st.tuples(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                      st.integers(1, 3)), min_size=1, max_size=6))
        data = DataMatrix.from_columns(
            n, [tuple(ch) for ch, mult in columns for _ in range(mult)])
        assert mp_search(data) == self.exhaustive(data)

    @staticmethod
    def spied_search(monkeypatch, data):
        """Run ``mp_search`` counting its ``_postorder`` plans and insertion
        passes, the complete trees its bound sees, the trees it cuts before
        the first complete one, the partial trees no worse than the best
        complete tree yielded so far (scored independently), and the trees
        the look-ahead cuts on popcounts alone or only once weighed."""
        n = data.n
        masks = _PatternMasks(n, data.patterns)
        seen = {"plans": 0, "passes": 0, "complete": 0, "eligible": 0,
                "early_cuts": 0, "popcount_cuts": 0, "weighted_cuts": 0}
        yielded = [None]
        calls = []  # "pass" and "weight", in the order the search makes them
        postorder, grower = parsimony._postorder, parsimony.enumerate_topologies
        insertion_masks = _PatternMasks.insertion_masks
        weight = _PatternMasks.weight

        def count_plans(edges, anchor):
            seen["plans"] += 1
            return postorder(edges, anchor)

        def count_passes(self, plan, leaf):
            seen["passes"] += 1
            calls.append("pass")
            return insertion_masks(self, plan, leaf)

        def count_weights(self, mask):
            calls.append("weight")
            return weight(self, mask)

        def count_trees(n, cap, prune):
            def spy(edges):
                start = len(calls)
                cut = prune(edges)
                mine = calls[start:]
                if cut and "pass" in mine:  # cut by the look-ahead
                    last = len(mine) - mine[::-1].index("pass")
                    seen["weighted_cuts" if "weight" in mine[last:]
                         else "popcount_cuts"] += 1
                score = masks.score(_postorder(edges, 1))
                if len(edges) == 2 * n - 3:
                    seen["complete"] += 1
                    if not cut and (yielded[0] is None or score < yielded[0]):
                        yielded[0] = score
                elif yielded[0] is None or score <= yielded[0]:
                    seen["eligible"] += 1
                if cut and not seen["complete"]:
                    seen["early_cuts"] += 1
                return cut
            return grower(n, cap, prune=spy)

        monkeypatch.setattr(parsimony, "_postorder", count_plans)
        monkeypatch.setattr(_PatternMasks, "insertion_masks", count_passes)
        monkeypatch.setattr(_PatternMasks, "weight", count_weights)
        monkeypatch.setattr(parsimony, "enumerate_topologies", count_trees)
        result = mp_search(data)
        monkeypatch.undo()
        return result, seen

    def test_plans_only_kept_partial_trees(self, monkeypatch):
        # one plan per search, for the 3-leaf star; every other plan is
        # derived from its parent's. One insertion pass per greedy leaf, and
        # one per partial tree the score bound keeps: such a tree is no
        # worse than the incumbent, which is never worse than the best
        # complete tree yielded so far. The pass counts, greedy's 5 among
        # them, are pinned: a search that cuts the same trees makes them
        for k, passes in ((8, 136), (24, 744), (64, 1074)):
            data = random_instance(8, k, 3)
            expected = mp_search(data)
            result, seen = self.spied_search(monkeypatch, data)
            assert result == expected
            assert seen["plans"] == 1
            assert seen["passes"] == passes
            assert seen["passes"] <= seen["eligible"] + (8 - 3)

    def test_look_ahead_weighs_only_past_the_popcount_cut(self, monkeypatch):
        # multiplicities of 2^52 + odd make the popcount a loose bound: the
        # look-ahead cuts on it alone only where the weights' high parts
        # tie, and otherwise cuts once the masks are weighed
        data = kind_matrix(8, "heavy", 2)
        result, seen = self.spied_search(monkeypatch, data)
        assert result == self.exhaustive(data)
        assert seen["popcount_cuts"] > 0
        assert seen["weighted_cuts"] > 0

    def test_bound_cuts_most_complete_trees(self, monkeypatch):
        # the greedy incumbent and the one-leaf look-ahead cut early: at
        # k = 64 a bound without them scores all 10,395 complete trees, and
        # with no incumbent nothing is cut before the first complete tree
        data = random_instance(8, 64, 3)
        _, seen = self.spied_search(monkeypatch, data)
        assert seen["complete"] < 1000
        assert seen["early_cuts"] > 0

    @pytest.mark.parametrize("n,message", [
        (2, "topology enumeration needs n >= 3"),
        (9, "n=9 exceeds the enumeration cap (8); pass a larger cap "
            "explicitly to proceed")], ids=["n=2", "n=9"])
    def test_refusals_come_before_any_insertion_pass(self, monkeypatch, n,
                                                      message):
        passes = []
        monkeypatch.setattr(_PatternMasks, "insertion_masks",
                            lambda *args: passes.append(args))
        data = DataMatrix.from_columns(n, [tuple(v % 2 for v in range(n))])
        with pytest.raises(ValueError) as refused:
            mp_search(data)
        assert str(refused.value) == message
        assert passes == []

    def test_cap_respected(self):
        m = DataMatrix.from_columns(9, [tuple([0, 1] * 4 + [0])])
        from parsiml import TopologyCapError
        with pytest.raises(TopologyCapError):
            mp_search(m)
