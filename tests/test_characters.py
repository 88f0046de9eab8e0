import dataclasses
import math
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parsiml import (DataMatrix, EdgeProbs, MatrixFormatError,
                     PaddedInstance, PaddingCapError, brute_force_score,
                     char_likelihood_exhaustive, char_likelihood_pruning,
                     fitch_score, is_constant, pad_constant_sites,
                     pad_with_count, parse_matrix, parse_newick,
                     pattern_likelihoods, random_instance, write_matrix)
from parsiml.characters import PAD_LIMIT
from parsiml.parsimony import pattern_scores

from conftest import complement, pattern_log_likelihoods

characters = st.integers(1, 8).flatmap(
    lambda n: st.lists(st.integers(0, 1), min_size=n, max_size=n).map(tuple))


def _least_root(size: int, eps: float) -> int:
    """Least N with N^p >= size^q for eps = p/q, by integer bisection."""
    ratio = Fraction(repr(eps))
    p, target = ratio.numerator, size ** ratio.denominator
    lo, hi = 1, 2
    while hi ** p < target:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** p >= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


class TestCharacterOps:
    def test_constant(self):
        assert is_constant((0, 0, 0, 0))
        assert is_constant((1, 1))
        assert not is_constant((0, 0, 1, 1))

    def test_complement(self):
        assert complement((0, 0, 1, 1)) == (1, 1, 0, 0)

    @given(characters)
    def test_complement_is_involution(self, ch):
        assert complement(complement(ch)) == ch

    @given(characters)
    def test_complement_flips_constancy_class(self, ch):
        assert is_constant(ch) == is_constant(complement(ch))


class TestDataMatrix:
    def test_compression_merges_duplicates(self):
        m = DataMatrix.from_columns(4, [(0, 0, 1, 1), (0, 0, 1, 1)])
        assert m.k == 2
        assert m.patterns == (((0, 0, 1, 1), 2),)

    def test_k_counts_multiplicities(self, quartet_matrix):
        assert quartet_matrix.k == 2
        assert len(quartet_matrix.patterns) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="k >= 1"):
            DataMatrix(4, ())

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            DataMatrix.from_columns(4, [(0, 1)])

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            DataMatrix.from_columns(2, [(0, 2)])

    @pytest.mark.parametrize("n,patterns,message", [
        (0, (((), 1),), "leaf count must be positive"),
        (2, (((0, 1), 0),), r"multiplicity 0 < 1 for pattern \(0, 1\)"),
        (4, (((0, 0, 1, 1), 1.5), ((0, 1, 0, 1), 2)),
         r"multiplicity 1.5 is not a whole number for pattern \(0, 0, 1, 1\)"),
        (2, (((1, 0), 1), ((0, 1), 1)), "patterns must be sorted and distinct"),
        (2, (((0, 1), 2 ** 53 + 1),),
         r"multiplicity 9007199254740993 is past 2\^53"),
    ], ids=["no-leaf", "zero-multiplicity", "fractional-multiplicity",
            "unsorted", "multiplicity-past-float-limit"])
    def test_refused(self, n, patterns, message):
        with pytest.raises(ValueError, match=message):
            DataMatrix(n, patterns)

    def test_multiplicity_at_float_limit_accepted(self):
        # 2^53 is the last count a float weight holds apart from its neighbours
        m = DataMatrix(2, (((0, 1), 2 ** 53),))
        assert m.k == 2 ** 53

    def test_expanded_columns_preserve_k(self):
        m = DataMatrix.from_columns(3, [(0, 0, 1)] * 5 + [(1, 0, 1)])
        assert len(list(m.expanded_columns())) == m.k == 6


_QUARTET = parse_newick("((1,2),(3,4));")
_PROBS = EdgeProbs.uniform(_QUARTET, 0.1)
# every entry point that scores a character on a tree, on one character
_SCORERS = {
    "pattern_likelihoods": lambda ch: pattern_likelihoods(_QUARTET, _PROBS, [ch]),
    "pattern_log_likelihoods":
        lambda ch: pattern_log_likelihoods(_QUARTET, _PROBS, [ch]),
    "char_likelihood_pruning":
        lambda ch: char_likelihood_pruning(_QUARTET, _PROBS, ch),
    "char_likelihood_exhaustive":
        lambda ch: char_likelihood_exhaustive(_QUARTET, _PROBS, ch),
    "pattern_scores": lambda ch: pattern_scores(_QUARTET, [ch]),
    "fitch_score": lambda ch: fitch_score(_QUARTET, ch),
    "brute_force_score": lambda ch: brute_force_score(_QUARTET, ch),
}


class TestScoredCharacterCheck:
    @pytest.mark.parametrize("ch", [(0, 1, 0, 1, 1, 1), (0, 1, 0), (0, 2, 0, 1)],
                             ids=["too-long", "too-short", "non-binary"])
    @pytest.mark.parametrize("scorer", sorted(_SCORERS))
    def test_refused(self, scorer, ch):
        # the message is the shared check's: no entry point reads past the
        # leaves or scores a state outside {0,1}
        with pytest.raises(ValueError, match="states for 4 leaves|non-binary"):
            _SCORERS[scorer](ch)


class TestPadding:
    @pytest.mark.parametrize("n,k,eps,size,pad,k_padded", [
        (4, 2, 0.5, 8, 64, 66),
        (4, 2, 1.0, 8, 8, 10),
        (10, 30, 0.25, 30, 810000, 810030),
    ])
    def test_arithmetic(self, n, k, eps, size, pad, k_padded):
        cols = [tuple((i + j) % 2 for i in range(n)) for j in range(k)]
        base = DataMatrix.from_columns(n, cols)
        padded = pad_constant_sites(base, eps)
        assert padded.size == size
        assert padded.pad_count == pad
        assert padded.padded.k == k_padded

    def test_zero_block_present(self, quartet_matrix):
        padded = pad_constant_sites(quartet_matrix, 0.5)
        assert dict(padded.padded.patterns)[(0, 0, 0, 0)] == 64

    def test_merges_existing_zero_pattern(self):
        base = DataMatrix.from_columns(4, [(0, 0, 0, 0), (0, 1, 0, 1)])
        padded = pad_constant_sites(base, 1.0)
        assert dict(padded.padded.patterns)[(0, 0, 0, 0)] == 1 + 8
        assert padded.padded.k == base.k + 8

    def test_cap_refusal_reports_size(self, quartet_matrix):
        # M = 8, epsilon = 7/125: N_c = ceil(2^(375/7)) ~ 2^53.57, formed
        # exactly, then refused since k + N_c > 2^53
        with pytest.raises(PaddingCapError) as err:
            pad_constant_sites(quartet_matrix, 0.056)
        expected = _least_root(8, 0.056)
        assert expected > 2 ** 53
        assert err.value.pad_count == expected
        assert str(expected) in str(err.value)
        # far past the limit the float estimate is refused as it stands
        with pytest.raises(PaddingCapError) as err:
            pad_constant_sites(quartet_matrix, 0.05)
        assert err.value.pad_count == 2.0 ** 60

    def test_pad_count_is_exact(self):
        # every M in 2..300 (one leaf, k = M) against the integer oracle;
        # refused exactly where k + N_c passes 2^53
        grid = [0.1, 0.12, 0.15] + [j / 20 for j in range(4, 21)]
        for size in range(2, 301):
            base = DataMatrix(1, (((0,), 1), ((1,), size - 1)))
            for eps in grid:
                expected = _least_root(size, eps)
                if size + expected > PAD_LIMIT:
                    with pytest.raises(PaddingCapError):
                        pad_constant_sites(base, eps)
                else:
                    got = pad_constant_sites(base, eps).pad_count
                    assert got == expected, (size, eps)

    @pytest.mark.parametrize("size,eps,pad", [
        (8, 0.6, 32),
        (64, 0.15, 2 ** 40),
        (42, 0.12, 33657156332705),
        # ceil(M ** (1/eps)) is one below the least exact N here
        (224, 0.18, 11400750335695),
        (2066, 0.28, 691434639115),
    ])
    def test_pinned_pad_counts(self, size, eps, pad):
        base = DataMatrix(1, (((0,), 1), ((1,), size - 1)))
        assert pad_constant_sites(base, eps).pad_count == pad

    def test_inexact_epsilon_keeps_float_estimate(self):
        # 1/3 reads as p/q with p ~ 10^16: no exact powers, answer at once
        base = DataMatrix(1, (((0,), 1), ((1,), 39)))
        started = time.monotonic()
        padded = pad_constant_sites(base, 1 / 3)
        assert time.monotonic() - started < 1.0
        assert padded.pad_count == math.ceil(40 ** (1 / (1 / 3)))

    def test_explicit_count_limit(self, quartet_matrix):
        padded = pad_with_count(quartet_matrix, PAD_LIMIT - quartet_matrix.k)
        assert padded.padded.k == 2 ** 53
        with pytest.raises(PaddingCapError) as err:
            pad_with_count(quartet_matrix, PAD_LIMIT - quartet_matrix.k + 1)
        assert err.value.pad_count == 2 ** 53 - 1

    def test_epsilon_domain(self, quartet_matrix):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                pad_constant_sites(quartet_matrix, bad)

    def test_padded_instance_is_its_base_epsilon_and_count(self,
                                                           quartet_matrix):
        zero = (0, 0, 0, 0)
        padded = PaddedInstance(quartet_matrix, 0.5, 64)
        assert [f.name for f in dataclasses.fields(padded)] == [
            "base", "epsilon", "pad_count"]
        assert padded.padded == DataMatrix.from_columns(
            4, [*quartet_matrix.expanded_columns(), *[zero] * 64])
        assert padded.size == max(2 * quartet_matrix.n, quartet_matrix.k)
        assert padded == pad_constant_sites(quartet_matrix, 0.5)
        # the limit binds an instance built directly, not only the pad paths
        with pytest.raises(PaddingCapError) as err:
            PaddedInstance(quartet_matrix, None, 2 ** 53)
        assert err.value.pad_count == 2 ** 53

    def test_explicit_count_must_be_positive(self, quartet_matrix):
        with pytest.raises(ValueError, match="pad_count must be >= 1"):
            pad_with_count(quartet_matrix, 0)

    @pytest.mark.parametrize("count,error,message", [
        (2.9, ValueError, "pad_count must be a whole number, got 2.9"),
        (math.nan, ValueError, "pad_count must be >= 1"),
        (math.inf, PaddingCapError, "past 2\\^53"),
    ], ids=["fraction", "nan", "inf"])
    def test_explicit_count_must_be_whole(self, quartet_matrix, count, error,
                                          message):
        # refused rather than truncated, so the pad is the one asked for
        with pytest.raises(error, match=message):
            pad_with_count(quartet_matrix, count)
        # a whole float is the same count, stored as an int
        assert type(pad_with_count(quartet_matrix, 3.0).pad_count) is int

    def test_explicit_count(self, quartet_matrix):
        padded = pad_with_count(quartet_matrix, 100)
        assert padded.pad_count == 100
        assert padded.epsilon is None
        assert padded.padded.k == 102

    @given(st.integers(3, 6), st.integers(1, 10),
           st.floats(0.2, 1.0, allow_nan=False))
    @settings(max_examples=40)
    def test_pad_count_at_least_size(self, n, k, eps):
        base = random_instance(n, k, seed=0)
        try:
            padded = pad_constant_sites(base, eps)
        except PaddingCapError:
            return
        assert padded.pad_count >= padded.size
        assert padded.size == max(2 * n, k)


class TestMatrixIO:
    def test_quartet_file(self):
        text = "4 2\n1 00\n2 01\n3 10\n4 11\n"
        m = parse_matrix(text)
        assert m.k == 2
        assert m.patterns == (((0, 0, 1, 1), 1), ((0, 1, 0, 1), 1))

    def test_duplicate_columns_compress(self):
        m = parse_matrix("4 2\n1 00\n2 00\n3 11\n4 11\n")
        assert m.patterns == (((0, 0, 1, 1), 2),)
        assert m.k == 2

    def test_comments_and_spaced_bits(self):
        text = "# generated\n4 2   # header\n1 0 0\n2 0 1\n3 1 0\n4 1 1\n"
        assert parse_matrix(text).k == 2

    def test_round_trip_expanded(self, quartet_matrix):
        assert parse_matrix(write_matrix(quartet_matrix)) == quartet_matrix

    def test_round_trip_compressed(self):
        m = DataMatrix.from_columns(3, [(0, 0, 1)] * 4 + [(1, 1, 1), (0, 1, 0)])
        text = write_matrix(m, compressed=True)
        assert "counts" in text
        assert parse_matrix(text) == m

    def test_empty_matrix_rejected(self):
        with pytest.raises(MatrixFormatError, match="k >= 1 required"):
            parse_matrix("4 0\n1 \n2 \n3 \n4 \n")

    def test_ragged_row(self):
        with pytest.raises(MatrixFormatError, match="line 3.*expected 2"):
            parse_matrix("4 2\n1 00\n2 011\n3 10\n4 11\n")

    def test_non_binary_symbol(self):
        with pytest.raises(MatrixFormatError, match="line 2.*0/1"):
            parse_matrix("4 2\n1 0x\n2 01\n3 10\n4 11\n")

    def test_duplicate_leaf_id(self):
        with pytest.raises(MatrixFormatError, match="line 3: duplicate leaf id 1"):
            parse_matrix("4 2\n1 00\n1 01\n3 10\n4 11\n")

    def test_leaf_id_out_of_range(self):
        with pytest.raises(MatrixFormatError, match="out of range"):
            parse_matrix("4 2\n1 00\n2 01\n3 10\n9 11\n")

    def test_missing_header(self):
        with pytest.raises(MatrixFormatError, match="header"):
            parse_matrix("")

    def test_counts_merge_repeated_columns(self):
        m = parse_matrix("4 5\ncounts 2 3\n1 00\n2 00\n3 11\n4 11\n")
        assert m.patterns == (((0, 0, 1, 1), 5),)

    def test_large_counts_do_not_expand(self):
        # a compressed file must cost O(distinct patterns) to read, not O(k)
        text = "4 1000000\ncounts 1000000\n1 0\n2 0\n3 1\n4 1\n"
        tracemalloc.start()
        try:
            m = parse_matrix(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert m.patterns == (((0, 0, 1, 1), 1000000),)
        assert peak < 1_000_000

    @pytest.mark.parametrize("text,message,line", [
        ("1 2 3\n", "expected header 'n k'", 1),
        ("a b\n", "expected integer header", 1),
        ("0 3\n", "leaf count 0 must be positive", 1),
        ("2 2\ncounts 1 x\n1 00\n2 01\n", "counts line must hold integers", 2),
        ("2 2\ncounts 0 2\n1 00\n2 01\n", "counts must be positive integers",
         2),
        ("3 2\n1 00\n2 01\n", "expected 3 leaf rows, found 2", 3),
        ("2 2\nx 01\n2 10\n", "expected a leaf id", 2),
    ], ids=["three-field-header", "non-integer-header", "no-leaf",
            "non-integer-count", "zero-count", "missing-row", "non-integer-id"])
    def test_refusal_names_its_line(self, text, message, line):
        with pytest.raises(MatrixFormatError, match=message) as err:
            parse_matrix(text)
        assert err.value.line == line

    def test_counts_must_match_k(self):
        with pytest.raises(MatrixFormatError, match="counts sum to 3"):
            parse_matrix("4 2\ncounts 1 2\n1 00\n2 01\n3 10\n4 11\n")


class TestRandomInstance:
    def test_deterministic(self):
        assert random_instance(5, 40, seed=11) == random_instance(5, 40, seed=11)

    def test_seeds_differ(self):
        assert random_instance(5, 40, seed=1) != random_instance(5, 40, seed=2)

    def test_constant_fraction_near_expectation(self):
        # 2 of the 32 equiprobable 5-leaf characters are constant
        m = random_instance(5, 1000, seed=3)
        constant = sum(mult for ch, mult in m.patterns if is_constant(ch))
        assert abs(constant / 1000 - 2 / 32) <= 0.03

    def test_too_few_leaves_rejected(self):
        with pytest.raises(ValueError, match="random instances need n >= 3"):
            random_instance(2, 3, seed=0)

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError, match="k >= 1"):
            random_instance(5, 0, seed=0)
