"""Binary character data: pattern-compressed matrices and constant-site padding.

A character assigns a state in {0,1} to each leaf; a data matrix stores the
distinct site patterns together with their whole-number multiplicities, so k
identical columns cost one pattern. Padding appends N_c all-zero columns, N_c
a power of the instance size: the transformation that couples the flip-count
score to the optimal log-likelihood. A padded instance is stored as its base,
epsilon and N_c alone. One rule, :func:`_check_epsilon`, holds epsilon in
(0, 1] for padding and verifiers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

Character = tuple[int, ...]

# Largest k + N_c or multiplicity: past 2^53, neighbouring counts round alike.
PAD_LIMIT = 2 ** 53


class MatrixFormatError(ValueError):
    """Bad matrix text. ``line`` is the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class PaddingCapError(ValueError):
    """k + N_c past :data:`PAD_LIMIT`. Carries N_c (a float if far past)."""

    def __init__(self, message: str, pad_count: int | float):
        super().__init__(message)
        self.pad_count = pad_count


def is_constant(ch: Character) -> bool:
    """True when every leaf gets the same state."""
    first = ch[0]
    return all(s == first for s in ch)


def _check_character(ch, n: int) -> Character:
    """The one character check: n states, each 0 or 1, as a tuple of ints."""
    ch = tuple(map(int, ch))
    if len(ch) != n:
        raise ValueError(f"character has {len(ch)} states for {n} leaves")
    if not {0, 1}.issuperset(ch):
        raise ValueError(f"non-binary state in character {ch}")
    return ch


def _check_epsilon(epsilon):
    """The one epsilon rule: a value in (0, 1]; NaN fails the comparison."""
    if not 0 < epsilon <= 1:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    return epsilon


@dataclass(frozen=True)
class DataMatrix:
    """Compressed site patterns over n leaves.

    ``patterns`` holds (character, multiplicity) pairs, pairwise distinct and
    sorted by character, so equal matrices compare equal and every traversal
    is deterministic. ``k`` is the total column count including repeats.
    """

    n: int
    patterns: tuple[tuple[Character, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("leaf count must be positive")
        if not self.patterns:
            raise ValueError("k >= 1 required: a matrix needs at least one character")
        prev = None
        for ch, mult in self.patterns:
            _check_character(ch, self.n)
            if mult < 1:
                raise ValueError(f"multiplicity {mult} < 1 for pattern {ch}")
            if mult % 1:
                raise ValueError(
                    f"multiplicity {mult} is not a whole number for pattern {ch}")
            if mult > PAD_LIMIT:
                raise ValueError(f"multiplicity {mult} is past 2^53, the "
                                 f"float-exact limit, for pattern {ch}")
            if prev is not None and ch <= prev:
                raise ValueError("patterns must be sorted and distinct")
            prev = ch

    @property
    def k(self) -> int:
        return sum(mult for _, mult in self.patterns)

    @classmethod
    def from_columns(cls, n: int, columns) -> "DataMatrix":
        """Build from raw columns, merging duplicates into multiplicities."""
        counts: dict[Character, int] = {}
        for col in columns:
            ch = _check_character(col, n)
            counts[ch] = counts.get(ch, 0) + 1
        return cls(n, tuple(sorted(counts.items())))

    def expanded_columns(self):
        """Yield every column with repeats, in pattern order."""
        for ch, mult in self.patterns:
            for _ in range(mult):
                yield ch


@dataclass(frozen=True)
class PaddedInstance:
    """A base matrix X with N_c = ``pad_count`` all-zero columns appended.

    It is its base, epsilon (None when N_c was given directly) and N_c; M
    and the padded matrix derive from them, so nothing stored can disagree.
    Refuses k + N_c past :data:`PAD_LIMIT` first (a float N_c as it stands),
    then an N_c that is not a whole number >= 1."""

    base: DataMatrix
    epsilon: float | None
    pad_count: int

    def __post_init__(self):
        if self.base.k + self.pad_count > PAD_LIMIT:
            raise PaddingCapError(
                f"padding needs {self.pad_count} constant sites (M={self.size}, "
                f"epsilon={self.epsilon}): k + N_c is past 2^53, the "
                f"float-exact limit", self.pad_count)
        if not self.pad_count >= 1:
            raise ValueError("pad_count must be >= 1")
        if self.pad_count % 1:
            raise ValueError(
                f"pad_count must be a whole number, got {self.pad_count}")
        object.__setattr__(self, "pad_count", int(self.pad_count))

    @property
    def size(self) -> int:
        return max(2 * self.base.n, self.base.k)

    @cached_property
    def padded(self) -> DataMatrix:
        counts = dict(self.base.patterns)
        zero = (0,) * self.base.n
        counts[zero] = counts.get(zero, 0) + self.pad_count
        return DataMatrix(self.base.n, tuple(sorted(counts.items())))


def pad_constant_sites(base: DataMatrix, epsilon: float) -> PaddedInstance:
    """Append N_c = ceil(M^(1/epsilon)) all-zero columns, M = max(2n, k).

    With epsilon = p/q, its shortest decimal in lowest terms, N_c is the
    least N with N^p >= M^q: exact powers of about 53 p bits correct the
    float estimate when p < 10^4 (at most four decimals). Larger p (1/3 has
    p ~ 10^16) keeps the estimate. Refuses (rather than truncating) when
    k + N_c exceeds :data:`PAD_LIMIT`, since a silently smaller pad would
    change what the verifiers measure.
    """
    epsilon = float(_check_epsilon(epsilon))
    size = max(2 * base.n, base.k)
    log2_count = math.log2(size) / epsilon
    if log2_count > 54:  # refused on the float estimate, before big powers
        count = math.inf if log2_count >= 1024 else 2.0 ** log2_count
        return PaddedInstance(base, epsilon, count)
    count = math.ceil(size ** (1.0 / epsilon))
    p, q = Fraction(repr(epsilon)).as_integer_ratio()
    if p < 10_000:
        target = size ** q
        while count ** p < target:
            count += 1
        while (count - 1) ** p >= target:
            count -= 1
    return PaddedInstance(base, epsilon, count)


def pad_with_count(base: DataMatrix, pad_count: int) -> PaddedInstance:
    """Append an explicit number of all-zero columns.

    Escape hatch for experiments that sweep the pad size directly; ``epsilon``
    is recorded as None since no power law produced the count.
    """
    return PaddedInstance(base, None, pad_count)


def random_instance(n: int, k: int, seed: int) -> DataMatrix:
    """k i.i.d. uniform binary columns on n leaves; fixed seed, fixed matrix."""
    if n < 3:
        raise ValueError("random instances need n >= 3")
    if k < 1:
        raise ValueError("k >= 1 required")
    rng = np.random.default_rng(seed)
    cols = rng.integers(0, 2, size=(k, n))
    return DataMatrix.from_columns(n, (tuple(int(s) for s in col) for col in cols))


def parse_matrix(text: str) -> DataMatrix:
    """Parse matrix text (see :func:`write_matrix` for the grammar).

    Header line "n k"; optional "counts c1 .. cd" line when columns carry
    multiplicities; then one line per leaf, "leaf_id bits", bits written
    contiguously or space-separated. '#' starts a comment anywhere.
    """
    content: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            content.append((lineno, stripped))
    if not content:
        raise MatrixFormatError("empty input: expected a header line 'n k'")

    lineno, header = content[0]
    parts = header.split()
    if len(parts) != 2:
        raise MatrixFormatError(f"expected header 'n k', got {header!r}", lineno)
    try:
        n, k = int(parts[0]), int(parts[1])
    except ValueError:
        raise MatrixFormatError(f"expected integer header 'n k', got {header!r}", lineno)
    if n < 1:
        raise MatrixFormatError(f"leaf count {n} must be positive", lineno)
    if k < 1:
        raise MatrixFormatError("k >= 1 required", lineno)

    rows = content[1:]
    counts: list[int] | None = None
    if rows and rows[0][1].split()[0] == "counts":
        lineno, line = rows[0]
        try:
            counts = [int(tok) for tok in line.split()[1:]]
        except ValueError:
            raise MatrixFormatError("counts line must hold integers", lineno)
        if not counts or any(c < 1 for c in counts):
            raise MatrixFormatError("counts must be positive integers", lineno)
        if sum(counts) != k:
            raise MatrixFormatError(
                f"counts sum to {sum(counts)}, header says k={k}", lineno)
        rows = rows[1:]

    width = len(counts) if counts is not None else k
    if len(rows) != n:
        raise MatrixFormatError(
            f"expected {n} leaf rows, found {len(rows)}",
            rows[-1][0] if rows else lineno)

    bits_by_label: dict[int, str] = {}
    for lineno, line in rows:
        tokens = line.split()
        try:
            leaf = int(tokens[0])
        except ValueError:
            raise MatrixFormatError(f"expected a leaf id, got {tokens[0]!r}", lineno)
        if not 1 <= leaf <= n:
            raise MatrixFormatError(f"leaf id {leaf} out of range 1..{n}", lineno)
        if leaf in bits_by_label:
            raise MatrixFormatError(f"duplicate leaf id {leaf}", lineno)
        bits = "".join(tokens[1:])
        if not bits or any(b not in "01" for b in bits):
            raise MatrixFormatError(
                f"row for leaf {leaf} must hold only 0/1 states", lineno)
        if len(bits) != width:
            raise MatrixFormatError(
                f"row for leaf {leaf} has {len(bits)} sites, expected {width}", lineno)
        bits_by_label[leaf] = bits

    # a counts line is summed per distinct column, never expanded into k
    # columns, so a compressed file costs O(distinct patterns) to read
    merged: dict[Character, int] = {}
    for j in range(width):
        ch = tuple(int(bits_by_label[lab][j]) for lab in range(1, n + 1))
        merged[ch] = merged.get(ch, 0) + (counts[j] if counts is not None else 1)
    return DataMatrix(n, tuple(sorted(merged.items())))


def write_matrix(matrix: DataMatrix, compressed: bool = False) -> str:
    """Serialize a matrix; round-trips through :func:`parse_matrix`.

    Expanded form repeats duplicate columns; compressed form writes each
    distinct pattern once plus a "counts" line with the multiplicities.
    """
    lines = [f"{matrix.n} {matrix.k}"]
    if compressed:
        lines.append("counts " + " ".join(str(m) for _, m in matrix.patterns))
        cols = [ch for ch, _ in matrix.patterns]
    else:
        cols = list(matrix.expanded_columns())
    for lab in range(1, matrix.n + 1):
        bits = "".join(str(ch[lab - 1]) for ch in cols)
        lines.append(f"{lab} {bits}")
    return "\n".join(lines) + "\n"
