"""Discrete factor-space model.

Domain types for joint laws of (factor vector, binary label) pairs on
{0,...,q}^n x {-1,+1}, exact probability queries on known tables, and
reproducible i.i.d. sampling.  Everything downstream (exact oracles,
estimators, Monte Carlo harness) is built on these types.

Conventions fixed here and relied on everywhere else:

- factor vectors are enumerated lexicographically, first coordinate most
  significant;
- labels are {-1, +1}, never {0, 1}, and -1 sorts before +1 in the atom
  enumeration (x, then y);
- factor indices in subsets and record indices in datasets are 1-based.
"""

from __future__ import annotations

import json
import sys
from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError

LABELS = (-1, 1)

# Caps every dense array, a distribution's table or a subset's cell table,
# in its one check, ``FactorSpace.num_points``; data may have any n.
MAX_POINTS = 2**24

MAX_LEVEL = 2**15 - 1  # Dataset.x holds factor levels as int16
MAX_RECORDS = np.iinfo(np.intp).max // 8  # float64 draws past it have no array

NORMALIZATION_TOL = 1e-12

# The atom CDF is kept only at the end of each block of CDF_BLOCK atoms;
# ``sample`` re-sums the blocks its draws land in.  Every walk over a table
# takes CDF_CHUNK atoms, CDF_CHUNK // 2 points (a multiple of CDF_BLOCK and
# of 8 points, 512 KiB of float64), at a time: the build pass, sorted draws
# (searched CDF_CHUNK // CDF_BLOCK at a time), the oracle's slabs and the
# leaves of its replayed sums (CDF_CHUNK // S values over S predictors).
CDF_BLOCK = 16
CDF_CHUNK = 2**16


def _integer(name: str, value) -> int:
    """The one judge of an integer argument, never a bool: a Python int of
    at most 2048 bits (617 digits), short enough for any message to print."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if (value := int(value)).bit_length() > 2048:
        raise ValidationError(f"{name} must be an integer of at most 2048 bits")
    return value


def _real(name: str, value) -> float:
    """The one judge of a real argument, finite and never a bool: a Python
    float.  An int past the float range is refused unprinted."""
    if isinstance(value, int) and not isinstance(value, bool):
        if abs(value) > sys.float_info.max:
            raise ValidationError(
                f"{name} must be a finite real number, got an int past the float range")
        value = float(value)
    if not (isinstance(value, (float, np.integer, np.floating)) and np.isfinite(value)):
        raise ValidationError(f"{name} must be a finite real number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class FactorSpace:
    """The domain {0,...,q}^n: n factors, each with levels 0..q.  Any n is
    legal; ``num_points`` and ``grid_shape`` refuse more than MAX_POINTS."""

    n: int
    q: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _integer("n", self.n))
        object.__setattr__(self, "q", _integer("q", self.q))
        if self.n < 1 or self.q < 1:
            raise ValidationError(f"need n >= 1 and q >= 1, got n={self.n}, q={self.q}")
        if self.q > MAX_LEVEL:
            raise ValidationError(f"q={self.q} exceeds the largest factor level {MAX_LEVEL}")

    @property
    def num_points(self) -> int:
        """(q+1)^n, checked against the dense-table cap."""
        # over the cap from n = 25 on for any q, so (q+1)^n is never a bigint
        if self.n >= MAX_POINTS.bit_length() or (self.q + 1) ** self.n > MAX_POINTS:
            raise ValidationError(
                f"n={self.n}, q={self.q}: (q+1)^n exceeds dense-table cap {MAX_POINTS}"
            )
        return (self.q + 1) ** self.n

    @property
    def grid_shape(self) -> tuple[int, ...]:
        """One axis per factor; its C-order ravel is the point enumeration."""
        self.num_points  # raises over the dense-table cap
        return (self.q + 1,) * self.n

    def points(self, ranks: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """(len(ranks), n) int16 levels of the points with the given
        lexicographic ranks, one ``point_levels`` column per factor, into
        ``out`` if given.

        Only ``sample`` asks for the whole grid, when it is no larger than
        its draws: (q+1)^n x n int16 is hundreds of MB near the cap.
        """
        ranks = np.asarray(ranks)
        pts = np.empty((len(ranks), self.n), dtype=np.int16) if out is None else out
        for i in range(1, self.n + 1):
            pts[:, i - 1] = point_levels(self, i, ranks)
        return pts

    def rank(self, x: Sequence[int]) -> int:
        """Position of x in the fixed lexicographic enumeration."""
        levels = [_integer("level", v) for v in x]
        if len(levels) != self.n or not all(0 <= v <= self.q for v in levels):
            raise ValidationError(f"point {tuple(x)} outside {{0..{self.q}}}^{self.n}")
        r = 0
        for v in levels:
            r = r * (self.q + 1) + v
        return r


@dataclass(frozen=True)
class FactorSubset:
    """A collection of factor indices {m_1 < ... < m_r}, 1-based."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        idx = tuple(_integer("factor index", i) for i in self.indices)
        object.__setattr__(self, "indices", idx)
        if len(idx) < 1:
            raise ValidationError("a factor subset must contain at least one index")
        if any(i < 1 for i in idx):
            raise ValidationError(f"factor indices are 1-based, got {idx}")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValidationError(f"factor indices must be strictly increasing, got {idx}")

    @classmethod
    def of(cls, *indices: int) -> "FactorSubset":
        return cls(tuple(indices))

    @property
    def r(self) -> int:
        return len(self.indices)

    def validate_for(self, space: FactorSpace) -> None:
        if self.indices[-1] > space.n:
            raise ValidationError(
                f"subset {self.indices} references factor beyond n={space.n}"
            )


def point_levels(
    space: FactorSpace, factor: int, ranks: np.ndarray | None = None
) -> np.ndarray:
    """Level of the 1-based ``factor`` at the points with the given
    lexicographic ranks: the rank's base-(q+1) digit for that factor.

    ``ranks=None`` means every point, as the q+1 levels along the factor's
    axis of an array that broadcasts against ``space.grid_shape``.
    """
    base = space.q + 1
    if ranks is None:
        shape = [1] * space.n
        shape[factor - 1] = base
        return np.arange(base).reshape(shape)
    return np.asarray(ranks) // base ** (space.n - factor) % base


def cylinder_count(r: int, q: int) -> int:
    """(q+1)^r cells of an r-factor subset, checked against the dense-table cap."""
    try:
        return FactorSpace(r, q).num_points
    except ValidationError:  # name the subset size r, not a factor count n
        raise ValidationError(
            f"r={r}, q={q}: (q+1)^r cells exceed dense-table cap {MAX_POINTS}"
        ) from None


def cylinder_codes(
    x_rows: np.ndarray, subset: FactorSubset, q: int, start=None, out=None
) -> np.ndarray:
    """Map each row of an (m, n) level array to its cylinder cell code.

    Codes enumerate the sub-vectors u lexicographically, so code 0 is
    u = (0,...,0) and code (q+1)^r - 1 is u = (q,...,q).  With ``start``, m
    int64 values of any shape, row j gets ``start[j] * (q+1)^r`` plus its code.
    ``out``, m int64 values, receives the codes.
    """
    x = np.asarray(x_rows)
    codes = np.empty(x.shape[0], dtype=np.int64) if out is None else out
    codes[...] = 0 if start is None else start.reshape(-1)
    for i in subset.indices:  # in place: no record-sized temporaries
        codes *= q + 1
        codes += x[:, i - 1]
    return codes


@dataclass(frozen=True)
class PenaltyFunction:
    """Nonnegative error weights (psi(-1), psi(+1)), not both zero.

    The classification threshold psi(-1)/(psi(-1)+psi(+1)) is exposed as
    ``threshold``; scaling both weights by c > 0 leaves it unchanged.
    """

    psi_neg: float
    psi_pos: float

    def __post_init__(self) -> None:
        a, b = _real("psi_neg", self.psi_neg), _real("psi_pos", self.psi_pos)
        if a < 0 or b < 0:
            raise ValidationError(f"penalty weights psi_neg, psi_pos must be >= 0, got ({a}, {b})")
        if a + b == 0:
            raise ValidationError("penalty weights must not both be zero")
        object.__setattr__(self, "psi_neg", a)
        object.__setattr__(self, "psi_pos", b)

    @property
    def threshold(self) -> float:
        """psi(-1) / (psi(-1) + psi(+1)), in [0, 1]."""
        return self.psi_neg / (self.psi_neg + self.psi_pos)


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Exact probability table p(x, y) on {0..q}^n x {-1,+1}.

    ``probs`` has shape (num_points, 2); column 0 is y = -1, column 1 is
    y = +1, rows follow the lexicographic point enumeration.  Entries must
    be nonnegative and sum to 1 within 1e-12, and both label marginals
    must be strictly positive (degenerate labels are rejected).  Beside the
    table it keeps both label sums, the atom CDF at each block end and the
    support as packed bits, the last two from one chunked pass over the
    table, which only this class walks (``support_mask`` serves any range of
    points), and, once sampled with at least as many draws as atoms, its
    ``_guide_table``.  Equal spaces and tables make equal, unhashable ones.
    """

    space: FactorSpace
    probs: np.ndarray
    copy: InitVar[bool] = True  # False: take over a float64 table built for it

    def __post_init__(self, copy: bool) -> None:
        p = (np.array if copy else np.asarray)(self.probs, dtype=np.float64)
        if p.shape != (self.space.num_points, 2):
            raise ValidationError(
                f"probs must have shape ({self.space.num_points}, 2), got {p.shape}"
            )
        lo, hi = p.min(), p.max()  # NaN and +-inf propagate: no table-sized masks
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValidationError("probability table contains non-finite entries")
        if lo < 0:
            raise ValidationError("probability table contains negative entries")
        neg, pos = float(p[:, 0].sum()), float(p[:, 1].sum())  # the label marginals
        if abs(neg + pos - 1.0) > NORMALIZATION_TOL:
            raise ValidationError(f"probabilities sum to {neg + pos!r}, not 1 within 1e-12")
        if not 0.0 < pos < 1.0:
            raise ValidationError(
                f"degenerate label marginal P(Y=1) = {pos}; both labels need mass"
            )
        object.__setattr__(self, "_label_sums", (neg, pos))
        # one pass, CDF_CHUNK atoms at a time: the support bits, np.packbits
        # of each point's "either atom > 0", and np.cumsum of the atoms at the
        # last atom of each block, the final atom's value forced to 1.0.  Each
        # chunk's cumsum is seeded with the previous chunk's last value, so
        # every value is the sequential one; no table-sized array is made
        atoms = p.reshape(-1)
        bits = np.empty(-(-atoms.size // 16), dtype=np.uint8)
        ends = np.empty(-(-atoms.size // CDF_BLOCK))
        carry = 0.0
        for start in range(0, atoms.size, CDF_CHUNK):  # CDF_CHUNK // 2 points: whole bytes
            chunk = atoms[start : start + CDF_CHUNK]
            k, byte, block = chunk.size, start // 16, start // CDF_BLOCK
            # one uint16 per point's pair of flags
            bits[byte : byte + -(-k // 16)] = np.packbits((chunk > 0.0).view(np.uint16) != 0)
            run = np.concatenate(([carry], chunk))
            np.cumsum(run, out=run)
            ends[block : block + k // CDF_BLOCK] = run[CDF_BLOCK::CDF_BLOCK]
            carry = run[-1]
            del run  # no chunk buffer is alive while the next flags are packed
        ends[-1] = 1.0  # also the end of a partial last block
        for name, arr in (("probs", p), ("_support_bits", bits), ("_cdf_ends", ends)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JointDistribution):
            return NotImplemented
        return self.space == other.space and np.array_equal(self.probs, other.probs)

    __hash__ = None

    @cached_property
    def _guide(self) -> tuple:
        """``_guide_table(self)``, built on first use and pickled with the table."""
        return _guide_table(self)

    @classmethod
    def from_atoms(
        cls, n: int, q: int, atoms: Iterable[tuple[Sequence[int], int, float]]
    ) -> "JointDistribution":
        """Build a table from (x, y, prob) atoms; unlisted atoms are 0.  The
        one judge of an atom, naming its index: x is a point (``rank``), y an
        integer, -1 or +1, and prob a real number in [0, 1]."""
        space = FactorSpace(n, q)
        p = np.zeros((space.num_points, 2))
        seen = set()
        for i, (x, y, prob) in enumerate(atoms):
            try:
                y, prob = _integer("y", y), _real("p", prob)
                if y not in LABELS or not 0 <= prob <= 1:
                    raise ValidationError(f"need y of -1 or +1, p in [0, 1]; got y={y}, p={prob}")
                key = (space.rank(x), LABELS.index(y))
            except ValidationError as exc:
                raise ValidationError(f"atom #{i}: {exc}") from None
            if key in seen:
                raise ValidationError(f"atom #{i}: duplicate atom for x={tuple(x)}, y={y}")
            seen.add(key)
            p[key] = prob
        return cls(space, p, copy=False)

    @classmethod
    def from_conditional(
        cls,
        n: int,
        q: int,
        point_probs: np.ndarray,
        cond_pos: np.ndarray,
    ) -> "JointDistribution":
        """Build from a marginal P(X=x) and a conditional P(Y=1 | X=x).

        Each array is either flat over the lexicographic point enumeration
        or broadcasts against ``space.grid_shape``, scalars included (the
        ``point_levels`` convention).  The two label columns are written
        straight from the broadcast, so small grids stay small.
        """
        space = FactorSpace(n, q)
        grid = space.grid_shape
        m, c = (np.asarray(a, dtype=np.float64) for a in (point_probs, cond_pos))
        m, c = (a.reshape(grid) if a.shape == (space.num_points,) else a for a in (m, c))
        try:
            covers = np.broadcast_shapes(m.shape, c.shape, grid) == grid
        except ValueError:
            covers = False
        if not covers:
            raise ValidationError("point_probs and cond_pos must cover every point")
        if c.min() < 0 or c.max() > 1:
            raise ValidationError("conditional probabilities must lie in [0, 1]")
        p = np.empty(grid + (2,))
        np.multiply(m, 1.0 - c, out=p[..., 0])
        np.multiply(m, c, out=p[..., 1])
        return cls(space, p.reshape(-1, 2), copy=False)

    def point_probs(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """P(X=x) of each point, ``[start:stop]`` of the enumeration order (read-only),
        summed on each call: bit for bit ``probs.sum(axis=1)``, about 5x faster."""
        marginal = self.probs[start:stop, 0] + self.probs[start:stop, 1]
        marginal.flags.writeable = False
        return marginal

    def support_mask(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Whether each point has positive mass, ``[start:stop]`` of the
        enumeration order (read-only), unpacked from the support bits on each
        call: only the bytes that hold the range."""
        start, stop, _ = slice(start, stop).indices(self.space.num_points)
        skip, count = start % 8, max(stop - start, 0)
        bits = self._support_bits[start // 8 : -(-(start + count) // 8)]
        mask = np.unpackbits(bits, count=skip + count)[skip:].view(np.bool_)
        mask.flags.writeable = False
        return mask

    def atoms(self) -> list[tuple[tuple[int, ...], int, float]]:
        """Nonzero atoms (x, y, p) in enumeration order."""
        ranks, cols = np.nonzero(self.probs > 0.0)
        xs = self.space.points(ranks).tolist()
        ps = self.probs[ranks, cols].tolist()
        return [(tuple(x), LABELS[c], p) for x, c, p in zip(xs, cols.tolist(), ps)]


def _block_cdf(dist: JointDistribution, blocks: np.ndarray) -> np.ndarray:
    """The atom CDF over the given sorted blocks, one row of CDF_BLOCK
    values each, equal bit for bit to ``np.cumsum`` over all atoms with
    the final atom forced to 1.0.  A partial last block is padded with
    +inf."""
    atoms = dist.probs.reshape(-1)
    ends = dist._cdf_ends
    full = atoms.size // CDF_BLOCK
    rows = np.empty((blocks.size, CDF_BLOCK))
    inner = blocks.size - int(blocks.size > 0 and blocks[-1] == full)
    np.take(atoms[: full * CDF_BLOCK].reshape(full, CDF_BLOCK), blocks[:inner], axis=0,
            out=rows[:inner])
    if inner < blocks.size:  # the partial last block
        tail = atoms[full * CDF_BLOCK :]
        rows[-1, : tail.size] = tail
        rows[-1, tail.size :] = 0.0
    carry = ends[blocks - 1]  # the sequential sum up to each block's start
    if blocks.size and blocks[0] == 0:
        carry[0] = 0.0
    rows[:, 0] += carry
    np.cumsum(rows, axis=1, out=rows)
    if blocks.size and blocks[-1] == ends.size - 1:
        last = (atoms.size - 1) % CDF_BLOCK
        rows[-1, last] = 1.0
        rows[-1, last + 1 :] = np.inf
    return rows


def _atom_index(
    dist: JointDistribution, u: np.ndarray, out=None, scratch=None, mask=None
) -> np.ndarray:
    """Each draw's atom: ``np.searchsorted(cdf, u, "right")`` on the
    sequential CDF of all atoms, final value 1.0, bit for bit, written into
    ``out`` (intp).  With at least as many draws as atoms, the distribution's
    ``_guide_table`` finds them, its working arrays ``scratch`` (float64) and
    ``mask`` (bool); with fewer, the draws are sorted and searched CDF_CHUNK //
    CDF_BLOCK at a time, each chunk re-summing only the blocks its draws land
    in (the rule reads only the sizes).  An array not given is allocated."""
    atom = np.empty(u.size, dtype=np.intp) if out is None else out
    if dist.probs.size <= u.size:
        guide, lo, rounds, pad, _ = dist._guide
        scratch = np.empty(u.size) if scratch is None else scratch
        mask = np.empty(u.size, dtype=np.bool_) if mask is None else mask
        bucket = scratch.view(np.intp)  # truncated, as astype would
        np.take(lo, np.multiply(u, guide, out=bucket, casting="unsafe"), out=atom, mode="clip")
        # masked adds write only the draws that move, so the rounds a crowded
        # bucket sets for every draw stay cheap; the last round adds 0 or 1.
        # Every index is in range: "clip" only spares take a copy of out
        for step in (1 << r for r in reversed(range(1, rounds))):
            np.less_equal(np.take(pad[step - 1 :], atom, out=scratch, mode="clip"), u, out=mask)
            np.add(atom, step, out=atom, where=mask)
        atom += np.less_equal(np.take(pad, atom, out=scratch, mode="clip"), u, out=mask)
        return atom
    order = np.argsort(u)
    step = CDF_CHUNK // CDF_BLOCK  # at most CDF_CHUNK atoms re-summed per chunk
    for start in range(0, u.size, step):
        rank = order[start : start + step]
        v = u[rank]
        block = np.searchsorted(dist._cdf_ends, v, "right")
        touched = block[np.flatnonzero(np.diff(block, prepend=-1))]  # run starts
        pos = np.searchsorted(_block_cdf(dist, touched).ravel(), v, "right")
        atom[rank] = touched[pos // CDF_BLOCK] * CDF_BLOCK + pos % CDF_BLOCK
    return atom


def _guide_table(dist: JointDistribution) -> tuple:
    """(G, lo, rounds, pad, grid), read-only and O(atoms): a guide table over
    the sequential CDF (Chen & Asau 1974) and every point's levels, which
    ``sample`` gathers x from.  A draw u in bucket b = floor(u * G) has its atom
    in lo[b]..lo[b+1], lo[b] counting the CDF values below b/G; a branchless
    binary search of ``rounds`` steps over ``pad``, the CDF padded with +inf,
    finishes it.  G is a power of two >= 2 * atoms, so u * G is exact and
    every step compares the same float64 values as ``searchsorted``."""
    atoms = dist.probs.size
    cdf = _block_cdf(dist, np.arange(dist._cdf_ends.size)).ravel()[:atoms]
    guide = 1 << (2 * atoms - 1).bit_length()
    lo = np.searchsorted(cdf, np.arange(guide + 1) / guide, "left")
    rounds = int(np.diff(lo).max()).bit_length()
    pad = np.full(atoms + (1 << rounds) - 1, np.inf)  # past the bucket: > u
    pad[:atoms] = cdf
    grid = dist.space.points(np.arange(dist.space.num_points))
    for arr in (lo, pad, grid):
        arr.flags.writeable = False
    return guide, lo, rounds, pad, grid


def label_marginal(dist: JointDistribution, y: int) -> float:
    """P(Y=y), the label column's sum, taken once when the table is built."""
    return dist._label_sums[LABELS.index(y)]


def cylinder_masses(dist: JointDistribution, subset: FactorSubset) -> np.ndarray:
    """P(X in C, Y=y) per cylinder cell C of the subset, shaped ``grid_shape
    + (2,)`` with length 1 on the axes of other factors."""
    space = dist.space
    subset.validate_for(space)
    table = dist.probs.reshape(space.grid_shape + (2,))
    kept = [i - 1 for i in subset.indices] + [space.n]
    shape = [space.q + 1 if i + 1 in subset.indices else 1 for i in range(space.n)]
    return np.einsum(table, list(range(space.n + 1)), kept).reshape(shape + [2])


def cell_conditionals(tot: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """pos / tot per cell, from masses or counts, with 0/0 := 0 on cells
    that carry nothing; the two broadcast against each other."""
    return np.divide(pos, tot, out=np.zeros(np.broadcast(pos, tot).shape), where=tot > 0)


@dataclass(frozen=True)
class Dataset:
    """An ordered i.i.d. sample of (factor vector, label) records.

    Records keep sampling order; record j (1-based) is ``x[j-1], y[j-1]``.
    Fold partitions depend on this order, so it is part of the contract.
    The one judge of levels (integers in 0..q) and labels (-1 or +1): it
    checks the given values before the int16 and int8 cast can change one.
    """

    space: FactorSpace
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        raw_x, raw_y = np.asarray(self.x), np.asarray(self.y)
        if raw_x.ndim != 2 or raw_x.shape[1] != self.space.n:
            raise ValidationError(f"x must be (N, {self.space.n}), got {raw_x.shape}")
        if raw_y.shape != (raw_x.shape[0],):
            raise ValidationError("y must be one label per record")
        if raw_x.shape[0] < 1:
            raise ValidationError("a dataset must contain at least one record")
        if not (raw_x.min() >= 0 and raw_x.max() <= self.space.q):  # NaN fails too
            raise ValidationError(f"factor level outside 0..{self.space.q}")
        if not np.all((raw_y == -1) | (raw_y == 1)):
            raise ValidationError("label must be -1 or +1")
        xs, ys = raw_x.astype(np.int16), raw_y.astype(np.int8)
        # in range, only a non-integer dtype can still lose a fraction
        if raw_x.dtype.kind not in "biu" and not np.array_equal(xs, raw_x):
            raise ValidationError("factor levels must be integers")
        xs.flags.writeable = False
        ys.flags.writeable = False
        object.__setattr__(self, "x", xs)
        object.__setattr__(self, "y", ys)

    def __len__(self) -> int:
        return self.x.shape[0]

    @classmethod
    def _drawn(cls, space: FactorSpace, xs: np.ndarray, ys: np.ndarray) -> "Dataset":
        """The records ``sample`` drew, int16 levels and int8 labels that are
        valid by construction: taken over read-only, not judged or copied."""
        xs.flags.writeable = ys.flags.writeable = False
        data = object.__new__(cls)
        for name, value in (("space", space), ("x", xs), ("y", ys)):
            object.__setattr__(data, name, value)
        return data


def sample(
    dist: JointDistribution, n_records: int, seed: int | Sequence[int], *, out=None
) -> Dataset:
    """Draw an i.i.d. sample of size n_records, reproducibly.

    Inverse-CDF sampling over the fixed atom enumeration (x lexicographic,
    y = -1 before +1; see ``_atom_index``), so identical
    (dist, n_records, seed) give the same dataset bit for bit.  A sequence
    of B seeds gives one dataset of B * n_records records whose block b is
    exactly ``sample(dist, n_records, seeds[b])``; seeds are integers >= 0,
    a refused one named by its index, and draws at most MAX_RECORDS in all.
    With at least as many draws as atoms, x is gathered from a grid of every
    point's levels, kept with the distribution's ``_guide_table``; with
    fewer, levels are read off each rank.

    ``out``, passed only by the Monte Carlo harness, is the batch buffers
    (draws, atoms, x, y, scratch): float64, intp, (., n) int16, int8 and
    float64 arrays with room for every draw.  The draws go to their leading
    entries, and the dataset's x and y are views of ``out``'s, overwritten by
    the next call with it.  Without it, every array is the dataset's own.
    """
    if (n_records := _integer("n_records", n_records)) < 1:
        raise ValidationError(f"sample size must be >= 1, got {n_records}")
    listed, seeds = np.ndim(seed) > 0, []
    for i, s in enumerate(seed if listed else [seed]):
        name = f"seed #{i}" if listed else "seed"
        if (s := _integer(name, s)) < 0:
            raise ValidationError(f"{name} must be >= 0, got {s}")
        seeds.append(s)
    if not seeds:
        raise ValidationError("no seed given: a dataset must contain at least one record")
    if len(seeds) * n_records > MAX_RECORDS:
        raise ValidationError(f"n_records too large: over {MAX_RECORDS} draws in all")
    size = len(seeds) * n_records
    u, rank, xs, ys, scratch = (a[:size] for a in out) if out else (
        np.empty(size), np.empty(size, dtype=np.intp), None, np.empty(size, dtype=np.int8), None)
    for row, s in zip(u.reshape(len(seeds), n_records), seeds):
        np.random.default_rng(s).random(out=row)
    # the labels' bytes hold the search's mask until the labels are written
    _atom_index(dist, u, rank, scratch, ys.view(np.bool_))
    del u  # a dataset's own draws are freed before its levels are built
    np.bitwise_and(rank, 1, out=ys, casting="unsafe")
    ys *= 2
    ys -= 1
    rank >>= 1  # atom to point rank
    if dist.probs.size <= rank.size:  # the grid is no larger than the draws
        xs = np.take(dist._guide[4], rank, axis=0, out=xs, mode="clip")
    else:  # ranks stay below MAX_POINTS; int32 digit arithmetic is the cheaper one
        xs = dist.space.points(rank.astype(np.int32), out=xs)
    return Dataset._drawn(dist.space, xs, ys)


def save_distribution(dist: JointDistribution, path) -> None:
    """Write a distribution as JSON: fields n, q and the nonzero atoms."""
    doc = {
        "n": dist.space.n,
        "q": dist.space.q,
        "atoms": [
            {"x": list(x), "y": y, "p": p} for x, y, p in dist.atoms()
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_distribution(path) -> JointDistribution:
    """Read a distribution JSON file written by ``save_distribution``, a
    UTF-8 BOM skipped.  Only the JSON structure is checked here;
    ``from_atoms`` judges n, q and every atom, and its refusal names the path."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # bad UTF-8 or JSON, or an int past the digit limit
            raise ValidationError(f"{path}: not valid UTF-8 JSON ({exc})") from exc
    if not (isinstance(doc, dict) and {"n", "q", "atoms"} <= doc.keys()
            and isinstance(doc["atoms"], list)):
        raise ValidationError(f"{path}: expected an object with n, q and a list atoms")
    for i, atom in enumerate(doc["atoms"]):
        if not (isinstance(atom, dict) and {"x", "y", "p"} <= atom.keys()
                and isinstance(atom["x"], list)):
            raise ValidationError(f"{path}: malformed atom #{i}: {atom!r}")
    atoms = [(a["x"], a["y"], a["p"]) for a in doc["atoms"]]
    try:
        return JointDistribution.from_atoms(doc["n"], doc["q"], atoms)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
