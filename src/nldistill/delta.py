"""Dynamic-programming tables for the recursive wiring bounds.

For a parameter p = P(0,0|0,0) of an instance, the tables hold the
level-n grids delta_n_plus(k,l) and delta_n_minus(k,l).  Level 0 is k*l
on {0,1}^2; level m is the window optimum

    opt_{i,j} p*[d(i,j) + d(k-i,l-j)] + (1/2-p)*[d(i,l-j) + d(k-i,j)]

over i in [k-min(k,2^(m-1)), min(k,2^(m-1))] and j likewise, a function
of level m-1 alone, so the build keeps only the level below.

Entries are stored as integer numerators over the exact per-level
denominator D_m = (2*den(p))^m, which keeps the whole build in integer
arithmetic: int64 whenever magnitudes provably fit, otherwise Python big
ints in object arrays.  Only the plus grid is filled, and only its capped
wedge k <= l <= 2^m - k (so k <= 2^(m-1)); the rest of it follows from the
(k,l) <-> (l,k) symmetry and the complement identity

    delta_m(2^m - k, 2^m - l) = delta_m(k, l) + 1 - (k + l)/2^m.

Both hold for either sign by induction on m; at level 0 they read kl = lk
and (1-k)(1-l) = kl + 1 - (k+l) on {0,1}.  At level m, h = 2^(m-1), the
swap (k,l,i,j) -> (l,k,j,i) maps the recursion's objective at (k,l) onto
the one at (l,k), given the symmetry of level m-1.  The split
(i,j) -> (h-i, h-j) maps the windows of (k,l) onto those of
(2^m-k, 2^m-l) and turns each of the four terms into one of the form
delta_{m-1}(h-x, h-y) = delta_{m-1}(x, y) + 1 - (x+y)/h.  Each of the two
pairs of terms gains 2 - (k+l)/h, so with the weights p and 1/2 - p every
objective grows by 1 - (k+l)/2^m, and so does the optimum.

Together they give the cells outside the capped wedge.  With S = 2^m, the
symmetry gives every cell with k + l <= S: one of k, l is at most S/2, and
the cell or its transpose lies in the capped wedge.  For k + l > S the
complement identity at (S-k, S-l) and then the symmetry give the
transposed complement

    delta_m(k, l) = delta_m(S - l, S - k) + (k + l - S)/S,

whose cell (S-l, S-k) has the sum 2S - k - l < S, so it is one of those
already given.  Over D_m the step (k + l - S)/S is (k + l - S)*den(p)^m.

The minus grid is a function of the plus grid,

    delta_m_minus(k, l) = l/2^m - delta_m_plus(2^m - k, l),

by induction on m.  At level 0 it reads k*l = l - (1 - k)*l.  At level m,
h = 2^(m-1), put the identity for level m-1 into the min recursion: its
l/h terms add up to p*l/h + (1/2 - p)*l/h = l/2^m, and the rest is minus
the max objective at (2^m - k, l) under the split i' = h - i, which maps
the i window [max(0, k-h), min(k, h)] onto the window of 2^m - k exactly.
So the min is l/2^m minus the max.  All three identities hold exactly for
the recursion and are cross-checked against a direct recursive
evaluation in the tests.

A cache file (format 6) starts with three ASCII header lines

    NLDELTA 6
    n=<n> p=<num>/<den>
    sha256=<hex digest of every other byte of the file>

and goes on with the level-n plus grid's numerators over D_n in row-major
order, each entry as L unsigned little-endian 64-bit limbs, least
significant first, where L = ceil(bits(D_n)/64).  L is not stored:
it follows from n and p, and it is 1 for every int64 table, as
D_n <= 2^59 there.  The minus grid is not stored: ``DeltaTables.minus``
derives it on first read.  The loader picks the dtype from ``fits_int64``
as the build does.  Files of another version raise ``TableVersionError``.

Loading checks the header (``TableHeaderError``) and the checksum
(``TableChecksumError``), then, before any work of size n, that level n's
more than 4^n entries of 8 bytes fit the payload (``TableHeaderError``),
then that the payload holds exactly the (2^n+1)^2 entries of level n at
8*L bytes each, and that they lie in [0, D_n] (``TableFormatError``).  An
int64 grid is a read-only view of the decoded buffer; a big-int grid
joins its limbs in Python ints.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import os
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .boxes import RationalLike, rational
from . import kernels

#: levels are int64 only while (2*den(p))^n stays below this;
#: every intermediate is then below 8*(2*den(p))^n < 2^63.
INT64_SAFE_LIMIT = 1 << 59

MEMORY_BUDGET = 2 << 30  # bytes

_MAGIC = "NLDELTA"
_FORMAT_VERSION = 6


class DeltaTableError(Exception):
    """Base class for table build and persistence failures."""


class TableVersionError(DeltaTableError):
    pass


class TableChecksumError(DeltaTableError):
    pass


class TableHeaderError(DeltaTableError):
    pass


class TableFormatError(DeltaTableError):
    pass


class MemoryBudgetError(DeltaTableError):
    """``required`` is the estimated bytes, None when the top level alone is
    far past the budget."""

    def __init__(self, required: Optional[int], budget: int):
        self.required = required
        self.budget = budget
        need = ("the top table level alone exceeds" if required is None
                else f"table levels need about {required} bytes, which exceeds")
        super().__init__(f"{need} the memory budget of {budget} bytes")


def fits_int64(p: Fraction, n: int) -> bool:
    return (2 * p.denominator) ** n <= INT64_SAFE_LIMIT


def _estimate_bytes(n: int, int64: bool) -> int:
    per_entry = 8 if int64 else 120  # object arrays: pointer plus a small int
    # the build holds levels n - 1 and n, and bound and grid read
    # DeltaTables.minus, which materializes the level-n minus grid beside it
    return (2 * (2 ** n + 1) ** 2 + (2 ** n // 2 + 1) ** 2) * per_entry


ProgressFn = Callable[[dict], None]


@dataclass(frozen=True)
class DeltaTables:
    """The immutable level-n numerator grid at parameter p.

    Only the plus grid is held; ``n``, ``minus`` and ``ops_per_level``
    follow from it, the minus grid by the identity in the module docstring.
    """

    p: Fraction
    plus: np.ndarray

    @property
    def n(self) -> int:
        return (len(self.plus) - 1).bit_length() - 1

    @functools.cached_property
    def ops_per_level(self) -> tuple[int, ...]:
        """Each level's ``ops``, as its ``level_filled`` event counts them."""
        return (0, *(2 * kernels._wedge_pairs(2 ** m) for m in range(1, self.n + 1)))

    @functools.cached_property
    def minus(self) -> np.ndarray:
        """The read-only minus grid, derived once."""
        g = self.plus
        # l*dp^n numerates l/2^n over D_n; exact in int64 (entries <= D_n)
        gm = np.arange(len(g)).astype(g.dtype) * self.p.denominator ** self.n - g[::-1]
        gm.flags.writeable = False
        return gm

    @property
    def denominator(self) -> int:
        """D_n = (2*den(p))^n, the grids' common denominator."""
        return (2 * self.p.denominator) ** self.n

    def delta(self, sign: str, k: int, l: int) -> Fraction:
        """Exact table value delta_n^sign(k, l); sign is "+" or "-"."""
        if sign not in ("+", "-"):
            raise ValueError(f"sign must be '+' or '-', got {sign!r}")
        size = 2 ** self.n
        if not (0 <= k <= size and 0 <= l <= size):
            raise IndexError(f"(k,l)=({k},{l}) outside the level-{self.n} grid 0..{size}")
        grid = self.plus if sign == "+" else self.minus
        return Fraction(int(grid[k, l]), self.denominator)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DeltaTables):
            return NotImplemented
        return (self.p == other.p and self.plus.dtype == other.plus.dtype
                and np.array_equal(self.plus, other.plus))

    __hash__ = None  # type: ignore[assignment]

    # -- persistence --------------------------------------------------------

    def save(self, path) -> None:
        """Write the cache file (layout in the module docstring) through a
        temporary file and a rename, so a failed write never leaves a torn
        file at ``path``."""
        head = (
            f"{_MAGIC} {_FORMAT_VERSION}\n"
            f"n={self.n} p={self.p.numerator}/{self.p.denominator}\n"
        ).encode()
        limbs = _limb_count(self.p, self.n)
        if limbs == 1:
            payload = self.plus.astype("<u8").tobytes()
        else:
            values = self.plus.ravel()
            words = np.empty((len(values), limbs), dtype="<u8")
            for k in range(limbs):
                words[:, k] = (values >> (64 * k)) & _LIMB_MASK
            payload = words.tobytes()
        digest = hashlib.sha256(head + payload).hexdigest()
        tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as fh:
                fh.write(head + f"sha256={digest}\n".encode())
                fh.write(payload)
            os.replace(tmp, path)
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)


_LIMB_MASK = (1 << 64) - 1


def _limb_count(p: Fraction, n: int) -> int:
    """The 64-bit limbs per cache entry: enough for D_n, 1 on int64 tables."""
    return -(-((2 * p.denominator) ** n).bit_length() // 64)


def load_tables(path, expect_p: Optional[Fraction] = None,
                expect_n: Optional[int] = None) -> DeltaTables:
    """Load a table cache file, verifying version, header and checksum."""
    with open(path, "rb") as fh:
        head = [fh.readline() for _ in range(3)]
        payload = fh.read()
    magic = head[0].decode(errors="replace").split()
    if len(magic) != 2 or magic[0] != _MAGIC:
        raise TableVersionError(f"not a delta table file: {head[0]!r}")
    if magic[1] != str(_FORMAT_VERSION):
        raise TableVersionError(
            f"format version {magic[1]} unsupported (expected {_FORMAT_VERSION})"
        )
    if not all(line.endswith(b"\n") for line in head):
        raise TableFormatError("file too short for a table header")
    _, second, third = (line[:-1] for line in head)
    try:
        n_part, p_part = second.decode().split()
        n = int(n_part.removeprefix("n="))
        p = Fraction(p_part.removeprefix("p="))
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise TableHeaderError(f"malformed header line {second!r}") from exc
    if n < 0 or not 0 <= p <= Fraction(1, 2):
        raise TableHeaderError(f"header out of range: n={n}, p={p}")
    if expect_n is not None and n != expect_n:
        raise TableHeaderError(f"file declares n={n}, expected n={expect_n}")
    if expect_p is not None and p != expect_p:
        raise TableHeaderError(f"file declares p={p}, expected p={expect_p}")
    # the digest covers every byte of the file except its own line
    digest = hashlib.sha256(b"".join(head[:2]))
    digest.update(payload)
    if digest.hexdigest().encode() != third.removeprefix(b"sha256="):
        raise TableChecksumError("checksum mismatch (corrupt or truncated)")
    # level n alone holds more than 4^n entries of 8 bytes: reject when
    # 8 * 4^n = 2^(2n+3) > len(payload), without forming 4^n
    if 2 * n + 3 >= len(payload).bit_length():
        raise TableHeaderError(
            f"header n={n} does not fit a payload of {len(payload)} bytes")

    side = 2 ** n + 1
    limbs = _limb_count(p, n)
    if len(payload) != side * side * 8 * limbs:
        raise TableFormatError(
            f"payload of {len(payload)} bytes, expected {side * side} entries "
            f"of {8 * limbs} bytes for n={n}"
        )
    words = np.frombuffer(payload, "<u8").reshape(-1, limbs)
    if fits_int64(p, n):
        values = words[:, 0]  # unsigned until checked: a set top bit exceeds D_n
    else:
        values = words[:, -1].astype(object)
        for k in range(limbs - 2, -1, -1):
            values = (values << 64) | words[:, k].astype(object)
        values.flags.writeable = False
    if values.max() > (2 * p.denominator) ** n:
        raise TableFormatError(f"entry outside [0, 1] at level {n}")
    grid = values.reshape(side, side)
    return DeltaTables(p=p, plus=grid.view(np.int64) if grid.dtype != object else grid)


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------

def _complete_grid(grid: np.ndarray, dppow: int) -> None:
    """Fill a level grid, size = len(grid) - 1, from its computed wedge
    k <= l <= size - k by the mirror and the transposed complement (module
    docstring).

    The wedge rows k <= size/2 are completed first, from complements in the
    computed wedge, then mirrored, and the quadrant k, l > size/2 last, from
    complements among the mirrored cells.  So a mirrored cell shares its
    transpose's entry, and a big-int grid holds no more Python ints than
    the cells computed by the fill or by a complement.
    """
    size = len(grid) - 1
    h = size // 2
    steps = np.arange(1, size + 1).astype(grid.dtype) * dppow
    for k in range(1, h + 1):
        grid[k, size - k + 1:] = grid[k - 1::-1, size - k] + steps[:k]
    for k in range(h + 1):
        grid[k + 1:, k] = grid[k, k + 1:]
    for k in range(h + 1, size + 1):
        grid[k, h + 1:] = grid[h - 1::-1, size - k] + steps[k - h:k]


def build_tables(p: RationalLike, n: int, *,
                 progress: Optional[ProgressFn] = None) -> DeltaTables:
    """Build the level-n delta tables at parameter p.

    p must lie in [0, 1/2] (the output-symmetric range; every isotropic
    system satisfies this).  Levels are int64 while every intermediate
    fits (see ``fits_int64``), otherwise exact Python integers.  One
    ``path_selected`` progress event gives the reason: the dtype ("int64"
    or "object"), the bit length of D_n and ``limit_bits`` (int64 while
    D_n <= 2**limit_bits).  Each ``level_filled`` event records its dtype
    too.  Builds past ``MEMORY_BUDGET`` raise ``MemoryBudgetError`` first.

    Each level runs one fill, ``kernels.fill_wedge``, of the plus grid's
    capped wedge k <= l <= 2^m - k, and ``_complete_grid`` derives the other
    cells by the symmetry and the transposed complement (module
    docstring).  Level m is filled from level m-1 alone, so the build holds
    two levels at a time.  The tables keep only the level-n plus grid, and
    ``DeltaTables.minus`` derives the minus grid from it by the identity in
    the module docstring.  Each ``level_filled`` event still counts, as
    ``ops``, the logical window pairs of both grids' recursions over the
    whole wedge k <= min(l, 2^(m-1)): twice ``kernels._wedge_pairs``.

    A big-int level is filled through a float filter: the window pairs
    within ``kernels.filter_margin`` of their cell's float64 optimum (the
    margin's proof is in its docstring) are evaluated in Python ints, and a
    block with more than ``kernels.FILTER_CAP`` of them is swept exactly.
    From level 8 on, an int64 level is filled by bound, then prune: a float
    upper bound per (row, l) pair, from concave majorants of the level
    below and widened by ``kernels.filter_margin``, is compared with an
    exact lower bound per cell, and only the pairs that reach it are
    evaluated in int64.  A block that would evaluate more than
    ``kernels.PRUNE_CAP`` of its pairs, as on the tie-heavy tables at p = 0
    and 1/2, is swept exactly, and so is the rest of its level.  The grids
    are the exact ones on every path.  Each ``level_filled`` event adds the
    counters ``kernels.fill_wedge`` returns for the path it took:
    ``filter_survivors`` and ``filter_fallbacks`` on big-int levels,
    ``prune_kept`` and ``prune_fallbacks`` on pruned ones.
    """
    p = rational(p)
    if not 0 <= p <= Fraction(1, 2):
        raise ValueError(f"parameter p={p} outside [0, 1/2]")
    if n < 0:
        raise ValueError("n must be >= 0")
    # level n alone holds two grids of more than 4^n entries of 8 bytes or
    # more, 2^(2n+4) > MEMORY_BUDGET^2 bytes past this n: reject it before
    # forming (2 den(p))^n or an estimate of about 2n bits
    if n > MEMORY_BUDGET.bit_length():
        raise MemoryBudgetError(None, MEMORY_BUDGET)
    use_int64 = fits_int64(p, n)
    required = _estimate_bytes(n, use_int64)
    if required > MEMORY_BUDGET:
        raise MemoryBudgetError(required, MEMORY_BUDGET)
    dp, num = p.denominator, p.numerator
    ca, cb = 2 * num, dp - 2 * num
    dtype = np.int64 if use_int64 else object

    base = np.zeros((2, 2), dtype=dtype)
    base[1, 1] = 1
    base.flags.writeable = False
    if progress is not None:
        progress({
            "event": "path_selected", "dtype": base.dtype.name,
            "bits": ((2 * dp) ** n).bit_length(),
            "limit_bits": INT64_SAFE_LIMIT.bit_length() - 1,
        })
    plus = base
    for m in range(1, n + 1):
        t0 = time.perf_counter()
        plus, counts = kernels.fill_wedge(plus, ca, cb)
        _complete_grid(plus, dp ** m)
        plus.flags.writeable = False
        if progress is not None:
            progress({
                "event": "level_filled", "m": m,
                # the window pairs of the recursion's two grids, one fill each
                "ops": 2 * kernels._wedge_pairs(2 ** m),
                "seconds": round(time.perf_counter() - t0, 3),
                "dtype": base.dtype.name, **counts,
            })
    return DeltaTables(p=p, plus=plus)


def tables_for(p: Fraction, n: int, tables: Optional[DeltaTables] = None) -> DeltaTables:
    """Given ``tables``, check they are at p and at level n; given none, build."""
    if tables is None:
        return build_tables(p, n)
    if tables.p != p:
        raise ValueError(f"tables built for p={tables.p}, system has p={p}")
    if tables.n != n:
        raise ValueError(f"tables at level {tables.n}, expected n={n}")
    return tables


def cache_filename(p: Fraction, n: int) -> str:
    return f"delta_p{p.numerator}_{p.denominator}_n{n}.nldt"
