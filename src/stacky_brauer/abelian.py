"""Exact integer linear algebra over Z.

Sparse integer matrices, Smith normal form with transform tracking,
finitely generated abelian groups in canonical invariant-factor form,
subquotients ker/im of Z^n (optionally with a modulus, SnapPy-style:
modulus 0 means Z coefficients), and maps induced on subquotients.

All arithmetic uses Python ints, so there is no overflow anywhere.
Every public value is immutable after construction and every operation
is a pure function.
"""

from __future__ import annotations

import contextvars
import heapq
from dataclasses import dataclass
from math import gcd

from .errors import (
    ChainCompositionError,
    NotChainCompatibleError,
    ResourceCapError,
    ValidationError,
)

_MAX_ENTRIES = contextvars.ContextVar("stacky_brauer_max_entries", default=5_000_000)


def set_resource_cap(n: int) -> None:
    if n < 1:
        raise ValidationError("resource cap must be positive")
    _MAX_ENTRIES.set(int(n))


def check_cap(needed: int, what: str = "") -> None:
    cap = _MAX_ENTRIES.get()
    if needed > cap:
        raise ResourceCapError(needed, cap, what)


# Powers up to this many bits are formed exactly before the cap comparison,
# so the error names the exact size wherever forming it is cheap.
_POWER_BITS = 4096


def capped_power(base: int, exp: int, what: str = "", cap: int = None) -> int:
    """base ** exp, or ResourceCapError when it exceeds cap (default: the resource cap).

    base ** exp >= 2 ** (exp * (bit_length(base) - 1)).  When that bound
    passes both the cap and _POWER_BITS, the power is refused without being
    formed and the error names it as base^exp; a huge exponent is refused
    at once.  Otherwise the power has at most 2 * _POWER_BITS bits.
    """
    if cap is None:
        cap = _MAX_ENTRIES.get()
    if exp * (base.bit_length() - 1) > max(cap.bit_length(), _POWER_BITS):
        raise ResourceCapError(f"{base}^{exp}", cap, what)
    power = base ** exp
    if power > cap:
        raise ResourceCapError(power, cap, what)
    return power


def xgcd(a: int, b: int):
    """Extended gcd: returns (x, y, g) with x*a + y*b == g >= 0."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b) if a and b else 0


def invariant_factor_chain(values) -> tuple:
    """Canonicalize a multiset of cyclic orders into an invariant-factor chain.

    Input entries are nonzero integers (signs ignored).  Output is the
    ascending chain d1 | d2 | ... with factors equal to 1 dropped.
    Uses gcd/lcm exchanges, so no factorization is needed.
    """
    fs = [abs(v) for v in values if abs(v) != 1]
    if any(v == 0 for v in fs):
        raise ValidationError("invariant factors must be nonzero")
    changed = True
    while changed:
        changed = False
        for i in range(len(fs)):
            for j in range(i + 1, len(fs)):
                a, b = fs[i], fs[j]
                if b % a != 0:
                    g = gcd(a, b)
                    fs[i], fs[j] = g, a * b // g
                    changed = True
        fs = [f for f in fs if f != 1]
    fs.sort()
    return tuple(fs)


# ---------------------------------------------------------------------------
# Sparse integer matrices


class IntegerMatrix:
    """Immutable sparse integer matrix.

    Entries are stored as a map (row, col) -> nonzero int.  The column
    view is built lazily and cached.
    """

    __slots__ = ("rows", "cols", "entries", "_col_view")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise ValidationError("matrix dimensions must be nonnegative")
        self.rows = rows
        self.cols = cols
        clean = {}
        if entries:
            for (r, c), v in (entries.items() if isinstance(entries, dict) else entries):
                if not (0 <= r < rows and 0 <= c < cols):
                    raise ValidationError(f"entry ({r},{c}) out of bounds for {rows}x{cols}")
                if v:
                    clean[(r, c)] = v
        self.entries = clean
        self._col_view = None

    # -- constructors

    @classmethod
    def from_rows(cls, data) -> "IntegerMatrix":
        data = [list(row) for row in data]
        rows = len(data)
        cols = len(data[0]) if rows else 0
        entries = {}
        for r, row in enumerate(data):
            if len(row) != cols:
                raise ValidationError("ragged rows")
            for c, v in enumerate(row):
                if v:
                    entries[(r, c)] = v
        return cls(rows, cols, entries)

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls(n, n, {(i, i): 1 for i in range(n)})

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntegerMatrix":
        return cls(rows, cols)

    @classmethod
    def from_columns(cls, rows: int, columns) -> "IntegerMatrix":
        """Build from an iterable of sparse column dicts {row: value}."""
        entries = {}
        ncols = 0
        for c, col in enumerate(columns):
            ncols += 1
            for r, v in col.items():
                if v:
                    entries[(r, c)] = v
        return cls(rows, ncols, entries)

    # -- views

    def col_view(self):
        if self._col_view is None:
            view = {}
            for (r, c), v in self.entries.items():
                view.setdefault(c, {})[r] = v
            self._col_view = view
        return self._col_view

    def column(self, c: int) -> dict:
        return dict(self.col_view().get(c, {}))

    # -- basic queries

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def get(self, r: int, c: int) -> int:
        return self.entries.get((r, c), 0)

    def to_rows(self):
        out = [[0] * self.cols for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out

    def diagonal(self):
        n = min(self.rows, self.cols)
        return [self.entries.get((i, i), 0) for i in range(n)]

    def is_diagonal(self) -> bool:
        return all(r == c for (r, c) in self.entries)

    # -- arithmetic

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ValidationError("shape mismatch in matrix product")
        left_cols = self.col_view()
        out = {}
        for (r, c), v in other.entries.items():
            col = left_cols.get(r)
            if not col:
                continue
            for rr, w in col.items():
                key = (rr, c)
                nv = out.get(key, 0) + w * v
                if nv:
                    out[key] = nv
                elif key in out:
                    del out[key]
        return IntegerMatrix(self.rows, other.cols, out)

    def apply(self, vec: dict) -> dict:
        """Multiply by a sparse column vector {index: value}."""
        cols = self.col_view()
        out = {}
        for c, v in vec.items():
            col = cols.get(c)
            if not col:
                continue
            for r, w in col.items():
                nv = out.get(r, 0) + w * v
                if nv:
                    out[r] = nv
                elif r in out:
                    del out[r]
        return out

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix(self.cols, self.rows,
                             {(c, r): v for (r, c), v in self.entries.items()})

    def hstack(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.rows != other.rows:
            raise ValidationError("row mismatch in hstack")
        entries = dict(self.entries)
        for (r, c), v in other.entries.items():
            entries[(r, self.cols + c)] = v
        return IntegerMatrix(self.rows, self.cols + other.cols, entries)

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntegerMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(sorted(self.entries.items()))))

    def __repr__(self):
        return f"IntegerMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


def determinant(M: IntegerMatrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination (small dense use)."""
    if M.rows != M.cols:
        raise ValidationError("determinant needs a square matrix")
    n = M.rows
    if n == 0:
        return 1
    a = M.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# ---------------------------------------------------------------------------
# Finitely generated abelian groups


@dataclass(frozen=True)
class FinAbGroup:
    """A finitely generated abelian group in canonical form.

    Torsion is an ascending divisibility chain with no factor equal to 1;
    the free part is recorded separately.  Generator order everywhere in
    this package is: torsion generators (chain order) first, then free
    generators.
    """

    free_rank: int = 0
    invariant_factors: tuple = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValidationError("free rank must be nonnegative")
        fs = tuple(self.invariant_factors)
        object.__setattr__(self, "invariant_factors", fs)
        for d in fs:
            if d < 2:
                raise ValidationError("invariant factors must be >= 2")
        for a, b in zip(fs, fs[1:]):
            if b % a != 0:
                raise ValidationError(f"broken divisibility chain {fs}")

    @classmethod
    def trivial(cls) -> "FinAbGroup":
        return cls(0, ())

    @classmethod
    def cyclic(cls, n: int) -> "FinAbGroup":
        """Z/n for n >= 2, the trivial group for n == 1, Z for n == 0."""
        if n < 0:
            raise ValidationError("cyclic order must be nonnegative")
        if n == 0:
            return cls(1, ())
        if n == 1:
            return cls(0, ())
        return cls(0, (n,))

    @classmethod
    def free(cls, rank: int) -> "FinAbGroup":
        return cls(rank, ())

    @classmethod
    def from_factors(cls, factors, free_rank: int = 0) -> "FinAbGroup":
        """Canonicalize an arbitrary list of cyclic orders (0 counts as Z)."""
        fs = []
        free = free_rank
        for f in factors:
            if f == 0:
                free += 1
            else:
                fs.append(f)
        return cls(free, invariant_factor_chain(fs))

    # -- structure

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    @property
    def num_generators(self) -> int:
        return self.free_rank + len(self.invariant_factors)

    def order(self):
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    def exponent(self):
        """Exponent of the torsion part (1 if torsion-free); None if free part nonzero."""
        if self.free_rank:
            return None
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def relation_orders(self) -> tuple:
        """Per-generator relation order: d_i for torsion, 0 for free."""
        return self.invariant_factors + (0,) * self.free_rank

    def direct_sum(self, *others) -> "FinAbGroup":
        factors = list(self.invariant_factors)
        free = self.free_rank
        for other in others:
            factors.extend(other.invariant_factors)
            free += other.free_rank
        return FinAbGroup(free, invariant_factor_chain(factors))

    def __str__(self):
        parts = [f"Z/{d}" for d in self.invariant_factors] + ["Z"] * self.free_rank
        return " + ".join(parts) if parts else "0"


def hom_to_cyclic(A: FinAbGroup, r: int) -> FinAbGroup:
    """Hom(A, Z/r) in canonical form: (Z/r)^free_rank + sum of Z/gcd(d_i, r)."""
    if r < 1:
        raise ValidationError("modulus must be >= 1")
    factors = [gcd(d, r) for d in A.invariant_factors] + [r] * A.free_rank
    return FinAbGroup.from_factors(factors)


# ---------------------------------------------------------------------------
# The elimination engine
#
# Diagonalizes a sparse integer matrix by unimodular row and column
# operations, optionally tracking V, V^-1, U, U^-1 and carrying companion
# right-hand-side columns through the row operations (so U @ rhs is
# available without materializing U).


class _Elim:
    def __init__(self, M: IntegerMatrix, *, track_v=False, track_vinv=False,
                 track_u=False, track_uinv=False, rhs: IntegerMatrix = None):
        check_cap(M.nnz, "matrix nonzeros")
        self.m = M.rows
        self.n = M.cols
        self.rows = {}
        self.col_index = {}
        for (r, c), v in M.entries.items():
            self.rows.setdefault(r, {})[c] = v
            self.col_index.setdefault(c, set()).add(r)
        self.vcols = {} if track_v else None          # col-major, lazy identity
        self.vinv_rows = {} if track_vinv else None   # row-major, lazy identity
        self.urows = {} if track_u else None          # row-major, lazy identity
        self.uinv_cols = {} if track_uinv else None   # col-major, lazy identity
        if rhs is not None:
            if rhs.rows != self.m:
                raise ValidationError("rhs row count mismatch")
            self.rhs_cols = rhs.cols
            self.rhs_rows = {}
            for (r, c), v in rhs.entries.items():
                self.rhs_rows.setdefault(r, {})[c] = v
        else:
            self.rhs_cols = 0
            self.rhs_rows = None
        self.pivots = []      # list of (row, col); value lives in self.rows
        self._pivot_rows = set()
        self._pivot_cols = set()

    # -- lazy identity vectors

    @staticmethod
    def _ident_get(store, key):
        vec = store.get(key)
        if vec is None:
            vec = {key: 1}
            store[key] = vec
        return vec

    @staticmethod
    def _vec_acc(dst: dict, src: dict, q: int):
        for k, v in src.items():
            nv = dst.get(k, 0) + q * v
            if nv:
                dst[k] = nv
            elif k in dst:
                del dst[k]

    def _ident_acc(self, store, dst_key, src_key, q):
        src = self._ident_get(store, src_key)
        dst = self._ident_get(store, dst_key)
        self._vec_acc(dst, src, q)

    # -- elementary row operations (matrix <- E @ matrix)

    def _row_add(self, dst: int, src: int, q: int):
        """row[dst] += q * row[src]."""
        rsrc = self.rows.get(src)
        if rsrc:
            rdst = self.rows.get(dst)
            if rdst is None:
                rdst = {}
                self.rows[dst] = rdst
            index = self.col_index
            for c, v in rsrc.items():
                nv = rdst.get(c, 0) + q * v
                if nv:
                    if c not in rdst:
                        index[c].add(dst)
                    rdst[c] = nv
                else:
                    if c in rdst:
                        del rdst[c]
                        index[c].discard(dst)
        if self.urows is not None:
            self._ident_acc(self.urows, dst, src, q)
        if self.uinv_cols is not None:
            # Uinv <- Uinv @ E^{-1}: col[src] -= q * col[dst]
            self._ident_acc(self.uinv_cols, src, dst, -q)
        if self.rhs_rows is not None:
            rs = self.rhs_rows.get(src)
            if rs:
                rd = self.rhs_rows.setdefault(dst, {})
                self._vec_acc(rd, rs, q)

    def _row_negate(self, r: int):
        row = self.rows.get(r)
        if row:
            for c in row:
                row[c] = -row[c]
        if self.urows is not None:
            u = self._ident_get(self.urows, r)
            for k in u:
                u[k] = -u[k]
        if self.uinv_cols is not None:
            u = self._ident_get(self.uinv_cols, r)
            for k in u:
                u[k] = -u[k]
        if self.rhs_rows is not None:
            row = self.rhs_rows.get(r)
            if row:
                for c in row:
                    row[c] = -row[c]

    def _rows_gcd(self, r1: int, r2: int, c: int):
        """Unimodular 2-row transform making entry (r1,c) = gcd and (r2,c) = 0."""
        a = self.rows[r1][c]
        b = self.rows[r2][c]
        x, y, g = xgcd(a, b)
        p, q = -(b // g), a // g        # [[x, y], [p, q]] has det 1
        row1 = dict(self.rows.get(r1, {}))
        row2 = dict(self.rows.get(r2, {}))
        self._set_row(r1, self._combine(row1, x, row2, y))
        self._set_row(r2, self._combine(row1, p, row2, q))
        if self.urows is not None:
            u1 = dict(self._ident_get(self.urows, r1))
            u2 = dict(self._ident_get(self.urows, r2))
            self.urows[r1] = self._combine(u1, x, u2, y)
            self.urows[r2] = self._combine(u1, p, u2, q)
        if self.uinv_cols is not None:
            # Uinv <- Uinv @ E^{-1}, E^{-1} = [[q, -y], [-p, x]]
            u1 = dict(self._ident_get(self.uinv_cols, r1))
            u2 = dict(self._ident_get(self.uinv_cols, r2))
            self.uinv_cols[r1] = self._combine(u1, q, u2, -p)
            self.uinv_cols[r2] = self._combine(u1, -y, u2, x)
        if self.rhs_rows is not None:
            h1 = dict(self.rhs_rows.get(r1, {}))
            h2 = dict(self.rhs_rows.get(r2, {}))
            self._set_plain(self.rhs_rows, r1, self._combine(h1, x, h2, y))
            self._set_plain(self.rhs_rows, r2, self._combine(h1, p, h2, q))

    @staticmethod
    def _combine(v1: dict, a: int, v2: dict, b: int) -> dict:
        out = {}
        for k, v in v1.items():
            nv = a * v
            if nv:
                out[k] = nv
        for k, v in v2.items():
            nv = out.get(k, 0) + b * v
            if nv:
                out[k] = nv
            elif k in out:
                del out[k]
        return out

    def _set_row(self, r: int, new_row: dict):
        old = self.rows.get(r, {})
        index = self.col_index
        for c in old:
            if c not in new_row:
                index[c].discard(r)
        for c in new_row:
            if c not in old:
                index.setdefault(c, set()).add(r)
        if new_row:
            self.rows[r] = new_row
        elif r in self.rows:
            del self.rows[r]

    @staticmethod
    def _set_plain(store, key, vec):
        if vec:
            store[key] = vec
        elif key in store:
            del store[key]

    # -- elementary column operations (matrix <- matrix @ E)

    def _col_add(self, dst: int, src: int, q: int):
        """col[dst] += q * col[src]."""
        src_rows = self.col_index.get(src)
        if src_rows:
            index = self.col_index
            for r in sorted(src_rows):
                row = self.rows[r]
                v = row[src]
                nv = row.get(dst, 0) + q * v
                if nv:
                    if dst not in row:
                        index.setdefault(dst, set()).add(r)
                    row[dst] = nv
                else:
                    if dst in row:
                        del row[dst]
                        index[dst].discard(r)
        if self.vcols is not None:
            self._ident_acc(self.vcols, dst, src, q)
        if self.vinv_rows is not None:
            # Vinv <- E^{-1} @ Vinv: row[src] -= q * row[dst]
            self._ident_acc(self.vinv_rows, src, dst, -q)

    # -- pivoting

    def _select_pivot(self, heap, single_rows, single_cols):
        rows, col_index = self.rows, self.col_index
        while single_rows:
            r = single_rows.pop()
            if r in self._pivot_rows:
                continue
            row = rows.get(r)
            if row and len(row) == 1:
                return r, next(iter(row))
        while single_cols:
            c = single_cols.pop()
            if c in self._pivot_cols:
                continue
            col = col_index.get(c)
            if col and len(col) == 1:
                return next(iter(col)), c
        while heap:
            k, c = heapq.heappop(heap)
            if c in self._pivot_cols:
                continue
            col = col_index.get(c)
            cur = len(col) if col else 0
            if cur == 0:
                continue
            if cur != k:
                heapq.heappush(heap, (cur, c))
                continue
            best = None
            for r in sorted(col):
                v = self.rows[r][c]
                key = (abs(v) != 1, len(self.rows[r]), r)
                if best is None or key < best[0]:
                    best = (key, r)
            return best[1], c
        return None

    def _process_pivot(self, r: int, c: int, single_rows, single_cols):
        """Clear one pivot position by Euclidean reduction.

        The pivot migrates to the entry of smallest absolute value in its
        column/row while clearing with floor-division quotients; this is
        the classical value-controlled scheme (remainders stay below the
        pivot), avoiding the coefficient explosion of xgcd combining.
        """
        rows, col_index = self.rows, self.col_index
        while True:
            # column phase: Euclid-reduce column c until only the pivot is left
            while True:
                col = col_index[c]
                if r not in col:
                    r = min(col)
                v_abs = abs(rows[r][c])
                if v_abs > 1:
                    r_best = min(col, key=lambda rr: (abs(rows[rr][c]),
                                                      len(rows.get(rr, ())), rr))
                    if abs(rows[r_best][c]) < v_abs:
                        r = r_best
                v = rows[r][c]
                others = sorted(col - {r})
                if not others:
                    break
                for r2 in others:
                    row2 = rows.get(r2)
                    if row2 is None:
                        continue
                    a = row2.get(c)
                    if a is None:
                        continue
                    q = a // v
                    if q:
                        self._row_add(r2, r, -q)
                    if r2 in rows and len(rows[r2]) == 1:
                        single_rows.append(r2)
            # row phase: col c is a singleton now, so column ops touch only row r
            row = rows[r]
            if len(row) == 1:
                break
            v = row[c]
            if abs(v) > 1:
                c_best = min(row, key=lambda cc: (abs(row[cc]), cc))
                if abs(row[c_best]) < abs(v):
                    # a strictly smaller value lives elsewhere in the row;
                    # migrate and re-clear its (possibly dirty) column
                    c = c_best
                    continue
            for c2 in sorted(set(row) - {c}):
                b = rows[r].get(c2)
                if b is None:
                    continue
                q = b // v
                if q:
                    self._col_add(c2, c, -q)
                col2 = col_index.get(c2)
                if col2 and len(col2) == 1:
                    single_cols.append(c2)
            row = rows[r]
            if len(row) == 1 and len(col_index.get(c, ())) == 1:
                break
        self.pivots.append((r, c))
        self._pivot_rows.add(r)
        self._pivot_cols.add(c)

    def diagonalize(self):
        single_rows = [r for r, row in self.rows.items() if len(row) == 1]
        single_cols = [c for c, col in self.col_index.items() if len(col) == 1]
        single_rows.sort(reverse=True)
        single_cols.sort(reverse=True)
        heap = [(len(col), c) for c, col in self.col_index.items() if col]
        heapq.heapify(heap)
        while True:
            pick = self._select_pivot(heap, single_rows, single_cols)
            if pick is None:
                # pivot migration can refill a column that already left the
                # heap; rescan before declaring the matrix diagonalized
                leftovers = [(len(col), c) for c, col in self.col_index.items()
                             if col and c not in self._pivot_cols]
                if not leftovers:
                    break
                heap = leftovers
                heapq.heapify(heap)
                continue
            r, c = pick
            self._process_pivot(r, c, single_rows, single_cols)
        return self

    def pivot_value(self, i: int) -> int:
        r, c = self.pivots[i]
        return self.rows[r][c]

    # -- canonicalization (signs, ordering, divisibility chain)

    def normalize_signs(self):
        for r, c in self.pivots:
            if self.rows[r][c] < 0:
                self._row_negate(r)

    def sort_pivots(self):
        self.pivots.sort(key=lambda rc: (abs(self.rows[rc[0]][rc[1]]), rc))

    def fix_divisibility(self):
        """Make pivot i divide pivot j for i < j (pivot list order)."""
        changed = True
        while changed:
            changed = False
            k = len(self.pivots)
            for i in range(k):
                ri, ci = self.pivots[i]
                a = self.rows[ri][ci]
                if a == 1:
                    continue
                for j in range(i + 1, k):
                    rj, cj = self.pivots[j]
                    b = self.rows[rj][cj]
                    if b % a == 0:
                        continue
                    # fold column j into column i and re-split as gcd/lcm
                    self._col_add(ci, cj, 1)
                    self._rows_gcd(ri, rj, ci)
                    leftover = self.rows[ri].get(cj, 0)
                    g = self.rows[ri][ci]
                    if leftover:
                        self._col_add(cj, ci, -(leftover // g))
                    a = self.rows[ri][ci]
                    changed = True
            if changed:
                self.sort_pivots()

    def canonicalize(self):
        """Signs, order and divisibility chain of the pivots, in place.

        Returns (row, d) for every pivot d other than 1, in chain order:
        the torsion of the cokernel is the sum of these Z/d.
        """
        self.normalize_signs()
        self.sort_pivots()
        self.fix_divisibility()
        return [(r, self.rows[r][c]) for r, c in self.pivots if self.rows[r][c] != 1]

    # -- extraction

    def kernel_columns(self):
        """Indices of non-pivot columns (they are zero after diagonalization)."""
        return [c for c in range(self.n) if c not in self._pivot_cols]

    def v_column(self, c: int) -> dict:
        if self.vcols is None:
            raise ValidationError("V was not tracked")
        return dict(self.vcols.get(c, {c: 1}))

    def u_row(self, r: int) -> dict:
        if self.urows is None:
            raise ValidationError("U was not tracked")
        return dict(self.urows.get(r, {r: 1}))

    def uinv_column(self, r: int) -> dict:
        if self.uinv_cols is None:
            raise ValidationError("Uinv was not tracked")
        return dict(self.uinv_cols.get(r, {r: 1}))


# ---------------------------------------------------------------------------
# Public operations built on the engine


def smith_normal_form(M: IntegerMatrix):
    """Smith normal form S = U @ M @ V with U, V unimodular.

    S is diagonal with d1 | d2 | ... and all d_i >= 0 (nonzero entries
    first).  Raises ResourceCapError when M exceeds the entry budget.
    """
    elim = _Elim(M, track_v=True, track_u=True).diagonalize()
    elim.canonicalize()

    k = len(elim.pivots)
    # permutations completing pivot order to full row/col orderings
    row_order = [r for r, _ in elim.pivots] + sorted(set(range(M.rows)) - elim._pivot_rows)
    col_order = [c for _, c in elim.pivots] + sorted(set(range(M.cols)) - elim._pivot_cols)
    s_entries = {(i, i): elim.pivot_value(i) for i in range(k)}
    S = IntegerMatrix(M.rows, M.cols, s_entries)

    u_entries = {}
    for i, r in enumerate(row_order):
        for c, v in elim.u_row(r).items():
            u_entries[(i, c)] = v
    U = IntegerMatrix(M.rows, M.rows, u_entries)

    v_entries = {}
    for j, c in enumerate(col_order):
        for r, v in elim.v_column(c).items():
            v_entries[(r, j)] = v
    V = IntegerMatrix(M.cols, M.cols, v_entries)
    return S, U, V


def cokernel(M: IntegerMatrix) -> FinAbGroup:
    """Canonical form of Z^rows / column-span(M)."""
    elim = _Elim(M).diagonalize()
    factors = [elim.pivot_value(i) for i in range(len(elim.pivots))]
    free = M.rows - len(factors)
    return FinAbGroup.from_factors(factors, free_rank=free)


def kernel_basis(M: IntegerMatrix) -> IntegerMatrix:
    """Columns form a basis of the integer kernel lattice of M.

    They are the V columns at the non-pivot columns of one elimination
    M @ V = diag, the only transform tracked.
    """
    elim = _Elim(M, track_v=True).diagonalize()
    return IntegerMatrix.from_columns(
        M.cols, (elim.v_column(c) for c in elim.kernel_columns()))


# ---------------------------------------------------------------------------
# Subquotients of Z^n (homology of a two-step complex, with optional modulus)


class _CycleSolver:
    """The kernel lattice of M into Z^rows / diag(moduli), read off one elimination.

    moduli[r] is the relation order of row r (0 for a Z row).  One
    elimination of M augmented by moduli[r] * e_r for each nonzero modulus,
    tracking V and V^-1, gives a basis of the lattice
    {x : M @ x = 0 in Z^rows / diag(moduli)} (cycle_basis), coordinates in
    that basis (coords: sparse matrix-vector work), and, from the same
    pivots, the cokernel Z^rows / (im M + diag(moduli)).  This is the cycle
    lattice of homology_at and the kernel lattice of a map of abelian groups.
    """

    def __init__(self, M: IntegerMatrix, moduli):
        self.M = M
        self.moduli = moduli
        self.ambient = M.cols
        extra = [r for r, m in enumerate(moduli) if m]
        self._slot = {r: M.cols + j for j, r in enumerate(extra)}
        aug = M
        if extra:
            aug = M.hstack(IntegerMatrix(
                M.rows, len(extra), {(r, j): moduli[r] for j, r in enumerate(extra)}))
        elim = _Elim(aug, track_v=True, track_vinv=True).diagonalize()
        self._rank = len(elim.pivots)
        self._torsion = [elim.rows[r][c] for r, c in elim.pivots if abs(elim.rows[r][c]) != 1]
        kernel_cols = elim.kernel_columns()
        cols = []
        for c in kernel_cols:
            full = elim.v_column(c)
            cols.append({r: v for r, v in full.items() if r < self.ambient})
        self.cycle_basis = IntegerMatrix.from_columns(self.ambient, cols)
        # column-major extractor: coord_cols[k][i] = Vinv[kernel_cols[i]][k],
        # so coords(v) = sum_k v[k] * coord_cols[k] runs in sparse time
        coord_cols = {}
        vinv = elim.vinv_rows
        for i, c in enumerate(kernel_cols):
            row = vinv.get(c, {c: 1})
            for k, coeff in row.items():
                coord_cols.setdefault(k, {})[i] = coeff
        self._coord_cols = coord_cols

    def cokernel(self) -> FinAbGroup:
        """Z^rows / (im M + diag(moduli)), from the pivots of the same elimination."""
        return FinAbGroup.from_factors(self._torsion, self.M.rows - self._rank)

    def _in_lattice(self, img: dict) -> bool:
        moduli = self.moduli
        return all(moduli[r] and v % moduli[r] == 0 for r, v in img.items())

    def contains(self, vec: dict) -> bool:
        return self._in_lattice(self.M.apply(vec))

    def coords(self, vec: dict) -> dict:
        """Coordinates in the lattice basis; raises if vec is not in the lattice."""
        img = self.M.apply(vec)
        if not self._in_lattice(img):
            raise NotChainCompatibleError("vector is not a cycle")
        full = dict(vec)
        for r, v in img.items():
            full[self._slot[r]] = -(v // self.moduli[r])
        out = {}
        coord_cols = self._coord_cols
        for k, fv in full.items():
            col = coord_cols.get(k)
            if not col:
                continue
            for i, coeff in col.items():
                nv = out.get(i, 0) + coeff * fv
                if nv:
                    out[i] = nv
                elif i in out:
                    del out[i]
        return out


@dataclass(frozen=True)
class Subquotient:
    """ker(d_out) / im(d_in) inside Z^ambient_dim, with canonical quotient.

    lifts[i] is an ambient integer vector representing the i-th canonical
    generator of the quotient (torsion generators first, then free).
    """

    ambient_dim: int
    cycle_basis: IntegerMatrix
    boundary_basis: IntegerMatrix
    quotient: FinAbGroup
    lifts: tuple
    _solver: object = None     # cycle test and cycle coordinates
    _reduce_rows: tuple = ()   # cycle coordinates -> quotient, one row per generator

    def contains_cycle(self, vec: dict) -> bool:
        return self._solver.contains(vec)

    def reduce(self, vec: dict) -> tuple:
        """Quotient coordinates of an ambient cycle vector.

        Torsion coordinates are canonical residues in [0, d); free
        coordinates are exact integers.
        """
        y = self._solver.coords(vec)
        orders = self.quotient.relation_orders()
        out = []
        for row, d in zip(self._reduce_rows, orders):
            s = 0
            for k, coeff in row.items():
                yv = y.get(k)
                if yv:
                    s += coeff * yv
            out.append(s % d if d else s)
        return tuple(out)

    def lift_of(self, coords) -> dict:
        """An ambient cycle representing the class with given coordinates."""
        out = {}
        for coeff, lift in zip(coords, self.lifts):
            if coeff:
                for r, v in lift.items():
                    nv = out.get(r, 0) + coeff * v
                    if nv:
                        out[r] = nv
                    elif r in out:
                        del out[r]
        return out


def _check_chain(d_out: IntegerMatrix, d_in: IntegerMatrix, modulus: int) -> None:
    """Raise ChainCompositionError unless d_out @ d_in == 0 (mod modulus).

    Every entry of the product is checked exactly, one column at a time
    (the column of d_out @ d_in at j is the sum of d_in[k, j] times column
    k of d_out), so the product is never held as a whole.
    """
    if d_out.cols != d_in.rows:
        raise ChainCompositionError(
            f"dimension mismatch: d_out has {d_out.cols} columns, d_in has {d_in.rows} rows")
    if modulus < 0:
        raise ValidationError("modulus must be >= 0")
    out_cols = d_out.col_view()
    for col in d_in.col_view().values():
        acc = {}
        for k, v in col.items():
            for r, w in out_cols.get(k, {}).items():
                acc[r] = acc.get(r, 0) + v * w
        if modulus:
            bad = any(x % modulus for x in acc.values())
        else:
            bad = any(acc.values())
        if bad:
            raise ChainCompositionError("d_out @ d_in != 0")


def homology_at(d_out: IntegerMatrix, d_in: IntegerMatrix, modulus: int = 0) -> Subquotient:
    """Subquotient ker(d_out)/im(d_in) of Z^n, or of (Z/modulus)^n when modulus > 0.

    Verifies d_out @ d_in == 0 (mod modulus) first; a nonzero composition
    signals a bug in differential assembly and raises ChainCompositionError.
    """
    _check_chain(d_out, d_in, modulus)

    ambient = d_out.cols
    solver = _CycleSolver(d_out, (modulus,) * d_out.rows)
    K = solver.cycle_basis
    if modulus:
        boundaries = d_in.hstack(IntegerMatrix(
            ambient, ambient, {(i, i): modulus for i in range(ambient)}))
    else:
        boundaries = d_in

    # coordinates of the boundary generators in the cycle basis
    xcols = []
    bview = boundaries.col_view()
    for j in range(boundaries.cols):
        col = bview.get(j, {})
        try:
            xcols.append(solver.coords(col))
        except NotChainCompatibleError:
            raise ChainCompositionError("boundary generator is not a cycle")
    k = K.cols
    X = IntegerMatrix.from_columns(k, xcols)

    elim = _Elim(X, track_u=True, track_uinv=True).diagonalize()
    torsion = elim.canonicalize()
    free_rows = sorted(set(range(k)) - {r for r, _ in elim.pivots})
    quotient = FinAbGroup(len(free_rows), tuple(d for _, d in torsion))

    reduce_rows = []
    lifts = []
    for r in [r for r, _ in torsion] + free_rows:
        reduce_rows.append(elim.u_row(r))
        ycol = elim.uinv_column(r)
        lift = {}
        for c, coeff in ycol.items():
            for rr, v in K.col_view().get(c, {}).items():
                nv = lift.get(rr, 0) + coeff * v
                if nv:
                    lift[rr] = nv
                elif rr in lift:
                    del lift[rr]
        lifts.append(lift)

    return Subquotient(
        ambient_dim=ambient,
        cycle_basis=K,
        boundary_basis=boundaries,
        quotient=quotient,
        lifts=tuple(lifts),
        _solver=solver,
        _reduce_rows=tuple(reduce_rows),
    )


class _CycleCheck:
    """Cycles of d_out in ambient coordinates, checked but never eliminated."""

    def __init__(self, d_out: IntegerMatrix):
        self.d_out = d_out

    def contains(self, vec: dict) -> bool:
        return not self.d_out.apply(vec)

    def coords(self, vec: dict) -> dict:
        if not self.contains(vec):
            raise NotChainCompatibleError("vector is not a cycle")
        return vec


def finite_homology_at(d_out: IntegerMatrix, d_in: IntegerMatrix) -> Subquotient:
    """ker(d_out)/im(d_in) over Z, for a complex whose homology here is finite.

    Finite homology makes ker(d_out) the saturation of im(d_in): if t*v
    lies in im(d_in) for some t != 0, then t * (d_out @ v) = 0 and v is
    already a cycle.  The homology is then the torsion of coker(d_in), read
    off one elimination U @ d_in @ V = diag of d_in alone: the invariant
    factors are the pivots other than 1, a cycle's coordinates are its
    U rows at those pivots, and the U^-1 columns at the pivot rows span the
    cycles.  d_out is only checked (d_out @ d_in == 0, its entry count
    against the resource cap), never eliminated.  Finiteness is the
    caller's promise; nothing here can detect a free part.
    """
    _check_chain(d_out, d_in, 0)
    check_cap(d_out.nnz, "matrix nonzeros")
    elim = _Elim(d_in, track_u=True, track_uinv=True).diagonalize()
    torsion = elim.canonicalize()
    gen_rows = [r for r, _ in torsion]
    cycles = IntegerMatrix.from_columns(
        d_in.rows, (elim.uinv_column(r) for r, _ in elim.pivots))
    return Subquotient(
        ambient_dim=d_in.rows,
        cycle_basis=cycles,
        boundary_basis=d_in,
        quotient=FinAbGroup(0, tuple(d for _, d in torsion)),
        lifts=tuple(elim.uinv_column(r) for r in gen_rows),
        _solver=_CycleCheck(d_out),
        _reduce_rows=tuple(elim.u_row(r) for r in gen_rows),
    )


# ---------------------------------------------------------------------------
# Maps of finitely generated abelian groups


class AbGroupMap:
    """A homomorphism between canonical-form abelian groups.

    The matrix acts on generator coordinates (target gens x source gens,
    generator order: torsion then free).  Well-definedness (each source
    relation lands in the target relation lattice) is checked on
    construction.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: FinAbGroup, target: FinAbGroup, matrix: IntegerMatrix):
        if matrix.rows != target.num_generators or matrix.cols != source.num_generators:
            raise ValidationError("matrix shape does not match generator counts")
        src_orders = source.relation_orders()
        dst_orders = target.relation_orders()
        for j, d in enumerate(src_orders):
            if d == 0:
                continue
            for i, e in enumerate(dst_orders):
                val = d * matrix.get(i, j)
                if e == 0:
                    if val != 0:
                        raise ValidationError("map does not respect relations")
                elif val % e != 0:
                    raise ValidationError("map does not respect relations")
        self.source = source
        self.target = target
        self.matrix = matrix

    @classmethod
    def from_rows(cls, source, target, rows) -> "AbGroupMap":
        return cls(source, target, IntegerMatrix.from_rows(rows))

    @classmethod
    def identity(cls, group: FinAbGroup) -> "AbGroupMap":
        return cls(group, group, IntegerMatrix.identity(group.num_generators))

    @classmethod
    def zero(cls, source: FinAbGroup, target: FinAbGroup) -> "AbGroupMap":
        return cls(source, target,
                   IntegerMatrix(target.num_generators, source.num_generators))

    def compose(self, inner: "AbGroupMap") -> "AbGroupMap":
        """self after inner (self.source must equal inner.target)."""
        if inner.target != self.source:
            raise ValidationError("composition mismatch")
        return AbGroupMap(inner.source, self.target, self.matrix @ inner.matrix)

    def apply(self, coords) -> tuple:
        vec = {i: v for i, v in enumerate(coords) if v}
        img = self.matrix.apply(vec)
        orders = self.target.relation_orders()
        return tuple((img.get(i, 0) % d) if d else img.get(i, 0)
                     for i, d in enumerate(orders))

    def __eq__(self, other) -> bool:
        if not isinstance(other, AbGroupMap):
            return False
        if self.source != other.source or self.target != other.target:
            return False
        orders = self.target.relation_orders()
        for i, d in enumerate(orders):
            for j in range(self.source.num_generators):
                diff = self.matrix.get(i, j) - other.matrix.get(i, j)
                if (diff % d if d else diff) != 0:
                    return False
        return True

    def __hash__(self):
        raise TypeError("AbGroupMap is unhashable")

    def __repr__(self):
        return f"AbGroupMap({self.source} -> {self.target})"


def _map_solver(f: AbGroupMap) -> _CycleSolver:
    """The kernel lattice {x in Z^s : f(x) = 0 in target} and coker(f)."""
    return _CycleSolver(f.matrix, f.target.relation_orders())


def _kills_only_relations(solver: _CycleSolver, source: FinAbGroup) -> bool:
    """Is every kernel lattice vector zero in the source?"""
    orders = source.relation_orders()
    return all((v % orders[r] if orders[r] else v) == 0
               for (r, _), v in solver.cycle_basis.entries.items())


def is_injective(f: AbGroupMap) -> bool:
    return _kills_only_relations(_map_solver(f), f.source)


def is_surjective(f: AbGroupMap) -> bool:
    return _map_solver(f).cokernel().is_trivial


def cokernel_of_map(f: AbGroupMap) -> FinAbGroup:
    return _map_solver(f).cokernel()


def image_group(f: AbGroupMap) -> FinAbGroup:
    """The image of f, as an abstract group (source modulo kernel lattice)."""
    return cokernel(_map_solver(f).cycle_basis)


def kernel_group(f: AbGroupMap) -> FinAbGroup:
    """The kernel of f as an abstract group: kernel lattice modulo source relations.

    The source relations d_i * e_i lie in the kernel lattice; their
    coordinates in its basis are read off the one elimination of
    _CycleSolver, and the kernel is the cokernel of those columns.
    """
    solver = _map_solver(f)
    rel = [solver.coords({i: d}) for i, d in enumerate(f.source.invariant_factors)]
    return cokernel(IntegerMatrix.from_columns(solver.cycle_basis.cols, rel))


def is_split_injection(f: AbGroupMap) -> bool:
    """Does some g: target -> source satisfy g o f = id?

    Exactly when f is injective and target = source + coker(f) in
    canonical form: a split injection gives that sum, and by Miyata's
    theorem (a short exact sequence 0 -> A -> B -> C -> 0 of finitely
    generated modules over a Noetherian ring with B = A + C splits) the
    sum gives a retraction.  Both are read off one elimination: the
    kernel lattice and the cokernel of _CycleSolver.
    """
    solver = _map_solver(f)
    return (_kills_only_relations(solver, f.source)
            and f.target == f.source.direct_sum(solver.cokernel()))


# ---------------------------------------------------------------------------
# Induced maps on subquotients


def induced_map(f_ambient: IntegerMatrix, src: Subquotient, dst: Subquotient) -> AbGroupMap:
    """The map on quotients induced by an ambient chain-compatible map.

    Verifies that f_ambient sends cycles to cycles and boundaries to
    boundaries; raises NotChainCompatibleError otherwise.  A boundary
    generator's image is checked by reducing it in dst: on both homology
    routes a cycle is a boundary exactly when its class is 0.
    """
    if f_ambient.cols != src.ambient_dim or f_ambient.rows != dst.ambient_dim:
        raise NotChainCompatibleError("ambient dimensions do not match")

    # cycles -> cycles
    cview = src.cycle_basis.col_view()
    for j in range(src.cycle_basis.cols):
        img = f_ambient.apply(cview.get(j, {}))
        if not dst.contains_cycle(img):
            raise NotChainCompatibleError("cycles are not carried to cycles")

    # boundaries -> boundaries
    bview = src.boundary_basis.col_view()
    for j in range(src.boundary_basis.cols):
        if any(dst.reduce(f_ambient.apply(bview.get(j, {})))):
            raise NotChainCompatibleError("boundaries are not carried to boundaries")

    rows = dst.quotient.num_generators
    cols = src.quotient.num_generators
    entries = {}
    for j, lift in enumerate(src.lifts):
        img = f_ambient.apply(lift)
        coords = dst.reduce(img)
        for i, v in enumerate(coords):
            if v:
                entries[(i, j)] = v
    return AbGroupMap(src.quotient, dst.quotient, IntegerMatrix(rows, cols, entries))
