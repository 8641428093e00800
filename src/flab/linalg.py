"""Exact dense linear algebra over the coefficient rings.

Matrices are immutable, stored row-major as tuples of RingElem.  Everything
runs over an arbitrary ring from flab.rings; algorithms that need more than
ring arithmetic use the local-ring structure explicitly.

RingElem appears only at the API.  The public constructor coerces and checks
every entry of outside input once; the hot kernels (matrix product, inverse,
kernel_gens) unwrap the entries to raw ring data, run on the ring's
``_add``/``_sub``/``_mul``, and wrap their result once through the trusted
``Matrix._from_data``, which skips the per-entry checks.

* inverse()       Gauss-Jordan with unit pivots (a square matrix over a local
                  ring is invertible iff that succeeds).
* kernel_gens()   generating set of the right kernel via valuation-pivot
                  elimination; over a residue field this is a basis.
"""

from __future__ import annotations

from .errors import InvalidInput, RingMismatch
from .rings import RingElem


def _coerce_entry(ring, value):
    if isinstance(value, RingElem):
        if value.ring != ring:
            raise RingMismatch(f"entry from {value.ring} in a matrix over {ring}")
        return value
    if isinstance(value, int):
        return ring.from_int(value)
    raise InvalidInput(f"cannot use {value!r} as a matrix entry")


class Matrix:
    __slots__ = ("ring", "nrows", "ncols", "rows")

    def __init__(self, ring, rows, ncols=None):
        rows = [tuple(_coerce_entry(ring, x) for x in row) for row in rows]
        if rows:
            ncols_seen = len(rows[0])
            if any(len(row) != ncols_seen for row in rows):
                raise InvalidInput("ragged matrix rows")
            if ncols is not None and ncols != ncols_seen:
                raise InvalidInput("ncols does not match row length")
            ncols = ncols_seen
        elif ncols is None:
            raise InvalidInput("empty matrix needs an explicit ncols")
        self.ring = ring
        self.nrows = len(rows)
        self.ncols = ncols
        self.rows = tuple(rows)

    @classmethod
    def _from_data(cls, ring, rows, ncols):
        """Wrap rows of raw data already valid in ring; no coercion or checks."""
        self = object.__new__(cls)
        self.ring = ring
        self.nrows = len(rows)
        self.ncols = ncols
        self.rows = tuple(tuple(RingElem(ring, x) for x in row) for row in rows)
        return self

    def _data_rows(self):
        return [[x.data for x in row] for row in self.rows]

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, ring, nrows, ncols):
        z = ring.zero
        return cls(ring, [[z] * ncols for _ in range(nrows)], ncols=ncols)

    @classmethod
    def identity(cls, ring, n):
        z, o = ring.zero, ring.one
        return cls(ring, [[o if i == j else z for j in range(n)] for i in range(n)], ncols=n)

    @classmethod
    def diagonal(cls, ring, entries):
        entries = [_coerce_entry(ring, x) for x in entries]
        n = len(entries)
        z = ring.zero
        return cls(
            ring,
            [[entries[i] if i == j else z for j in range(n)] for i in range(n)],
            ncols=n,
        )

    @classmethod
    def permutation(cls, ring, perm):
        """P with P e_j = e_{perm[j]}."""
        n = len(perm)
        if sorted(perm) != list(range(n)):
            raise InvalidInput(f"{perm!r} is not a permutation")
        z, o = ring.zero, ring.one
        rows = [[z] * n for _ in range(n)]
        for j, i in enumerate(perm):
            rows[i][j] = o
        return cls(ring, rows, ncols=n)

    @classmethod
    def from_cols(cls, ring, cols, nrows=None):
        cols = list(cols)
        if not cols:
            if nrows is None:
                raise InvalidInput("empty matrix needs an explicit nrows")
            return cls(ring, [[] for _ in range(nrows)], ncols=0)
        nrows = len(cols[0])
        return cls(ring, [[col[i] for col in cols] for i in range(nrows)], ncols=len(cols))

    # -- access ----------------------------------------------------------------

    def __getitem__(self, key):
        i, j = key
        return self.rows[i][j]

    def row(self, i):
        return self.rows[i]

    def col(self, j):
        return tuple(row[j] for row in self.rows)

    def cols(self):
        return [self.col(j) for j in range(self.ncols)]

    def entries(self):
        for row in self.rows:
            yield from row

    # -- algebra -----------------------------------------------------------------

    def _same_shape(self, other):
        if not isinstance(other, Matrix):
            raise InvalidInput("expected a matrix")
        if self.ring != other.ring:
            raise RingMismatch("matrices over different rings")
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise InvalidInput("matrix shapes differ")

    def __add__(self, other):
        self._same_shape(other)
        return Matrix(
            self.ring,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
            ncols=self.ncols,
        )

    def __sub__(self, other):
        self._same_shape(other)
        return Matrix(
            self.ring,
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
            ncols=self.ncols,
        )

    def __neg__(self):
        return Matrix(self.ring, [[-a for a in row] for row in self.rows], ncols=self.ncols)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ring != other.ring:
                raise RingMismatch("matrices over different rings")
            if self.ncols != other.nrows:
                raise InvalidInput("inner dimensions differ")
            ring = self.ring
            add, mul = ring._add, ring._mul
            zero = ring.zero.data
            bcols = [[row[j].data for row in other.rows] for j in range(other.ncols)]
            out = []
            for row in self._data_rows():
                nonzero = [(k, a) for k, a in enumerate(row) if a != zero]
                out_row = []
                for col in bcols:
                    acc = zero
                    for k, a in nonzero:
                        b = col[k]
                        if b != zero:
                            acc = add(acc, mul(a, b))
                    out_row.append(acc)
                out.append(out_row)
            return Matrix._from_data(ring, out, other.ncols)
        scalar = _coerce_entry(self.ring, other)
        return Matrix(
            self.ring, [[a * scalar for a in row] for row in self.rows], ncols=self.ncols
        )

    def __rmul__(self, other):
        scalar = _coerce_entry(self.ring, other)
        return Matrix(
            self.ring, [[scalar * a for a in row] for row in self.rows], ncols=self.ncols
        )

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.ring == other.ring
            and (self.nrows, self.ncols) == (other.nrows, other.ncols)
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ring, self.rows, self.ncols))

    def __repr__(self):
        body = "; ".join(
            " ".join(str(self.ring.encode(a)) for a in row) for row in self.rows
        )
        return f"Matrix({self.nrows}x{self.ncols} over {self.ring!r}: {body})"

    def transpose(self):
        return Matrix(
            self.ring,
            [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
            ncols=self.nrows,
        )

    def map(self, fn, ring=None):
        """Entrywise transform; fn returns elements of ring (default: same)."""
        ring = ring if ring is not None else self.ring
        return Matrix(ring, [[fn(a) for a in row] for row in self.rows], ncols=self.ncols)

    def matvec(self, vec):
        if len(vec) != self.ncols:
            raise InvalidInput("vector length differs from ncols")
        zero = self.ring.zero
        out = []
        for row in self.rows:
            acc = zero
            for a, v in zip(row, vec):
                if a and v:
                    acc = acc + a * v
            out.append(acc)
        return tuple(out)

    def kron(self, other):
        """Kronecker product: result[i*or + k, j*oc + l] = self[i,j] * other[k,l]."""
        if self.ring != other.ring:
            raise RingMismatch("matrices over different rings")
        out = []
        for arow in self.rows:
            for brow in other.rows:
                out.append([a * b for a in arow for b in brow])
        return Matrix(self.ring, out, ncols=self.ncols * other.ncols)

    # -- inversion ------------------------------------------------------------

    def inverse(self, error=None):
        """Gauss-Jordan inverse with unit pivots.

        Over a local ring the matrix is invertible iff every column admits a
        unit pivot; otherwise `error` (or InvalidInput) is raised.
        """
        if self.nrows != self.ncols:
            raise InvalidInput("inverse of a non-square matrix")
        ring = self.ring
        sub, mul = ring._sub, ring._mul
        n = self.nrows
        zero, one = ring.zero.data, ring.one.data
        work = [
            row + [one if j == i else zero for j in range(n)]
            for i, row in enumerate(self._data_rows())
        ]
        for j in range(n):
            pivot_row = None
            for i in range(j, n):
                if ring._is_unit(work[i][j]):
                    pivot_row = i
                    break
            if pivot_row is None:
                raise error if error is not None else InvalidInput(
                    "matrix is not invertible"
                )
            work[j], work[pivot_row] = work[pivot_row], work[j]
            inv_p = ring.inv(RingElem(ring, work[j][j])).data
            work[j] = [mul(inv_p, a) for a in work[j]]
            for i in range(n):
                c = work[i][j]
                if i != j and c != zero:
                    work[i] = [
                        sub(a, mul(c, b)) if b != zero else a
                        for a, b in zip(work[i], work[j])
                    ]
        return Matrix._from_data(ring, [row[n:] for row in work], n)

    def is_invertible(self):
        try:
            self.inverse()
        except InvalidInput:
            return False
        return True

    # -- kernels ----------------------------------------------------------------

    def kernel_gens(self):
        """Generating set of {x : self @ x = 0} as a tuple of column vectors.

        Valuation-pivot elimination (Smith-style): row operations leave the
        kernel alone, column operations are mirrored on an invertible W with
        ker(self) = W ker(reduced).  Over a field the result is a basis.
        """
        ring = self.ring
        sub, mul = ring._sub, ring._mul
        zero, one = ring.zero.data, ring.one.data
        n_ideal = ring.level
        B = self._data_rows()
        W = [[one if j == i else zero for j in range(self.ncols)] for i in range(self.ncols)]
        free_rows = set(range(self.nrows))
        free_cols = set(range(self.ncols))
        pivot_val = {}
        while True:
            best = None
            best_val = n_ideal
            for i in free_rows:
                for j in free_cols:
                    x = B[i][j]
                    if x != zero:
                        v = ring._val(x)
                        if v < best_val:
                            best, best_val = (i, j), v
                            if v == 0:
                                break
                if best_val == 0:
                    break
            if best is None:
                break
            pi, pj = best
            pivot = RingElem(ring, B[pi][pj])
            # a unit pivot is inverted once; a non-unit one divides exactly
            inv_p = ring.inv(pivot).data if best_val == 0 else None

            def quotient(x):
                if inv_p is None:
                    return ring.divide(RingElem(ring, x), pivot).data
                return mul(x, inv_p)

            # clear the pivot column with row operations
            for i in range(self.nrows):
                if i != pi and B[i][pj] != zero:
                    q = quotient(B[i][pj])
                    B[i] = [
                        sub(a, mul(q, b)) if b != zero else a
                        for a, b in zip(B[i], B[pi])
                    ]
            # clear the pivot row with column operations, mirrored on W
            for j in range(self.ncols):
                if j != pj and B[pi][j] != zero:
                    q = quotient(B[pi][j])
                    for M in (B, W):
                        for row in M:
                            if row[pj] != zero:
                                row[j] = sub(row[j], mul(q, row[pj]))
            free_rows.discard(pi)
            free_cols.discard(pj)
            pivot_val[pj] = best_val
        gens = []
        for j in range(self.ncols):
            col = [row[j] for row in W]
            if j in pivot_val:
                d = pivot_val[j]
                if d == 0:
                    continue
                scale = ring.pi_pow(n_ideal - d).data
                col = [mul(scale, x) for x in col]
            gens.append(tuple(RingElem(ring, x) for x in col))
        return tuple(gens)

    def rank_field(self):
        """Rank over a residue field (pivot count of the elimination)."""
        if not self.ring.is_field():
            raise InvalidInput("rank_field needs a field")
        return self.ncols - len(self.kernel_gens())

