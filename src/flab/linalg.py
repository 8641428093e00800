"""Exact dense linear algebra over the coefficient rings.

Matrices are immutable and hold raw ring data: one private row-major tuple
of rows of the ring's data tuples.  Everything runs over an arbitrary ring
from flab.rings; algorithms that need more than ring arithmetic use the
local-ring structure explicitly.

RingElem appears only at the API edge.  The public constructor coerces and
checks every entry of outside input once; the accessors (``rows``,
``m[i, j]``, ``row``, ``col``, ``cols``, ``entries``) wrap entries on the way
out.  Arithmetic, transpose, kron, comparison and the eliminations run on
the ring's ``_add``/``_sub``/``_mul`` and build their result through the
trusted ``Matrix._from_data``, which skips the per-entry checks.

One division-free Gauss-Jordan with unit pivots, _gauss_jordan, serves four
callers, none of which returns a basis:

* inverse()       on [A | I], then one inversion per pivot (a square matrix
                  over a local ring is invertible iff every column has one).
* is_invertible() the same verdict from the pivot count over the residue field
                  (Nakayama's lemma); nothing is inverted.
* rank_field()    the pivot count over a residue field.
* lifting._solve_full_row_rank, on [T | rhs], then one inversion per pivot.

is_invertible() and rank_field() run it forward only: they count pivots, so
the rows above each pivot are left unreduced.

_form(X, G, Y) gives the raw rows of the bilinear form X^T G Y without the
general product, skipping the zero entries of G and X: against a unit
multiple of the standard form, G Y takes r^2 products at most and X^T (G Y)
r^3; with upper=True only the entries on and above the diagonal are formed.
Its callers are pairing.validate_pairing (the Φ-compatibility check, upper),
pairing.change_basis (the new Gram V^T G V) and
lifting.build_correction_system (the defect C^T S C).

kernel_gens() is the one other elimination: a valuation-pivot sweep whose
column operations give the torsion generators of the right kernel over W/p^n
and k[t]/t^n.  Over a residue field its result is the basis read off the
reduced echelon form: 1 at one free column, 0 at the others.
"""

from __future__ import annotations

from .errors import InvalidInput, RingMismatch
from .rings import RingElem


def _coerce_entry(ring, value):
    """Raw data of a matrix entry given as a RingElem of ring or an int."""
    if isinstance(value, RingElem):
        if value.ring != ring:
            raise RingMismatch(f"entry from {value.ring} in a matrix over {ring}")
        return value.data
    if isinstance(value, int):
        return ring.from_int(value).data
    raise InvalidInput(f"cannot use {value!r} as a matrix entry")


class Matrix:
    __slots__ = ("ring", "nrows", "ncols", "_raw")

    def __init__(self, ring, rows, ncols=None):
        raw = [tuple(_coerce_entry(ring, x) for x in row) for row in rows]
        if raw:
            ncols_seen = len(raw[0])
            if any(len(row) != ncols_seen for row in raw):
                raise InvalidInput("ragged matrix rows")
            if ncols is not None and ncols != ncols_seen:
                raise InvalidInput("ncols does not match row length")
            ncols = ncols_seen
        elif ncols is None:
            raise InvalidInput("empty matrix needs an explicit ncols")
        self.ring = ring
        self.nrows = len(raw)
        self.ncols = ncols
        self._raw = tuple(raw)

    @classmethod
    def _from_data(cls, ring, rows, ncols):
        """Matrix over a list of rows of raw data already valid in ring; no
        coercion or checks."""
        self = object.__new__(cls)
        self.ring = ring
        self.nrows = len(rows)
        self.ncols = ncols
        self._raw = tuple(map(tuple, rows))
        return self

    def _map_data(self, fn, ring=None):
        """Entrywise transform of the raw data; fn returns data of ring."""
        ring = self.ring if ring is None else ring
        return Matrix._from_data(ring, [[fn(x) for x in row] for row in self._raw], self.ncols)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, ring, nrows, ncols):
        z = ring.zero.data
        return cls._from_data(ring, [[z] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, ring, n):
        z, o = ring.zero.data, ring.one.data
        return cls._from_data(ring, [[o if i == j else z for j in range(n)] for i in range(n)], n)

    @classmethod
    def diagonal(cls, ring, entries):
        entries = [_coerce_entry(ring, x) for x in entries]
        n = len(entries)
        z = ring.zero.data
        return cls._from_data(
            ring, [[entries[i] if i == j else z for j in range(n)] for i in range(n)], n
        )

    @classmethod
    def permutation(cls, ring, perm):
        """P with P e_j = e_{perm[j]}."""
        n = len(perm)
        if sorted(perm) != list(range(n)):
            raise InvalidInput(f"{perm!r} is not a permutation")
        z, o = ring.zero.data, ring.one.data
        rows = [[z] * n for _ in range(n)]
        for j, i in enumerate(perm):
            rows[i][j] = o
        return cls._from_data(ring, rows, n)

    # -- access ----------------------------------------------------------------

    @property
    def rows(self):
        return tuple(self.row(i) for i in range(self.nrows))

    def __getitem__(self, key):
        i, j = key
        return RingElem(self.ring, self._raw[i][j])

    def row(self, i):
        ring = self.ring
        return tuple(RingElem(ring, x) for x in self._raw[i])

    def col(self, j):
        ring = self.ring
        return tuple(RingElem(ring, row[j]) for row in self._raw)

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
        add = self.ring._add
        return Matrix._from_data(
            self.ring,
            [[add(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(self._raw, other._raw)],
            self.ncols,
        )

    def __sub__(self, other):
        self._same_shape(other)
        sub = self.ring._sub
        return Matrix._from_data(
            self.ring,
            [[sub(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(self._raw, other._raw)],
            self.ncols,
        )

    def __neg__(self):
        sub = self.ring._sub
        zero = self.ring.zero.data
        return self._map_data(lambda a: sub(zero, a))

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ring != other.ring:
                raise RingMismatch("matrices over different rings")
            if self.ncols != other.nrows:
                raise InvalidInput("inner dimensions differ")
            ring = self.ring
            add, mul = ring._add, ring._mul
            zero = ring.zero.data
            bcols = list(zip(*other._raw)) if other.nrows else [()] * other.ncols
            out = []
            for row in self._raw:
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
        return self._scaled(other)

    def __rmul__(self, other):
        return self._scaled(other)

    def _scaled(self, scalar):
        s = _coerce_entry(self.ring, scalar)
        if s == self.ring.one.data:
            return self  # immutable, and ω = 1 or c = 1 is the common case
        mul = self.ring._mul
        zero = self.ring.zero.data
        # c * 0 = 0 in every ring, so zero entries are kept as they are
        return Matrix._from_data(
            self.ring,
            [[mul(a, s) if a != zero else a for a in row] for row in self._raw],
            self.ncols,
        )

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.ring == other.ring
            and (self.nrows, self.ncols) == (other.nrows, other.ncols)
            and self._raw == other._raw
        )

    def __hash__(self):
        return hash((self.ring, self._raw, self.ncols))

    def __repr__(self):
        body = "; ".join(
            " ".join(str(self.ring.encode(a)) for a in row) for row in self.rows
        )
        return f"Matrix({self.nrows}x{self.ncols} over {self.ring!r}: {body})"

    def transpose(self):
        raw = self._raw
        return Matrix._from_data(
            self.ring, [[row[j] for row in raw] for j in range(self.ncols)], self.nrows
        )

    def map(self, fn, ring=None):
        """Entrywise transform; fn returns elements of ring (default: same)."""
        ring = self.ring if ring is None else ring
        src = self.ring
        return self._map_data(lambda x: _coerce_entry(ring, fn(RingElem(src, x))), ring)

    def matvec(self, vec):
        if len(vec) != self.ncols:
            raise InvalidInput("vector length differs from ncols")
        ring = self.ring
        add, mul = ring._add, ring._mul
        zero = ring.zero.data
        v = [_coerce_entry(ring, x) for x in vec]
        out = []
        for row in self._raw:
            acc = zero
            for a, b in zip(row, v):
                if a != zero and b != zero:
                    acc = add(acc, mul(a, b))
            out.append(RingElem(ring, acc))
        return tuple(out)

    def kron(self, other):
        """Kronecker product: result[i*or + k, j*oc + l] = self[i,j] * other[k,l]."""
        if self.ring != other.ring:
            raise RingMismatch("matrices over different rings")
        mul = self.ring._mul
        out = [
            [mul(a, b) for a in arow for b in brow]
            for arow in self._raw
            for brow in other._raw
        ]
        return Matrix._from_data(self.ring, out, self.ncols * other.ncols)

    # -- eliminations -----------------------------------------------------------

    def inverse(self, error=None):
        """Inverse by Gauss-Jordan on [A | I].

        Over a local ring the matrix is invertible iff every column admits a
        unit pivot; otherwise `error` (or InvalidInput) is raised.
        """
        if self.nrows != self.ncols:
            raise InvalidInput("inverse of a non-square matrix")
        ring = self.ring
        n = self.nrows
        zero, one = ring.zero.data, ring.one.data
        work = [
            list(row) + [one if j == i else zero for j in range(n)]
            for i, row in enumerate(self._raw)
        ]
        work, pivot_cols = _gauss_jordan(ring, work, n)
        if len(pivot_cols) < n:
            raise error if error is not None else InvalidInput("matrix is not invertible")
        work = _scale_pivot_rows(ring, work, pivot_cols)
        return Matrix._from_data(ring, [row[n:] for row in work], n)

    def is_invertible(self):
        """Whether the matrix is square and inverse() would succeed.

        By Nakayama's lemma a square matrix over a local ring is invertible
        exactly when its reduction mod the maximal ideal is, so this counts
        the pivots of the elimination over the residue field; nothing is
        inverted.
        """
        if self.nrows != self.ncols:
            return False
        residue = self.ring._residue_data
        work = [[residue(x) for x in row] for row in self._raw]
        _, pivot_cols = _gauss_jordan(
            self.ring.residue_ring(), work, self.ncols, forward_only=True
        )
        return len(pivot_cols) == self.nrows

    def rank_field(self):
        """Rank over a residue field: the pivot count of the elimination."""
        if not self.ring.is_field():
            raise InvalidInput("rank_field needs a field")
        _, pivot_cols = _gauss_jordan(
            self.ring, [list(row) for row in self._raw], self.ncols, forward_only=True
        )
        return len(pivot_cols)

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
        B = [list(row) for row in self._raw]
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


def _form(X, G, Y, upper=False):
    """Raw rows of X^T G Y, for matrices over one ring with G.nrows ==
    X.nrows and G.ncols == Y.nrows; with upper, the entries below the
    diagonal are left zero.

    G Y is built from the nonzero entries of each row of G, entries ±1
    copying or negating a row of Y; sums start at their first term.
    """
    ring = G.ring
    add, sub, mul = ring._add, ring._sub, ring._mul
    zero, one = ring.zero.data, ring.one.data
    minus_one = sub(zero, one)
    width = Y.ncols
    y = Y._raw
    gy = []
    for grow in G._raw:
        acc = None
        for k, g in enumerate(grow):
            if g == zero:
                continue
            if g == one:
                term = y[k]
            elif g == minus_one:
                term = [sub(zero, b) if b != zero else b for b in y[k]]
            else:
                term = [mul(g, b) if b != zero else b for b in y[k]]
            acc = term if acc is None else [
                add(a, b) if b != zero else a for a, b in zip(acc, term)
            ]
        gy.append([zero] * width if acc is None else acc)
    x = X._raw
    out = []
    for i in range(X.ncols):
        terms = [(row[i], gy[u]) for u, row in enumerate(x) if row[i] != zero]
        out_row = [zero] * width
        for j in range(i if upper else 0, width):
            acc = zero
            for a, gyrow in terms:
                b = gyrow[j]
                if b != zero:
                    b = mul(a, b)
                    acc = b if acc == zero else add(acc, b)
            out_row[j] = acc
        out.append(out_row)
    return out


def _gauss_jordan(ring, rows, width, forward_only=False):
    """Division-free Gauss-Jordan on the first width columns, in place.

    rows is a list of lists of raw data over a local ring.  Columns are taken
    left to right; each pivots on the first unused row whose entry is a unit,
    which moves up to the next pivot position, and every other row r with a
    nonzero entry c in that column becomes p * r - c * (pivot row), p the
    pivot.  Scaling by the unit p keeps the row span, so no inversion is
    needed.  Zero entries are skipped in the pivot scan and the update.
    With forward_only the rows above the pivot are left alone: the pivot
    search only reads the rows below, so the pivot columns are the same, for
    callers that only count them.
    Returns (rows, pivot_cols) with rows[i] the pivot row of pivot_cols[i].
    """
    sub, mul, is_unit = ring._sub, ring._mul, ring._is_unit
    zero, one = ring.zero.data, ring.one.data
    pivot_cols = []
    for col in range(width):
        top = len(pivot_cols)
        for sel in range(top, len(rows)):
            x = rows[sel][col]
            if x != zero and is_unit(x):
                break
        else:
            continue
        rows[top], rows[sel] = rows[sel], rows[top]
        pivot_row = rows[top]
        p = pivot_row[col]
        for i in range(top + 1 if forward_only else 0, len(rows)):
            row = rows[i]
            c = row[col]
            if i == top or c == zero:
                continue
            if p != one:
                row = [mul(p, a) if a != zero else a for a in row]
            rows[i] = [sub(a, mul(c, b)) if b != zero else a for a, b in zip(row, pivot_row)]
        pivot_cols.append(col)
    return rows, pivot_cols


def _scale_pivot_rows(ring, rows, pivot_cols):
    """Scale each pivot row of _gauss_jordan by the inverse of its pivot, one
    Ring.inv apiece: the reduced echelon form on the pivot columns."""
    mul = ring._mul
    zero = ring.zero.data
    for i, col in enumerate(pivot_cols):
        s = ring.inv(RingElem(ring, rows[i][col])).data
        rows[i] = [mul(s, a) if a != zero else a for a in rows[i]]
    return rows
