"""Exact dense linear algebra over the coefficient rings.

Matrices are immutable and hold raw ring data: one private row-major tuple
of rows of the ring's data tuples.  Everything runs over an arbitrary ring
from flab.rings; algorithms that need more than ring arithmetic use the
local-ring structure explicitly.

RingElem appears only at the API edge.  The public constructor coerces and
checks every entry of outside input once; the accessors (``rows``,
``m[i, j]``, ``row``, ``entries``) wrap entries on the way out.
Arithmetic, transpose, comparison and the eliminations run on the ring's
``_add``/``_sub``/``_mul`` and build their result through the trusted
``Matrix._from_data``, which skips the per-entry checks.  Row work goes
through the ring's row kernels, one call per row: ``_row_submul`` for the
updates of _gauss_jordan and ``_row_scale`` for its pivot-row and p * r
scalings and for scalar multiples.  Each entry of a product is one
``_dot``.  The kernels reduce once per entry or per dot product instead of
making two ring calls per term, on every ring that has its own.

One Gauss-Jordan with unit pivots, _gauss_jordan, serves every elimination
over a field and the unit-pivot ones over W/p^n and k[t]/t^n.  It subtracts
the pivot row only at its nonzero entries.  In full mode each pivot is
inverted once, by the ring's raw ``_inv``, and its row scaled to the
reduced echelon form:

* inverse()       on [A | I] (a square matrix over a local ring is
                  invertible iff every column has a unit pivot).
* kernel_gens()   over a field, the basis read off the reduced rows.
* lifting._block_solver on [T | I], tangent.delta_space, and the
  right-to-left echelon form of modules._hom_on_gr.

Forward-only mode counts pivots and inverts nothing; the rows above each
pivot are left unreduced:

* is_invertible() the verdict from the pivot count over the residue field
                  (Nakayama's lemma).
* rank_field()    the pivot count over a residue field.
* the dimension counts of tangent.tangent_report.

_form(X, G, Y) gives the raw rows of the bilinear form X^T G Y: G Y from
the nonzero entries of G, r^2 products at most against a unit multiple of
the standard form, then each entry of X^T (G Y) as one ``_dot`` of a
column of X with a column of G Y; with upper=True only the entries on and
above the diagonal are formed.
Its callers are pairing.validate_pairing (the Φ-compatibility check, upper),
pairing.change_basis (the new Gram V^T G V) and
lifting.build_correction_system (the defect C^T S C).

_sweep_kernel is the one other elimination: a valuation-pivot sweep whose
column operations give the torsion generators of the right kernel, for
kernel_gens over W/p^n and k[t]/t^n, where hom_mf solves its full system.
Over a field, where hom_mf solves only its graded system, it gives the same
basis as the reduced echelon form; the tests keep it as that oracle.
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
            dot = self.ring._dot
            bcols = list(zip(*other._raw)) if other.nrows else [()] * other.ncols
            out = [[dot(row, col) for col in bcols] for row in self._raw]
            return Matrix._from_data(self.ring, out, other.ncols)
        return self._scaled(other)

    def __rmul__(self, other):
        return self._scaled(other)

    def _scaled(self, scalar):
        s = _coerce_entry(self.ring, scalar)
        if s == self.ring.one.data:
            return self  # immutable, and ω = 1 or c = 1 is the common case
        scale = self.ring._row_scale
        return Matrix._from_data(self.ring, [scale(row, s) for row in self._raw], self.ncols)

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

        Over a field it is the basis read off the reduced echelon form that
        _gauss_jordan leaves on the pivot rows R: one vector per free column
        f, ascending, with 1 at f, 0 at the other free columns and -R[i][f]
        at the pivot column of row i.  Over W/p^n and k[t]/t^n it is the set
        of torsion generators of _sweep_kernel.
        """
        ring = self.ring
        if not ring.is_field():
            return _sweep_kernel(self)
        sub = ring._sub
        zero, one = ring.zero.data, ring.one.data
        n = self.ncols
        rows, pivot_cols = _gauss_jordan(ring, [list(row) for row in self._raw], n)
        pivots = list(zip(pivot_cols, rows))
        gens = []
        for f in sorted(set(range(n)).difference(pivot_cols)):
            vec = [zero] * n
            vec[f] = one
            for col, row in pivots:
                x = row[f]
                if x != zero:
                    vec[col] = sub(zero, x)
            gens.append(tuple(RingElem(ring, x) for x in vec))
        return tuple(gens)


def _sweep_kernel(matrix):
    """Generators of the right kernel of a matrix over a local ring.

    Valuation-pivot elimination (Smith-style): row operations leave the
    kernel alone, column operations are mirrored on an invertible W with
    ker(matrix) = W ker(reduced).  A pivot of valuation d in column j gives
    pi^(level - d) times column j of W, none when d = 0, and a column with no
    pivot gives its column of W.  kernel_gens uses it off a field, for the
    torsion generators of hom_mf's full system over W/p^n and k[t]/t^n.
    """
    ring = matrix.ring
    sub, mul = ring._sub, ring._mul
    zero, one = ring.zero.data, ring.one.data
    n_ideal = ring.level
    B = [list(row) for row in matrix._raw]
    W = [[one if j == i else zero for j in range(matrix.ncols)] for i in range(matrix.ncols)]
    free_rows = set(range(matrix.nrows))
    free_cols = set(range(matrix.ncols))
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
        for i in range(matrix.nrows):
            if i != pi and B[i][pj] != zero:
                q = quotient(B[i][pj])
                B[i] = [
                    sub(a, mul(q, b)) if b != zero else a
                    for a, b in zip(B[i], B[pi])
                ]
        # clear the pivot row with column operations, mirrored on W
        for j in range(matrix.ncols):
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
    for j in range(matrix.ncols):
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
    copying or negating a row of Y; sums start at their first term.  Entry
    (i, j) is then the dot product of columns i of X and j of G Y.
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
    dot = ring._dot
    gycols = list(zip(*gy))
    out = []
    for i, xcol in enumerate(zip(*X._raw)):
        lo = i if upper else 0
        out.append([zero] * lo + [dot(xcol, gycols[j]) for j in range(lo, width)])
    return out


def _gauss_jordan(ring, rows, width, forward_only=False):
    """Gauss-Jordan on the first width columns.

    rows is a list of lists of raw data over a local ring, reused as the
    workspace.  Columns are taken left to right; each pivots on the first
    unused row whose entry is a unit, which moves up to the next pivot
    position (over a field every nonzero entry is one).  Only the nonzero
    entries of the pivot row are read in an update, and zero entries are
    skipped in the pivot scan.  Each update is one ring._row_submul call
    and each scaling one ring._row_scale call.

    Full mode: the pivot p is inverted once, through ring._inv, since the
    search has just found it a unit, and the pivot row scaled by p^{-1};
    every other row r with a nonzero entry c in the column becomes
    r - c * (pivot row).  Pivot rows end with 1 at their pivot
    and 0 at the other pivot columns: the reduced echelon form there.
    Forward-only mode inverts nothing: the rows below the pivot with a
    nonzero c become p * r - c * (pivot row), a unit multiple that keeps the
    row span, and the rows above are left alone.  The pivot search reads only
    the rows below, so both modes find the same pivot columns; callers that
    only count pivots use it.

    Full mode gives the pivot rows of the division-free update p r - c prow
    on every row, followed by one scaling of each pivot row by the inverse
    of its pivot.  By induction each row here is a unit multiple of its
    division-free counterpart: if r = a r' and prow = prow' / p' with p' the
    counterpart's pivot, then r - c prow = (a / p') (p' r' - c' prow') for
    c = a c'.  A unit multiple of a unit is a unit and of zero is zero, so
    the same pivots are chosen in the same order, and at the end a pivot row
    and its scaled counterpart are unit multiples of each other that are
    both 1 at the pivot: they are equal entry for entry.  The entry
    c - c * 1, or p c - c p, in the pivot column is set to zero directly.
    Returns (rows, pivot_cols) with rows[i] the pivot row of pivot_cols[i].
    """
    submul, scale, is_unit = ring._row_submul, ring._row_scale, ring._is_unit
    zero, one = ring.zero.data, ring.one.data
    field = ring.is_field()
    nrows = len(rows)
    pivot_cols = []
    for col in range(width):
        top = len(pivot_cols)
        for sel in range(top, nrows):
            x = rows[sel][col]
            if x != zero and (field or is_unit(x)):
                break
        else:
            continue
        pivot_row = rows[sel]
        rows[sel] = rows[top]
        p = pivot_row[col]
        if not forward_only:
            s = ring._inv(p)
            if s != one:
                pivot_row = scale(pivot_row, s)
        rows[top] = pivot_row
        nonzero = [(j, b) for j, b in enumerate(pivot_row) if b != zero and j != col]
        for i in range(top + 1 if forward_only else 0, nrows):
            row = rows[i]
            c = row[col]
            if c == zero or i == top:
                continue
            if forward_only and p != one:
                row = scale(row, p)
                rows[i] = row
            submul(row, c, nonzero)
            row[col] = zero
        pivot_cols.append(col)
    return rows, pivot_cols
