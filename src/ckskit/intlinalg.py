"""Exact integer linear algebra.

Matrices are sparse columns {j: {i: entry}} over the nonzero entries, or
dense rows, plain lists of lists of Python ints.  map_matrix writes the
columns of a map given on labelled bases (f, g and h only), and
ht.HTComplex.d_columns writes the HT and CKS differentials; rank,
is_zero_product, the d² check and cohomology read columns as they are.
Dense rows are made from columns in one place (dense), only for the
readers that read rows: the f, g and h that `ht --matrices` prints, and
the d_matrix rows that checks.check_splitting factors and whose blocks
DelConCKS.check_chain_maps compares.  matmul serves SmithForm.verify and
the dense oracles of the tests.
Everything here is exact and stays in the integers, with no fractions:
Smith normal form with unimodular transforms, ranks over Q, invariant
factors, and cochain-complex cohomology (free rank + torsion invariant
factors).
Ranks, invariant factors and cohomology factor each matrix once with a
sparse unit-pivot elimination that hands only its residual core to the
dense Smith normal form.  Cohomology factors a complex in increasing
degree and clears as it goes: a column of d_{n+1} at a pivot row of d_n
is an integer combination of the other columns, so it is never factored,
nor built when d_{n+1} comes unbuilt.
"""

import collections
from heapq import heappop, heappush
from itertools import compress, count

from .errors import NotAComplex, OutsideBasis


# ---------------------------------------------------------------------------
# basic matrix helpers

def map_matrix(src, tgt_index, image):
    """Sparse columns {j: {i: c}} of a linear map between labelled bases.

    Column j holds image(src[j]), a dict label -> coefficient, with each
    nonzero coefficient at the row tgt_index[label]; every source
    position j has a column, an empty one where the image is zero.
    Raises OutsideBasis when an image label is not in the target basis.
    """
    columns = {}
    for j, label in enumerate(src):
        col = columns[j] = {}
        for key, c in image(label).items():
            i = tgt_index.get(key)
            if i is None:
                raise OutsideBasis(label, key)
            if c:
                col[i] = c
    return columns


def dense(columns, rows, cols):
    """Sparse columns {j: {i: x}} as dense rows of shape rows × cols, for
    the readers that read rows."""
    m = [[0] * cols for _ in range(rows)]
    for j, col in columns.items():
        for i, x in col.items():
            m[i][j] = x
    return m


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(a, b):
    """a·b, or [] when either factor has no rows."""
    if not a or not b:
        return []
    m = len(b[0])
    out = []
    for ai in a:
        oi = [0] * m
        for x, bt in compress(zip(ai, b), ai):
            oi = [o + x * y for o, y in zip(oi, bt)]
        out.append(oi)
    return out


def is_zero_matrix(a):
    return not any(map(any, a))


def is_zero_product(a, b):
    """a·b = 0 for sparse columns a and b ({j: {i: x}}), decided exactly
    without forming the product: column j of a·b sums b_kj · (column k of
    a) over the nonzero b_kj, so terms that cancel give zero.
    is_zero_matrix(matmul(...)) of the dense forms is the oracle."""
    for col in b.values():
        out = {}
        for k, x in col.items():
            for i, y in a.get(k, {}).items():
                out[i] = out.get(i, 0) + x * y
        if any(out.values()):
            return False
    return True


def det(a):
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(a)
    if n == 0:
        return 1
    m = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def rank(a):
    """Rank over Q of an integer matrix, given as sparse columns
    {j: {i: x}} (as map_matrix writes them) or as dense rows: the rank its
    Smith form has."""
    return _factor(a if isinstance(a, dict) else _columns(a))[0]


# ---------------------------------------------------------------------------
# Smith normal form

class SmithForm(collections.namedtuple("SmithForm", "U D V rank invariant_factors")):
    """U·A·V = D with U, V unimodular and D = diag(d1 | d2 | ...)."""

    __slots__ = ()

    def verify(self, a):
        return matmul(matmul(self.U, a), self.V) == self.D \
            and abs(det(self.U)) == 1 and abs(det(self.V)) == 1


def _nearest_quotient(x, y):
    """Quotient q minimizing |x - q*y| (round-to-nearest division)."""
    q, r = divmod(x, y)
    # r has the sign of y, so bumping q by one always flips r to the
    # shorter representative r - y
    if 2 * abs(r) > abs(y):
        q += 1
    return q


def smith_normal_form(a):
    """Diagonalize an integer matrix by unimodular row/column operations.

    Clears each pivot column/row by repeatedly reducing the largest
    remaining entry by the second largest (round-to-nearest quotients),
    which keeps the multipliers near 1 and bounds intermediate entry
    growth; naive minimal-pivot elimination blows up exponentially on
    random matrices with large entries.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    d = [row[:] for row in a]
    u = identity(rows)
    v = identity(cols)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def addmul_row(dst, src, c):
        # row dst += c * row src
        drow, srow = d[dst], d[src]
        for j in range(cols):
            drow[j] += c * srow[j]
        urow, usrc = u[dst], u[src]
        for j in range(rows):
            urow[j] += c * usrc[j]

    def addmul_col(dst, src, c):
        for row in d:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    def clear_column(t):
        # reduce rows t..end until column t has a single nonzero, then
        # move that entry (the column gcd) onto the diagonal
        while True:
            live = sorted((i for i in range(t, rows) if d[i][t]),
                          key=lambda i: abs(d[i][t]), reverse=True)
            if len(live) < 2:
                break
            i1, i2 = live[0], live[1]
            addmul_row(i1, i2, -_nearest_quotient(d[i1][t], d[i2][t]))
        for i in range(t, rows):
            if d[i][t]:
                if i != t:
                    swap_rows(t, i)
                break

    def clear_row(t):
        while True:
            live = sorted((j for j in range(t, cols) if d[t][j]),
                          key=lambda j: abs(d[t][j]), reverse=True)
            if len(live) < 2:
                break
            j1, j2 = live[0], live[1]
            addmul_col(j1, j2, -_nearest_quotient(d[t][j1], d[t][j2]))
        for j in range(t, cols):
            if d[t][j]:
                if j != t:
                    swap_cols(t, j)
                break

    t = 0
    limit = min(rows, cols)
    while t < limit:
        piv = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = d[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    piv = (i, j)
        if piv is None:
            break
        if piv[0] != t:
            swap_rows(t, piv[0])
        if piv[1] != t:
            swap_cols(t, piv[1])
        # gather the column gcd onto the diagonal; once it also divides
        # the pivot row, exact-division column ops finish the stage
        # without disturbing the cleared column.  Otherwise fold the row
        # gcd in (strictly shrinking the pivot) and start over.
        while True:
            clear_column(t)
            p = d[t][t]
            if all(d[t][j] % p == 0 for j in range(t + 1, cols)):
                for j in range(t + 1, cols):
                    if d[t][j]:
                        addmul_col(j, t, -(d[t][j] // p))
                break
            clear_row(t)
        # enforce the divisibility chain: d[t][t] must divide the rest
        bad = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if d[i][j] % d[t][t] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            addmul_row(t, bad, 1)
            continue  # redo elimination at the same t
        if d[t][t] < 0:
            negate_row(t)
        t += 1

    diag = [d[i][i] for i in range(min(rows, cols)) if d[i][i] != 0]
    return SmithForm(U=u, D=d, V=v, rank=len(diag), invariant_factors=diag)


# ---------------------------------------------------------------------------
# sparse unit-pivot elimination

def _columns(a):
    """{j: {i: a[i][j]}} over the nonzero entries of dense rows a."""
    cols = {}
    for i, row in compress(enumerate(a), map(any, a)):
        for j in compress(count(), row):
            cols.setdefault(j, {})[i] = row[j]
    return cols


def _rank_and_torsion(a):
    """(rank, invariant factors > 1) of dense rows a, by _factor."""
    return _factor(_columns(a))[:2]


def _factor(columns):
    """(rank, invariant factors > 1, pivot rows) of the matrix with these
    sparse columns (as _columns or map_matrix writes them; a column may be
    empty), which it leaves unchanged.  The pivot rows are the rows of its
    unit pivots, or None when a residual core remained.

    Eliminates unit pivots first (Dumas, Saunders and Villard, J. Symb.
    Comp. 2001) on sparse rows with a column -> row-set index.  Each
    pivot clears its column by row operations and drops its row and
    column, giving an invariant factor 1 (the column operations that
    would clear its row touch nothing else).

    The order: first every ±1 alone in its row, at the start and again
    whenever a row operation leaves a row with one entry.  Such a pivot
    has Markowitz cost (r − 1)(c − 1) = 0 and makes no fill (Duff,
    Erisman and Reid, Direct Methods for Sparse Matrices, on
    singletons): clearing its column only deletes that column's entries
    from the other rows, so it needs no row operation, changes no other
    column, and may leave another row alone in turn.  Only when no such
    row is left does a heap, which queues by entry count the columns
    that the first singletons left, pop the shortest and pivot on a ±1
    in the shortest of its rows, or skip a column without one.  That
    pivot row's columns changed and are queued again, so the loop ends
    when every remaining column was examined after its last change and
    had no unit entry.  Only that residual core goes to
    smith_normal_form; the CKS and HT differentials of the bound-5
    corpus leave none.

    Without a core, the pivot rows P and columns Q bound a minor A[P, Q]
    of determinant ±1, in any pivot order: the row operations are
    unimodular, and each pivot clears its column from every row still
    left, so a later pivot row is zero in every earlier pivot column and
    the minor, after them, is triangular in pivot order with ±1 on its
    diagonal.  CochainComplex.cohomology clears with P.
    """
    rows = {}
    for j, col in columns.items():
        for i, x in col.items():
            rows.setdefault(i, {})[j] = x
    cols = {j: set(col) for j, col in columns.items()}
    singles = [i for i, row in rows.items() if len(row) == 1]
    queue = None
    pivot_rows = []
    while True:
        while singles:
            pi = singles.pop()
            row = rows.get(pi)
            if row is None:
                continue  # emptied by a pivot since it was pushed
            (pj, x), = row.items()
            if x not in (1, -1):
                continue
            pivot_rows.append(pi)
            del rows[pi]
            for i in cols.pop(pj):
                if i != pi:
                    row = rows[i]
                    del row[pj]
                    if len(row) == 1:
                        singles.append(i)
                    elif not row:
                        del rows[i]
        if queue is None:  # a heap of the columns the first singletons left
            queue = sorted((len(col), j) for j, col in cols.items())
        if not queue:
            break
        n, pj = heappop(queue)
        col = cols.get(pj)
        if col is None or len(col) != n:
            continue  # pivoted away, or queued again since this entry
        pi = None
        for i in col:
            row = rows[i]
            if row[pj] in (1, -1) and (pi is None or len(row) < len(rows[pi])):
                pi = i
        if pi is None:
            continue
        pivot_rows.append(pi)
        prow = rows.pop(pi)
        unit = prow.pop(pj)
        for j in prow:
            cols[j].discard(pi)
        for i in cols.pop(pj):
            if i == pi:
                continue
            row = rows[i]
            f = row.pop(pj) * unit  # row -= f * prow clears column pj
            for j, x in prow.items():
                old = row.get(j)
                if old is None:
                    row[j] = -f * x
                    cols[j].add(i)
                elif old == f * x:
                    del row[j]
                    cols[j].discard(i)
                else:
                    row[j] = old - f * x
            if len(row) == 1:
                singles.append(i)
            elif not row:
                del rows[i]
        for j in prow:
            if cols[j]:
                heappush(queue, (len(cols[j]), j))
            else:
                del cols[j]
    if not rows:
        return len(pivot_rows), [], pivot_rows
    core_cols = sorted(cols)
    snf = smith_normal_form([[row.get(j, 0) for j in core_cols]
                             for row in rows.values()])
    return (len(pivot_rows) + snf.rank, [x for x in snf.invariant_factors if x > 1],
            None)


# ---------------------------------------------------------------------------
# cochain complexes

class CochainComplex:
    """Finitely many free Z-modules with integer differentials.

    bases:   dict degree -> basis labels (any sized collection, such as a
             range); only their number |C^n| is kept
    columns: dict degree n -> d_n: C^n -> C^{n+1} as sparse columns
             {j: {i: entry}} (see _columns), j < |C^n| and i < |C^{n+1}|;
             a zero differential may be omitted.  The d² check and
             cohomology read them as they are.  A differential may also
             come unbuilt, as a function of the keyword `skip` that
             returns its columns without those at the positions in skip:
             cohomology calls it once, when it reaches degree n, with the
             columns its clearing leaves out, and keeps nothing of it
             after factoring it.  Only with check_d2 false, as the d²
             product reads every column.
    check_d2: multiply the differentials to check d² = 0 (_check_d2),
             which cohomology's clearing relies on.  Only a caller that
             has shown d² = 0 another way passes False: cks_cohomology,
             after HTComplex.squares_vanish.  The checks and the HT
             stripes multiply.
    """

    def __init__(self, bases, columns, check_d2=True):
        self._dims = {n: len(labels) for n, labels in bases.items() if labels}
        self._columns = {n: cols for n, cols in columns.items() if cols}
        for n, cols in self._columns.items():
            if not callable(cols):
                self._check_shape(n, cols)
        if check_d2:
            self._check_d2()

    def dim(self, n):
        return self._dims.get(n, 0)

    def degrees(self):
        return sorted(self._dims)

    def _check_shape(self, n, cols):
        """ValueError unless every column index of d_n lies in [0, |C^n|)
        and every row index in [0, |C^{n+1}|)."""
        rows = set().union(*cols.values())
        if cols and (min(cols) < 0 or max(cols) >= self.dim(n)
                     or rows and (min(rows) < 0 or max(rows) >= self.dim(n + 1))):
            raise ValueError(f"differential at degree {n} has wrong shape")

    def _check_d2(self):
        """NotAComplex(n) at the first n with d_{n+1}·d_n ≠ 0, over every
        column (cohomology's clearing relies on it)."""
        for n in sorted(self._columns):
            if not is_zero_product(self._columns.get(n + 1, {}), self._columns[n]):
                raise NotAComplex(n)

    def cohomology(self):
        """Per-degree (free rank, torsion invariant factors > 1).

        Each differential is factored once, in increasing degree; its rank
        enters the free rank on both sides and its invariant factors give
        the torsion of the degree it maps into.

        Clearing (the "twist" of Chen and Kerber, 2011): when d_n left no
        core, its pivot rows P and columns Q bound a minor of determinant
        ±1 (_factor), and d_{n+1}·d_n = 0 gives
        d_{n+1}[:, P] = −d_{n+1}[:, ∉P]·d_n[∉P, Q]·d_n[P, Q]⁻¹.  So the
        columns of d_{n+1} at P are integer combinations of the others, and
        factoring d_{n+1} without them keeps its column lattice: its rank
        and invariant factors over Z.  Nothing is cleared after a core,
        nor across a zero (omitted) d_n.  An unbuilt d_{n+1} is built
        here without its columns at P (_differential).
        """
        facts, cleared = {}, {}
        for n in sorted(self._columns):
            rank, torsion, pivot_rows = _factor(self._differential(n, cleared.pop(n, ())))
            facts[n] = rank, torsion
            if pivot_rows:
                cleared[n + 1] = set(pivot_rows)
        out = {}
        for n in self.degrees():
            rank_out = facts.get(n, (0, []))[0]
            rank_in, torsion = facts.get(n - 1, (0, []))
            out[n] = (self.dim(n) - rank_out - rank_in, torsion)
        return out

    def _differential(self, n, skip):
        """d_n without its columns at the positions in skip: an unbuilt
        d_n is built so, and its shape checked; a built one is copied
        without them."""
        columns = self._columns[n]
        if callable(columns):
            columns = columns(skip=skip)
            self._check_shape(n, columns)
        elif skip:
            columns = {j: col for j, col in columns.items() if j not in skip}
        return columns
