"""Exact linear algebra over the integers.

Everything in this module is computed with arbitrary-precision integers;
there is no floating point anywhere.  It provides Smith normal form,
finitely generated abelian groups in canonical invariant-factor form,
homomorphisms between them, the extensions of one group by another, and
an exactness checker.  These are the primitives every other module is
built on.  An ``IntMatrix`` stores its rows as a tuple of tuples, with its
column count for the matrix without rows, so every routine here reads the
rows directly.

The Smith form has two paths:

- Diagonal only, modulo maximal minors (``cokernel``): a fraction-free
  elimination finds the rank r, a nonzero r x r minor and, in its last
  pivot row, more r x r minors.  With D the gcd of these, the matrix is
  diagonalized over Z/D, so entries stay bounded; D = 1, the usual case
  for a wide matrix of full row rank, means no torsion and no pass.  A
  nonsingular square matrix is diagonalized modulo the gcd of its
  determinant and the (r-1) x (r-1) minors of the next-to-last pivot
  row instead, which yields every invariant factor but the top one.
  ``units_kernel`` goes through it.
- With unimodular transforms, for callers that need U or V: one private
  core, ``_smith``, on plain row lists, returning U's rows, the diagonal
  and V's columns.  ``smith_normal_form`` wraps it in ``IntMatrix``
  values for ``classify.restriction_kernel``.  The consistency proof
  calls it on lists, once per matrix it decides: ``_quotient`` reads a
  quotient group and the projection onto it off U and the diagonal (for
  ``cokernel_with_projection`` and for each class of
  ``enumerate_extensions``), ``check_exact`` reads a kernel off V, and
  ``_lattice_solver`` tests membership in a span.  Each pivot's column
  is cleared by row Euclid steps and its row by column Euclid steps,
  with nearest-integer quotients, before the next pivot is chosen.  That
  keeps the transform entries of a random 40 x 40 matrix with entries
  in [-9, 9] near 550 digits; choosing a new pivot from the whole block
  after every partial reduction lets them reach about 1,450.

All values are immutable after construction and all operations are pure,
so concurrent use needs no synchronization.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import CompositionMismatch, UnsupportedShape


# ---------------------------------------------------------------------------
# integer matrices


@dataclass(frozen=True)
class IntMatrix:
    """An immutable integer matrix: its rows as tuples, and its column
    count, which a matrix without rows cannot show.  Any iterable of
    integer rows is accepted and stored as a tuple of tuples."""

    rows: tuple
    ncols: int

    def __post_init__(self):
        rows = tuple(map(tuple, self.rows))
        object.__setattr__(self, "rows", rows)
        if self.ncols < 0:
            raise ValueError("negative column count")
        if any(len(row) != self.ncols for row in rows):
            raise ValueError("row length does not match the column count")
        if not all(isinstance(x, int) for row in rows for x in row):
            raise ValueError("matrix entries must be integers")

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        """The matrix with these rows; without rows it has no columns."""
        rows = tuple(map(tuple, rows))
        return cls(rows, len(rows[0]) if rows else 0)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(_identity(n), n)

    @property
    def entries(self) -> tuple:
        """Every entry, row by row (the benchmark's tracer reads these)."""
        return tuple(x for row in self.rows for x in row)

    def to_rows(self) -> list:
        return [list(row) for row in self.rows]

    def columns(self) -> list:
        return [[row[j] for row in self.rows] for j in range(self.ncols)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.columns(), len(self.rows))

    def diagonal(self) -> list:
        return [row[i] for i, row in enumerate(self.rows[:self.ncols])]


def _rank_and_minor(rows, ncols: int):
    """Rank r of an integer matrix, a nonzero r x r minor of it, a list of
    more r x r minors, and a list of (r-1) x (r-1) minors, each up to sign.

    One fraction-free (Bareiss) elimination with row swaps; a column with
    no pivot is skipped.  The minor is that of the pivot rows and pivot
    columns, so for a nonsingular square matrix it is the determinant up to
    sign; it is 1 when r = 0.  Every intermediate entry is itself a minor
    of the input, so entries stay within Hadamard's bound.  In particular
    each entry of the last pivot row right of its pivot is the r x r minor
    on the pivot rows and on the pivot columns with the last one swapped
    for that entry's column: these are the spare minors returned.
    Likewise each entry of the next-to-last pivot row, from its pivot on,
    is an (r-1) x (r-1) minor; for r < 2 the list is [1], the empty minor.
    """
    m = [list(row) for row in rows]
    rank, prev, last, before = 0, 1, ncols, ncols
    for c in range(ncols):
        if rank == len(m):
            break
        pivot_row = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        p = m[rank][c]
        tail = m[rank][c + 1:]
        for row in m[rank + 1:]:
            q = row[c]
            row[c + 1:] = [(x * p - q * y) // prev for x, y in zip(row[c + 1:], tail)]
        prev, last, before = p, c, last
        rank += 1
    spare = m[rank - 1][last + 1:] if rank else []
    lower = m[rank - 2][before:] if rank >= 2 else [1]
    return rank, prev, spare, lower


# ---------------------------------------------------------------------------
# Smith normal form


def smith_normal_form(matrix: IntMatrix):
    """Diagonalize an integer matrix by unimodular transforms.

    Returns (U, D, V) with U * matrix * V == D, det(U), det(V) in {1, -1},
    D diagonal with nonnegative entries satisfying d1 | d2 | ... (zeros
    trail).  The work is done by ``_smith`` on plain lists.
    """
    m, n = len(matrix.rows), matrix.ncols
    U, diag, V = _smith(matrix.rows, n)
    D = [[diag[i] if i == j else 0 for j in range(n)] for i in range(m)]
    return IntMatrix(U, m), IntMatrix(D, n), IntMatrix(zip(*V), n)


def _smith(rows: list, n: int):
    """Smith normal form of the m x n matrix with the given rows, on lists.

    Returns (U rows, diagonal, V columns): U * A * V is the diagonal
    matrix, which has min(m, n) entries d1 | d2 | ..., nonnegative with
    zeros trailing.  The rows are not modified.  Each step takes the
    smallest nonzero entry of the remaining block as the pivot, ties broken
    by lowest (row, col), clears its column by row Euclid steps and then
    its row by column Euclid steps, both with nearest-integer quotients,
    and repeats while a column step refills the pivot column.  A pivot that
    fails to divide the rest of the block pulls in an offending row and is
    chosen again.  The transforms are deterministic.  Finishing each pivot
    before choosing the next keeps their entries small, and nearest
    quotients keep them smaller and faster to compute than floor quotients
    do.
    """
    m = len(rows)
    M = [list(row) for row in rows]
    U = _identity(m)
    V = _identity(n)  # V[j] is column j

    t, r = 0, min(m, n)
    while t < r:
        pivot = _smallest_entry(M, t)
        if pivot is None:
            break
        pi, pj = pivot
        M[t], M[pi] = M[pi], M[t]
        U[t], U[pi] = U[pi], U[t]
        _swap_columns(M, V, t, pj)
        while True:
            _clear_column(M, U, t)
            j = _reduce_row(M[t], V, t)
            if j is None:
                break
            _swap_columns(M, V, t, j)  # the smaller remainder becomes the pivot
        if M[t][t] < 0:
            M[t] = [-x for x in M[t]]
            U[t] = [-x for x in U[t]]
        p = M[t][t]
        if p > 1:
            stray = next((i for i in range(t + 1, m)
                          if any(x % p for x in M[i][t + 1:])), None)
            if stray is not None:  # pull the bad row in; gcd shrinks the pivot
                M[t] = [a + b for a, b in zip(M[t], M[stray])]
                U[t] = [a + b for a, b in zip(U[t], U[stray])]
                continue
        t += 1

    return U, [M[i][i] for i in range(r)], V


def _identity(n: int) -> list:
    return [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]


def _smallest_entry(M: list, t: int):
    """(row, col) of the first nonzero entry of least absolute value in the
    block of rows and columns from t on; None when the block is zero."""
    best, where = 0, None
    for i in range(t, len(M)):
        row = M[i]
        for j in range(t, len(row)):
            x = abs(row[j])
            if x and (x < best or not best):
                if x == 1:
                    return i, j
                best, where = x, (i, j)
    return where


def _swap_columns(M: list, V: list, j: int, k: int):
    if j != k:
        for row in M:
            row[j], row[k] = row[k], row[j]
        V[j], V[k] = V[k], V[j]


def _clear_column(M: list, U: list, t: int):
    """Zero column t below the pivot M[t][t] by row operations, kept in U.

    Every row takes off the nearest multiple of the pivot row, leaving a
    remainder of at most half the pivot; the row with the smallest nonzero
    remainder then becomes the pivot row, until no remainder is left.
    """
    while True:
        top, utop = M[t], U[t]
        p = top[t]
        best = None
        for i in range(t + 1, len(M)):
            x = M[i][t]
            if x:
                q = (2 * x + p) // (2 * p)
                if q:
                    M[i] = row = [a - q * b for a, b in zip(M[i], top)]
                    U[i] = [a - q * b for a, b in zip(U[i], utop)]
                    x = row[t]
                if x and (best is None or abs(x) < abs(M[best][t])):
                    best = i
        if best is None:
            return
        M[t], M[best] = M[best], M[t]
        U[t], U[best] = U[best], U[t]


def _reduce_row(top: list, V: list, t: int):
    """Reduce the pivot row ``top`` right of the pivot by column operations.

    Column t of the block must be zero below the pivot, so a column
    operation changes only ``top`` and the columns of V.  Returns the
    column of the smallest nonzero remainder, or None when the row is
    clear.
    """
    p = top[t]
    vt = V[t]
    best = None
    for j in range(t + 1, len(top)):
        x = top[j]
        if x:
            q = (2 * x + p) // (2 * p)
            if q:
                top[j] = x = x - q * p
                V[j] = [a - q * b for a, b in zip(V[j], vt)]
            if x and (best is None or abs(x) < abs(top[best])):
                best = j
    return best


# ---------------------------------------------------------------------------
# Smith diagonal modulo a maximal minor


def _xgcd(a: int, b: int):
    """(g, s, t) with g = gcd(a, b) = s * a + t * b, for a, b >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def _cyclic_orders_modulo(rows, modulus: int) -> list:
    """Orders of cyclic groups whose sum is Z^m / (column span + modulus Z^m).

    Here m = len(rows).  The matrix is diagonalized over Z/modulus, so no
    entry grows past the modulus.  A pivot that is a unit there clears its
    row and column by plain elimination and adds nothing.  Otherwise 2 x 2
    extended-gcd row and column steps shrink the pivot to a divisor of the
    modulus, which is recorded.  Each row left once the rest is zero adds
    a full Z/modulus.  The orders are not sorted into a divisibility chain.
    """
    mat = [[x % modulus for x in row] for row in rows]
    orders = []
    while mat and mat[0]:
        pivot = _pick_pivot(mat, modulus)
        if pivot is None:
            break
        g, pi, pj = pivot
        top = mat.pop(pi)
        if g == 1:
            inv = pow(top[pj], -1, modulus)
            top = [x * inv % modulus for x in top]
            mat = [[(x - f * y) % modulus for x, y in zip(row, top)]
                   if (f := row[pj]) else row for row in mat]
        else:
            for row in (top, *mat):
                row[0], row[pj] = row[pj], row[0]
            orders.append(_clear_pivot(top, mat, modulus))
            pj = 0
        for row in mat:  # the pivot column is zero now
            row[pj] = row[-1]
            row.pop()
    orders.extend([modulus] * len(mat))
    return orders


def _pick_pivot(mat: list, modulus: int):
    """(gcd with the modulus, row, column) of the first entry that is a unit
    mod the modulus, else of the nonzero entry sharing least with it; None
    when every entry is zero."""
    best = None
    for i, row in enumerate(mat):
        for j, x in enumerate(row):
            if x:
                g = math.gcd(x, modulus)
                if g == 1:
                    return g, i, j
                if best is None or g < best[0]:
                    best = (g, i, j)
    return best


def _clear_pivot(top: list, mat: list, modulus: int) -> int:
    """Clear column 0 of ``mat`` and the row ``top`` around the pivot top[0].

    Works mod the modulus; rows of ``mat`` are replaced in place.  Returns
    the order gcd(pivot, modulus) of the cyclic group the pivot splits off.
    """
    while True:
        for k, row in enumerate(mat):
            a, b = top[0], row[0]
            if not b:
                continue
            if b % a == 0:
                q = b // a
                mat[k] = [(x - q * y) % modulus for x, y in zip(row, top)]
            else:
                g, s, t = _xgcd(a, b)
                ag, bg = a // g, b // g
                top, mat[k] = ([(s * x + t * y) % modulus for x, y in zip(top, row)],
                               [(ag * y - bg * x) % modulus for x, y in zip(top, row)])
        # column 0 is now top[0] * e_0, and modulus * e_0 lies in the span
        p = top[0] = math.gcd(top[0], modulus)
        j = next((j for j in range(1, len(top)) if top[j] % p), None)
        if j is None:
            return p
        g, s, t = _xgcd(p, top[j])
        ag, bg = p // g, top[j] // g
        for row in (top, *mat):
            x, y = row[0], row[j]
            row[0], row[j] = (s * x + t * y) % modulus, (ag * y - bg * x) % modulus


def _lattice_solver(columns):
    """Precompute a membership test for the Z-span of the given columns."""
    if not columns:
        return lambda vec: all(x == 0 for x in vec)
    u, diag, _ = _smith(list(zip(*columns)), len(columns))
    rank = sum(1 for x in diag if x)
    divisors = list(zip(u[:rank], diag))
    rest = u[rank:]

    def contains(vec):
        return (all(sum(a * b for a, b in zip(row, vec)) % d == 0
                    for row, d in divisors)
                and not any(sum(a * b for a, b in zip(row, vec)) for row in rest))

    return contains


# ---------------------------------------------------------------------------
# finitely generated abelian groups


@dataclass(frozen=True)
class FgAbGroup:
    """A finitely generated abelian group in invariant-factor form.

    ``torsion`` lists the invariant factors d1 | d2 | ... with each di >= 2.
    Canonical form makes isomorphism decidable by structural equality:

    >>> FgAbGroup.of(cyclic=(2, 3)) == FgAbGroup.of(cyclic=(6,))
    True
    """

    free_rank: int = 0
    torsion: tuple = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        for d in self.torsion:
            if not isinstance(d, int) or d < 2:
                raise ValueError("invariant factors must be integers >= 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError("invariant factors must form a divisibility chain")

    @classmethod
    def of(cls, free_rank: int = 0, cyclic=()) -> "FgAbGroup":
        """Canonicalize a direct sum of cyclic groups (0 means an infinite factor)."""
        finite = []
        free = free_rank
        for c in cyclic:
            c = abs(int(c))
            if c == 0:
                free += 1
            else:
                finite.append(c)
        return cls(free, _invariant_factors(finite))

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    @property
    def num_generators(self) -> int:
        return self.free_rank + len(self.torsion)

    def generator_orders(self) -> tuple:
        """Orders of the canonical generators: free ones first (order 0)."""
        return (0,) * self.free_rank + self.torsion

    def order(self):
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        return math.prod(self.torsion) if self.torsion else 1

    def to_text(self) -> str:
        if self.is_trivial:
            return "0"
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank:
            parts.append("Z^%d" % self.free_rank)
        parts.extend("Z/%d" % d for d in self.torsion)
        return "+".join(parts)

    @classmethod
    def from_text(cls, text: str) -> "FgAbGroup":
        text = text.strip()
        if text == "0":
            return cls()
        free = 0
        cyclic = []
        for part in text.split("+"):
            part = part.strip()
            if part == "Z":
                free += 1
            elif part.startswith("Z^"):
                free += int(part[2:])
            elif part.startswith("Z/"):
                cyclic.append(int(part[2:]))
            else:
                raise ValueError("cannot parse group %r" % text)
        return cls.of(free, cyclic)

    def __str__(self):
        return self.to_text()


TRIVIAL_GROUP = FgAbGroup()


def _invariant_factors(orders) -> tuple:
    """The divisibility chain d1 | d2 | ... (each >= 2) of a sum of Z/c.

    These are the invariant factors of a diagonal matrix: replacing a pair
    (a, b) by (gcd, lcm) keeps the group, and repeating it left to right
    leaves a divisibility chain.
    """
    finite = [c for c in orders if c > 1]
    for i in range(len(finite)):
        for j in range(i + 1, len(finite)):
            a, b = finite[i], finite[j]
            g = math.gcd(a, b)
            finite[i], finite[j] = g, a // g * b
    return tuple(x for x in finite if x > 1)


def _relation_columns(group: FgAbGroup) -> list:
    """Presentation relations of the group in its canonical generators."""
    n, free = group.num_generators, group.free_rank
    return [[d if i == free + j else 0 for i in range(n)]
            for j, d in enumerate(group.torsion)]


def element_is_zero(group: FgAbGroup, vector) -> bool:
    vector = list(vector)
    orders = group.generator_orders()
    if len(vector) != len(orders):
        raise ValueError("vector length does not match generator count")
    return all((x == 0) if o == 0 else (x % o == 0) for x, o in zip(vector, orders))


# ---------------------------------------------------------------------------
# homomorphisms


@dataclass(frozen=True)
class GroupHom:
    """A homomorphism given on canonical generators.

    Column j of ``matrix`` is the image of the j-th source generator in
    the target's canonical generators, so matrix shape is
    (target generators) x (source generators).
    """

    source: FgAbGroup
    target: FgAbGroup
    matrix: IntMatrix

    def __post_init__(self):
        rows = self.matrix.rows
        if len(rows) != self.target.num_generators:
            raise ValueError("matrix row count does not match target generators")
        if self.matrix.ncols != self.source.num_generators:
            raise ValueError("matrix column count does not match source generators")
        for j, d in enumerate(self.source.torsion, self.source.free_rank):
            if not element_is_zero(self.target, [d * row[j] for row in rows]):
                raise ValueError("homomorphism not well-defined on torsion generator %d" % j)


def zero_hom(source: FgAbGroup, target: FgAbGroup) -> GroupHom:
    n = source.num_generators
    return GroupHom(source, target, IntMatrix([[0] * n] * target.num_generators, n))


def check_exact(f: GroupHom, g: GroupHom) -> bool:
    """Exactness at the middle group: g o f == 0 and image(f) == kernel(g).

    Once g o f == 0, image(f) lies in kernel(g): every image column then
    maps into the target relations, and the middle relations map there
    because g is well-defined.  So only kernel(g) <= image(f) is tested.
    A zero map on either side needs one Smith form: a zero g needs f onto,
    read off the diagonal for [f | middle relations]; a zero f needs g
    injective, every kernel vector of [g | target relations] zero.
    """
    if f.target != g.source:
        raise CompositionMismatch("check_exact needs target(f) == source(g)")
    middle = f.target
    if middle.is_trivial:
        return True
    n = middle.num_generators
    g_rows = g.matrix.rows
    if not any(map(any, g_rows)):
        cols = f.matrix.columns() + _relation_columns(middle)
        _, diag, _ = _smith(_rows(cols, n), len(cols))
        return diag.count(1) == n
    f_cols = f.matrix.columns() if any(map(any, f.matrix.rows)) else []
    for col in f_cols:
        if not element_is_zero(g.target, [sum(a * b for a, b in zip(row, col))
                                          for row in g_rows]):
            return False

    # kernel of g as a lattice in Z^n: x with g.matrix @ x in the span of
    # the target relations; computed from the kernel of [g.matrix | rel_tgt]
    rel_tgt = _relation_columns(g.target)
    stacked = [[*row, *(rel[i] for rel in rel_tgt)] for i, row in enumerate(g_rows)]
    _, diag, v = _smith(stacked, n + len(rel_tgt))
    kernel = [col[:n] for col in v[sum(1 for x in diag if x):]]
    if not f_cols:
        return all(element_is_zero(middle, x) for x in kernel)
    in_image = _lattice_solver(f_cols + _relation_columns(middle))
    return all(in_image(x) for x in kernel)


def cokernel(relations: IntMatrix) -> FgAbGroup:
    """The group Z^rows modulo the column span of the relation matrix.

    Diagonal only, modulo minors: with rank r, the product of the nonzero
    invariant factors s_i is the gcd of all r x r minors, so every s_i
    divides the gcd D of the few r x r minors the rank computation
    yields.  Then Z^rows / (span + D Z^rows) is the sum of the Z/s_i and
    rows - r copies of Z/D.  Those copies, the top of the chain, become
    the free part.  No transform is built and no entry exceeds D; when
    D = 1, as for most wide matrices of full row rank, there is no torsion
    and no pass at all.

    A nonsingular square matrix has a single r x r minor, |det|, but
    s_1 ... s_(r-1) is the gcd of the (r-1) x (r-1) minors, so it divides
    the gcd g of |det| and the few the elimination yields.  The pass
    modulo g returns s_1, ..., s_(r-1) and gcd(s_r, g), whose top is
    replaced by s_r = |det| / (s_1 ... s_(r-1)); when g = 1 there is no
    pass and the answer is Z/|det|.
    """
    rows = relations.rows
    rank, minor, spare, lower = _rank_and_minor(rows, relations.ncols)
    free = len(rows) - rank
    if len(rows) == relations.ncols == rank:
        modulus = math.gcd(minor, *lower)
        chain = (_invariant_factors(_cyclic_orders_modulo(rows, modulus))[:-1]
                 if modulus > 1 else ())
        return FgAbGroup.of(0, chain + (abs(minor) // math.prod(chain),))
    modulus = math.gcd(minor, *spare)
    if modulus == 1:  # includes rank 0
        return FgAbGroup(free)
    chain = _invariant_factors(_cyclic_orders_modulo(rows, modulus))
    return FgAbGroup(free, chain[:len(chain) - free])


def _rows(columns, n: int) -> list:
    """The rows of the n-row matrix with the given columns."""
    return list(zip(*columns)) if columns else [()] * n


def _quotient(n: int, columns):
    """Z^n modulo the span of the columns, from one Smith form: the group
    Q and the rows of the projection onto Q's canonical generators (the
    rows of U for the free part, then those of invariant factors above 1)."""
    u, diag, _ = _smith(_rows(columns, n), len(columns))
    rank = sum(1 for x in diag if x)
    torsion_rows = [i for i in range(rank) if diag[i] > 1]
    return (FgAbGroup(n - rank, tuple(diag[i] for i in torsion_rows)),
            u[rank:] + [u[i] for i in torsion_rows])


def cokernel_with_projection(group: FgAbGroup, column_vectors):
    """Quotient of a group by the subgroup generated by the given columns.

    Returns (Q, proj) with proj a GroupHom from the group onto the
    canonical form Q of the quotient.
    """
    n = group.num_generators
    quotient, proj_rows = _quotient(
        n, [list(c) for c in column_vectors] + _relation_columns(group))
    return quotient, GroupHom(group, quotient, IntMatrix(proj_rows, n))


# ---------------------------------------------------------------------------
# extensions


@dataclass(frozen=True)
class Extension:
    """One extension class 0 -> A -> X -> B -> 0.

    ``a_images`` holds, for each A-generator, its image in X on the
    canonical generators of ``group`` (free ones first), as read off the
    Smith form of X's presentation; a torsion coordinate is not reduced.
    """

    group: FgAbGroup
    a_images: tuple  # ((coordinate, ...), ...), one tuple per A-generator

    def a_generator_divisible(self, index: int, divisor: int) -> bool:
        """Is the image of the A-generator divisible by ``divisor`` in X?
        On each coordinate x: divisor | x if free, gcd(divisor, d) | x on Z/d."""
        if not 0 <= index < len(self.a_images):
            raise ValueError("A-generator index out of range")
        return all(x % math.gcd(divisor, order) == 0 for x, order
                   in zip(self.a_images[index], self.group.generator_orders()))


ENUMERATION_BOUND = 64
_MAX_EXTENSION_CLASSES = 200_000


def enumerate_extensions(a: FgAbGroup, b: FgAbGroup):
    """Yield one Extension per class of Ext^1(B, A).

    Classes are enumerated through coset representatives of A/(d*A) for
    each torsion order d of B.  The presentation of the middle group has
    the lifted B-generators first and the A-generators last; one Smith
    form of it gives the canonical group and the images of A in it.
    """
    for d in a.torsion + b.torsion:
        if d > ENUMERATION_BOUND:
            raise UnsupportedShape("torsion order %d exceeds the enumeration bound" % d)
    fa, ta = a.free_rank, a.torsion
    na, a_offset = a.num_generators, b.num_generators

    reps_per_relation = []
    count = 1
    for d in b.torsion:
        ranges = [range(d)] * fa + [range(math.gcd(d, m)) for m in ta]
        reps = list(itertools.product(*ranges))
        count *= len(reps)
        if count > _MAX_EXTENSION_CLASSES:
            raise UnsupportedShape("too many extension classes to enumerate")
        reps_per_relation.append(reps)

    # each relation d e_i of B lifts to d e_i - phi_i; A keeps its own
    b_relations = _relation_columns(b)
    a_relations = [[0] * a_offset + col for col in _relation_columns(a)]
    for phi in itertools.product(*reps_per_relation):
        cols = [rel + [-c for c in rep] for rel, rep in zip(b_relations, phi)]
        group, proj_rows = _quotient(a_offset + na, cols + a_relations)
        yield Extension(group, tuple(tuple(row[a_offset + j] for row in proj_rows)
                                     for j in range(na)))


# ---------------------------------------------------------------------------
# kernels of multiplicative (unit-group) maps


def units_kernel(exponents: IntMatrix) -> FgAbGroup:
    """Kernel of the map (C^x)^m -> (C^x)^n with the given exponent matrix.

    Row i of ``exponents`` carries the powers of the i-th input coordinate,
    so the j-th output is prod_i x_i^(A[i][j]).  The kernel is reported as
    an abstract group: the count of full C^x factors appears as free_rank
    and each nonunit nonzero invariant factor d contributes a Z/d of roots
    of unity.
    """
    return cokernel(exponents)
