import functools
import hashlib
import itertools
import math
import operator
import random

import pytest

from mtspec.abelian import (FgAbGroup, GroupHom, IntMatrix, TRIVIAL_GROUP, _smith,
                            check_exact, cokernel, element_is_zero,
                            enumerate_extensions, smith_normal_form,
                            units_kernel, zero_hom)
from mtspec.errors import InternalCheckError, MtspecError

Z = FgAbGroup(1)
Z2 = FgAbGroup(2)


def snf_2x2_oracle(a, b, c, d):
    # Independent characterization obtained by exhausting row/column
    # reductions on a 2x2 integer matrix: the first invariant factor is the
    # gcd of the entries and the product of both factors is |det|.
    g = math.gcd(math.gcd(abs(a), abs(b)), math.gcd(abs(c), abs(d)))
    det = abs(a * d - b * c)
    if g == 0:
        return (0, 0)
    return (g, det // g) if det else (g, 0)


def sympy_matrix(a):
    """An IntMatrix as a sympy matrix: the oracle for products and
    determinants, which the package does not compute."""
    from sympy import Matrix
    return Matrix(len(a.rows), a.ncols, [x for row in a.rows for x in row])


def product(*factors):
    """The product of IntMatrix factors, computed by sympy."""
    result = functools.reduce(operator.mul, map(sympy_matrix, factors))
    return IntMatrix([[int(x) for x in row] for row in result.tolist()], result.cols)


def image(matrix, vector):
    """The IntMatrix times a column vector."""
    return [sum(x * y for x, y in zip(row, vector)) for row in matrix.rows]


def zeros(m, n):
    return IntMatrix([[0] * n] * m, n)


def chain_matrix(chain, m, n):
    """The m x n matrix with the chain down its diagonal, zeros elsewhere."""
    return IntMatrix([[chain[i] if i == j and i < len(chain) else 0 for j in range(n)]
                      for i in range(m)], n)


def random_matrix(rng, max_size=5, lo=-9, hi=9):
    rows = rng.randint(1, max_size)
    cols = rng.randint(1, max_size)
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def random_unimodular(rng, n):
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(4 * n):
        op = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if op == 0 and i != j:
            q = rng.randint(-3, 3)
            rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
        elif op == 1:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-a for a in rows[i]]
    return IntMatrix.from_rows(rows)


def smith_cokernel(a):
    """The cokernel read off the diagonal of the transform Smith form."""
    _, d, _ = smith_normal_form(a)
    diag = d.diagonal()
    rank = sum(1 for x in diag if x)
    return FgAbGroup(len(a.rows) - rank, tuple(x for x in diag if x > 1))


def assert_snf_contract(a):
    u, d, v = smith_normal_form(a)
    U, V = sympy_matrix(u), sympy_matrix(v)
    assert U * sympy_matrix(a) * V == sympy_matrix(d)
    assert abs(U.det()) == 1
    assert abs(V.det()) == 1
    diag = d.diagonal()
    assert all(x >= 0 for x in diag)
    for x, y in zip(diag, diag[1:]):
        if x == 0:
            assert y == 0
        else:
            assert y % x == 0
    for i, row in enumerate(d.rows):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0
    return diag


class TestSmithNormalForm:
    def test_frozen_example(self):
        a = IntMatrix.from_rows([[2, -1], [0, 3]])
        diag = assert_snf_contract(a)
        assert diag == [1, 6]
        assert snf_2x2_oracle(2, -1, 0, 3) == (1, 6)

    def test_identity(self):
        diag = assert_snf_contract(IntMatrix.identity(2))
        assert diag == [1, 1]

    def test_zero_matrix(self):
        a = IntMatrix.from_rows([[0]])
        u, d, v = smith_normal_form(a)
        assert d.rows == ((0,),)
        assert u.rows == ((1,),) and v.rows == ((1,),)

    def test_empty_shapes(self):
        def shape(matrix):
            return len(matrix.rows), matrix.ncols

        for a in (IntMatrix([[], []], 0), IntMatrix((), 3), IntMatrix((), 0)):
            m, n = shape(a)
            u, d, v = smith_normal_form(a)
            assert (shape(u), shape(d), shape(v)) == ((m, m), (m, n), (n, n))
            assert shape(a.transpose()) == (n, m)
            assert a.transpose().transpose() == a
            assert a.columns() == [[]] * n

    def test_against_2x2_oracle(self):
        rng = random.Random(7)
        for _ in range(300):
            a, b, c, d = (rng.randint(-9, 9) for _ in range(4))
            diag = assert_snf_contract(IntMatrix.from_rows([[a, b], [c, d]]))
            assert tuple(diag) == snf_2x2_oracle(a, b, c, d)

    def test_random_contract(self):
        rng = random.Random(11)
        for _ in range(200):
            assert_snf_contract(random_matrix(rng))


@pytest.mark.parametrize("rows,ncols", [
    ([[1, 2], [3]], 2),     # ragged
    ([[1]], 2),             # row shorter than the column count
    ([[1.0]], 1),           # not an integer
    ((), -1),               # negative column count
], ids=range(4))
def test_malformed_matrices_are_refused(rows, ncols):
    with pytest.raises(ValueError):
        IntMatrix(rows, ncols)


class TestFgAbGroup:
    def test_canonicalization(self):
        assert FgAbGroup.of(cyclic=(2, 3)) == FgAbGroup(0, (6,))
        assert FgAbGroup.of(cyclic=(2, 4)) == FgAbGroup(0, (2, 4))
        assert FgAbGroup.of(1, (0, 12, 60)) == FgAbGroup(2, (12, 60))

    def test_canonicalization_matches_the_smith_form(self):
        rng = random.Random(17)
        for _ in range(300):
            cyclic = [rng.randint(-40, 40) for _ in range(rng.randint(0, 6))]
            k = len(cyclic)
            diagonal = chain_matrix(cyclic, k, k)
            assert FgAbGroup.of(0, cyclic) == smith_cokernel(diagonal), cyclic

    def test_invalid_chain_rejected(self):
        with pytest.raises(ValueError):
            FgAbGroup(0, (4, 2))
        with pytest.raises(ValueError):
            FgAbGroup(0, (1,))

    def test_groups_do_not_add_or_repeat_as_tuples(self):
        # a concatenation of the fields is no direct sum
        for operation in (lambda: Z + Z2, lambda: 2 * Z, lambda: Z * 2):
            with pytest.raises(TypeError):
                operation()

    def test_text_roundtrip(self):
        for g in (TRIVIAL_GROUP, Z, Z2, FgAbGroup(1, (2, 6)), FgAbGroup(0, (6,))):
            assert FgAbGroup.from_text(g.to_text()) == g

    def test_order(self):
        assert FgAbGroup(0, (2, 6)).order() == 12
        assert Z.order() is None
        assert TRIVIAL_GROUP.order() == 1


class TestCokernel:
    def test_examples(self):
        assert cokernel(IntMatrix.from_rows([[2, -1], [0, 3]])) == FgAbGroup(0, (6,))
        assert cokernel(IntMatrix([[], []], 0)) == Z2
        assert cokernel(IntMatrix.from_rows([[2]])) == FgAbGroup(0, (2,))

    def test_invariance_under_unimodular_changes(self):
        rng = random.Random(23)
        for _ in range(30):
            a = random_matrix(rng, max_size=4)
            expected = cokernel(a)
            p = random_unimodular(rng, len(a.rows))
            q = random_unimodular(rng, a.ncols)
            assert cokernel(product(p, a, q)) == expected


def ext_order(b, a):
    """The order of Ext^1(B, A), from Ext(Z, -) = 0, Ext(Z/n, Z) = Z/n and
    Ext(Z/n, Z/m) = Z/gcd(n, m), additively over cyclic summands."""
    order = 1
    for d in b.torsion:
        order *= d ** a.free_rank * math.prod(math.gcd(d, m) for m in a.torsion)
    return order


def extension_count(a, b):
    return sum(1 for _ in enumerate_extensions(a, b))


def middle_groups(a, b):
    """Isomorphism classes of X admitting 0 -> A -> X -> B -> 0."""
    return frozenset(ext.group for ext in enumerate_extensions(a, b))


class TestExtGroup:
    """enumerate_extensions yields one extension per class of Ext^1(B, A)."""

    def test_identities(self):
        assert extension_count(Z, FgAbGroup(0, (2,))) == 2
        assert extension_count(FgAbGroup(0, (6,)), Z) == 1
        assert extension_count(FgAbGroup(0, (4,)), FgAbGroup(0, (6,))) == 2

    def test_additivity_over_summands(self):
        b = FgAbGroup(1, (2, 4))
        a = FgAbGroup(2, (6,))
        # Ext(Z/2, A) + Ext(Z/4, A) with A = Z^2 + Z/6: 2*2*2 * 4*4*2 classes
        assert ext_order(b, a) == 256
        assert extension_count(a, b) == 256
        rng = random.Random(13)
        for _ in range(20):
            a = FgAbGroup.of(rng.randint(0, 2), [rng.choice([2, 3, 4, 6])
                                                 for _ in range(rng.randint(0, 2))])
            b = FgAbGroup.of(rng.randint(0, 1), [rng.choice([2, 3, 4])
                                                 for _ in range(rng.randint(0, 2))])
            assert extension_count(a, b) == ext_order(b, a)


class TestMiddleGroups:
    def test_z_by_z2(self):
        got = middle_groups(Z, FgAbGroup(0, (2,)))
        assert got == frozenset({Z, FgAbGroup(1, (2,))})

    def test_z_by_z6(self):
        got = middle_groups(Z, FgAbGroup(0, (6,)))
        assert got == frozenset({Z, FgAbGroup(1, (2,)), FgAbGroup(1, (3,)),
                                 FgAbGroup(1, (6,))})

    def test_split_forced(self):
        assert middle_groups(Z2, TRIVIAL_GROUP) == frozenset({Z2})

    def test_always_contains_direct_sum(self):
        rng = random.Random(5)
        for _ in range(20):
            a = FgAbGroup.of(rng.randint(0, 2), [rng.choice([2, 3, 4, 6])
                                                 for _ in range(rng.randint(0, 2))])
            b = FgAbGroup.of(rng.randint(0, 1), [rng.choice([2, 3, 4])
                                                 for _ in range(rng.randint(0, 2))])
            direct_sum = FgAbGroup.of(a.free_rank + b.free_rank, a.torsion + b.torsion)
            assert direct_sum in middle_groups(a, b)

    def test_enumeration_bound(self):
        with pytest.raises(MtspecError, match="torsion order 128 exceeds the enumeration bound"):
            middle_groups(Z, FgAbGroup(0, (128,)))

    def test_torsion_at_the_enumeration_bound_enumerates(self):
        assert extension_count(Z, FgAbGroup(0, (64,))) == 64
        assert extension_count(FgAbGroup(0, (64,)), FgAbGroup(0, (2,))) == 2
        for a, b in ((Z, FgAbGroup(0, (65,))), (FgAbGroup(0, (65,)), Z)):
            with pytest.raises(MtspecError,
                               match="torsion order 65 exceeds the enumeration bound"):
                next(enumerate_extensions(a, b))

    def test_class_count_at_its_bound_enumerates(self):
        # Ext(Z/58, Z^3) has 58^3 = 195,112 classes, within the bound of
        # 200,000; Ext(Z/59, Z^3) has 59^3 = 205,379, past it
        first = next(enumerate_extensions(FgAbGroup(3), FgAbGroup(0, (58,))))
        assert first.group == FgAbGroup(3, (58,))  # the zero class splits
        with pytest.raises(MtspecError, match="too many extension classes"):
            next(enumerate_extensions(FgAbGroup(3), FgAbGroup(0, (59,))))

    def test_divisibility_marks_the_nonsplit_classes(self):
        # in 0 -> Z -> X -> Z/6 -> 0 the image of the Z generator is
        # divisible by 6 exactly when the middle is Z itself
        for ext in enumerate_extensions(Z, FgAbGroup(0, (6,))):
            divisible = ext.a_generator_divisible(0, 6)
            assert divisible == (ext.group == Z)


def finite_elements(group):
    assert group.free_rank == 0
    return list(itertools.product(*[range(d) for d in group.torsion]))


def hom_apply_oracle(hom, vec):
    orders = hom.target.generator_orders()
    return tuple(x % o for x, o in zip(image(hom.matrix, vec), orders))


def fresh(hom):
    """An equal map without a stored Smith form."""
    return GroupHom(hom.source, hom.target, hom.matrix)


def hom_from_columns(group, columns):
    """The map from Z^len(columns) to the group taking generator j to column j."""
    return GroupHom(FgAbGroup(len(columns)), group,
                    IntMatrix([[c[i] for c in columns] for i in range(len(columns[0]))]
                              if columns else [()] * group.num_generators, len(columns)))


def brute_force_exact(f, g):
    middle = finite_elements(f.target)
    image = {hom_apply_oracle(f, v) for v in finite_elements(f.source)}
    kernel = {v for v in middle
              if all(x == 0 for x in hom_apply_oracle(g, v))}
    composite_zero = all(
        all(x == 0 for x in hom_apply_oracle(g, hom_apply_oracle(f, v)))
        for v in finite_elements(f.source))
    return composite_zero and image == kernel


def random_finite_group(rng, max_order=200):
    while True:
        torsion = [rng.choice([2, 2, 3, 4, 5, 6, 8]) for _ in range(rng.randint(0, 3))]
        g = FgAbGroup.of(cyclic=torsion)
        if (g.order() or 1) <= max_order:
            return g


def random_hom(rng, source, target):
    src_orders = source.generator_orders()
    tgt_orders = target.generator_orders()
    rows = []
    for t in tgt_orders:
        row = []
        for s in src_orders:
            step = t // math.gcd(s, t)  # well-definedness on torsion
            row.append(step * rng.randrange(t // step) if step < t else 0)
        rows.append(row)
    return GroupHom(source, target, IntMatrix(rows, len(src_orders)))


class TestCheckExact:
    def test_textbook_sequence(self):
        f = GroupHom(Z, Z, IntMatrix.from_rows([[2]]))
        g = GroupHom(Z, FgAbGroup(0, (2,)), IntMatrix.from_rows([[1]]))
        assert check_exact(f, g)

    def test_times_two_into_mod_four_fails(self):
        f = GroupHom(Z, Z, IntMatrix.from_rows([[2]]))
        g = GroupHom(Z, FgAbGroup(0, (4,)), IntMatrix.from_rows([[1]]))
        assert not check_exact(f, g)

    def test_composition_mismatch(self):
        f = GroupHom(Z, Z2, IntMatrix.from_rows([[1], [0]]))
        g = GroupHom(Z, Z, IntMatrix.from_rows([[1]]))
        with pytest.raises(InternalCheckError, match=r"needs target\(f\) == source\(g\)"):
            check_exact(f, g)

    def test_well_definedness_enforced(self):
        with pytest.raises(ValueError):
            GroupHom(FgAbGroup(0, (2,)), Z, IntMatrix.from_rows([[1]]))

    def test_agrees_with_element_chase(self):
        rng = random.Random(99)
        agree_true = 0
        for _ in range(120):
            a = random_finite_group(rng)
            b = random_finite_group(rng)
            c = random_finite_group(rng)
            f = random_hom(rng, a, b)
            draw = rng.random()
            if draw < 0.5:
                g = random_hom(rng, b, c)
            else:
                # quotient by the image gives a guaranteed-exact pair; half
                # of them leave f without a stored form, half share f's
                _, g = (f if draw < 0.75 else fresh(f)).cokernel_projection()
            expected = brute_force_exact(f, g)
            assert check_exact(f, g) == expected
            assert check_exact(f, g) == expected  # again, on the stored forms
            agree_true += expected
        assert agree_true >= 20  # the sample must include genuinely exact pairs


class TestQuotientProjection:
    def test_mod_two_projection(self):
        q, proj = hom_from_columns(Z, [[2]]).cokernel_projection()
        assert q == FgAbGroup(0, (2,))
        assert not element_is_zero(q, image(proj.matrix, [1]))
        assert element_is_zero(q, image(proj.matrix, [2]))

    def test_composite_vanishes(self):
        rng = random.Random(3)
        for _ in range(25):
            g = random_finite_group(rng)
            cols = [[rng.randint(-4, 4) for _ in range(g.num_generators)]
                    for _ in range(rng.randint(0, 2))]
            q, proj = hom_from_columns(g, cols).cokernel_projection()
            for col in cols:
                assert element_is_zero(q, image(proj.matrix, col))

    @pytest.mark.parametrize("column", [[1], [1, 0, 0]], ids=["short", "long"])
    def test_column_of_the_wrong_length_is_refused(self, column):
        # unchecked, a short column would be read in a smaller group
        with pytest.raises(ValueError, match="row count"):
            hom_from_columns(FgAbGroup(2), [column])

    def test_the_zero_map_projects_onto_an_isomorphic_copy(self):
        target = FgAbGroup(1, (2, 4))
        for source in (TRIVIAL_GROUP, FgAbGroup(2)):
            zero = zero_hom(source, target)
            q, proj = zero.cokernel_projection()
            assert q == target
            assert check_exact(zero, proj)  # the projection is injective


class TestUnitsKernel:
    def test_examples(self):
        assert units_kernel(IntMatrix.from_rows([[2, -1], [0, 3]])) == FgAbGroup(0, (6,))
        assert units_kernel(IntMatrix.from_rows([[2]])) == FgAbGroup(0, (2,))
        assert units_kernel(IntMatrix.identity(3)) == TRIVIAL_GROUP

    def test_order_is_det_for_nonsingular_square(self):
        rng = random.Random(41)
        seen = 0
        while seen < 40:
            n = rng.randint(1, 4)
            a = IntMatrix.from_rows([[rng.randint(-5, 5) for _ in range(n)]
                                     for _ in range(n)])
            det = sympy_matrix(a).det()
            if det == 0:
                continue
            seen += 1
            assert units_kernel(a).order() == abs(det)

    def test_free_part_counts_unconstrained_directions(self):
        a = IntMatrix.from_rows([[1, 0], [0, 0], [2, 0]])  # rank 1, three inputs
        assert units_kernel(a) == FgAbGroup(2)


class TestCompose:
    def test_compose_mismatch(self):
        f = GroupHom(Z, Z, IntMatrix.from_rows([[1]]))
        g = GroupHom(Z2, Z, IntMatrix.from_rows([[1, 0]]))
        with pytest.raises(InternalCheckError, match=r"needs target\(f\) == source\(g\)"):
            check_exact(f, g)


# ---------------------------------------------------------------------------
# property tests of the cokernel against references independent of the
# Smith core: sympy's Smith normal form, and matrices built from a known
# invariant-factor chain.  The strategies are built inside each test, so
# that the module still imports and its other tests still run when
# hypothesis is missing.

def property_settings(hypothesis, max_examples):
    return hypothesis.settings(max_examples=max_examples, deadline=None,
                               derandomize=True, database=None)


def matrices(st, max_side, max_entry=9):
    """Any shape up to max_side (0 included); some rows are combinations."""
    @st.composite
    def build(draw):
        m = draw(st.integers(0, max_side))
        n = draw(st.integers(0, max_side))
        entries = st.integers(-max_entry, max_entry)
        rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                             min_size=m, max_size=m))
        for i in range(2, m):  # rank-deficient: row i from rows 0 and 1
            if draw(st.booleans()):
                p, q = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
                rows[i] = [p * x + q * y for x, y in zip(rows[0], rows[1])]
        return IntMatrix(rows, n)
    return build()


@pytest.mark.parametrize("a", [
    IntMatrix([[]] * 3, 0), IntMatrix((), 4), IntMatrix((), 0),
    zeros(1, 1), zeros(3, 5), zeros(4, 2),
], ids=lambda a: "%dx%d" % (len(a.rows), a.ncols))
def test_cokernel_of_empty_and_zero_matrices(a):
    assert cokernel(a) == FgAbGroup(len(a.rows))


def sympy_smith_diagonal(a):
    from sympy import ZZ
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    snf = sympy_snf(sympy_matrix(a), domain=ZZ)
    return [abs(int(snf[i, i])) for i in range(min(len(a.rows), a.ncols))]


def test_cokernel_matches_sympy():
    hypothesis = pytest.importorskip("hypothesis")
    pytest.importorskip("sympy")
    st = hypothesis.strategies

    @property_settings(hypothesis, 25)
    @hypothesis.given(matrices(st, 8).filter(lambda a: a.rows and a.ncols))
    def check(a):
        diag = sympy_smith_diagonal(a)
        rank = sum(1 for x in diag if x)
        assert cokernel(a) == FgAbGroup(len(a.rows) - rank, tuple(x for x in diag if x > 1))

    check()


@pytest.mark.parametrize("chain,shape", [
    ((1, 1, 1), (3, 3)),                    # unimodular
    ((1, 1), (2, 4)),                       # wide, no torsion
    ((2, 6, 0), (3, 3)),                    # rank-deficient
    ((3, 3 * 2 ** 70), (2, 2)),             # a factor above 2^64
    ((1, 2, 2 ** 66 + 2), (5, 3)),          # tall, a factor above 2^64
    ((1,), (1, 4)),                         # one row
    ((1, 0, 0), (3, 6)),                    # wide, rank-deficient
    ((1, 1, 0, 0), (4, 6)),                 # wide, rank-deficient
    ((1, 1, 1), (3, 7)),                    # wide, no torsion
    ((1, 1, 1, 3), (4, 8)),                 # wide, cyclic torsion
    ((2, 2, 2), (3, 7)),                    # wide, torsion not cyclic
    ((1, 1, 3, 0), (4, 9)),                 # wide, torsion and a free part
], ids=str)
def test_cokernel_of_a_known_chain(chain, shape):
    rng = random.Random(repr(chain))
    m, n = shape
    a = product(random_unimodular(rng, m), chain_matrix(chain, m, n),
                random_unimodular(rng, n))
    rank = sum(1 for x in chain if x)
    assert cokernel(a) == FgAbGroup(m - rank, tuple(x for x in chain if x > 1))
    if m == n == rank:
        assert abs(sympy_matrix(a).det()) == math.prod(chain)


def test_cokernel_of_random_known_chains():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @property_settings(hypothesis, 100)
    @hypothesis.given(
        factors=st.lists(st.sampled_from([1, 1, 2, 3, 5, 2 ** 65 + 1]), max_size=5),
        zeros=st.integers(0, 2), extra_rows=st.integers(0, 2),
        extra_cols=st.integers(0, 2), seed=st.integers(0, 2 ** 32))
    def check(factors, zeros, extra_rows, extra_cols, seed):
        chain = list(itertools.accumulate(factors, lambda x, y: x * y)) + [0] * zeros
        m, n = len(chain) + extra_rows, len(chain) + extra_cols
        rng = random.Random(seed)
        a = product(random_unimodular(rng, m), chain_matrix(chain, m, n),
                    random_unimodular(rng, n))
        rank = len(factors)
        assert cokernel(a) == FgAbGroup(m - rank, tuple(x for x in chain if x > 1))

    check()


def test_square_cokernel_matches_sympy():
    # nonsingular square matrices of a known chain; the draws must reach
    # both cyclic and non-cyclic answers
    hypothesis = pytest.importorskip("hypothesis")
    pytest.importorskip("sympy")
    st = hypothesis.strategies
    seen = set()

    @property_settings(hypothesis, 80)
    @hypothesis.given(
        factors=st.lists(st.sampled_from([1, 1, 2, 3, 4, 5, 2 ** 65 + 1]),
                         min_size=1, max_size=6),
        seed=st.integers(0, 2 ** 32))
    def check(factors, seed):
        chain = list(itertools.accumulate(factors, lambda x, y: x * y))
        n = len(chain)
        rng = random.Random(seed)
        a = product(random_unimodular(rng, n), chain_matrix(chain, n, n),
                    random_unimodular(rng, n))
        diag = sympy_smith_diagonal(a)
        assert diag == chain
        torsion = tuple(x for x in diag if x > 1)
        assert cokernel(a) == FgAbGroup(0, torsion)
        seen.add("cyclic" if len(torsion) <= 1 else "not cyclic")

    check()
    assert seen == {"cyclic", "not cyclic"}


# ---------------------------------------------------------------------------
# property tests of the transform Smith form: its contract on every kind of
# input, and its diagonal against sympy's

def smith_inputs(st, max_side):
    """Any shape and rank from ``matrices``, plus zero and unimodular ones."""
    zero = st.builds(zeros, st.integers(0, max_side), st.integers(0, max_side))
    unimodular = st.builds(lambda n, seed: random_unimodular(random.Random(seed), n),
                           st.integers(1, max_side), st.integers(0, 2 ** 32))
    return st.one_of(matrices(st, max_side), zero, unimodular)


def test_smith_normal_form_contract():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @property_settings(hypothesis, 150)
    @hypothesis.given(smith_inputs(st, 8))
    def check(a):
        assert_snf_contract(a)

    check()


def test_smith_diagonal_matches_sympy():
    hypothesis = pytest.importorskip("hypothesis")
    pytest.importorskip("sympy")
    st = hypothesis.strategies

    @property_settings(hypothesis, 40)
    @hypothesis.given(smith_inputs(st, 8).filter(lambda a: a.rows and a.ncols))
    def check(a):
        _, d, _ = smith_normal_form(a)
        assert d.diagonal() == sympy_smith_diagonal(a)

    check()


def seeded_rows(shape, torsion=False, deficient=0):
    """The rows of a seeded matrix of this shape with entries in [-9, 9];
    with ``torsion``, multiples of 2, 3 or 6 in [-24, 24] instead, so that
    pivots above 1 pull stray rows in.  The last ``deficient`` rows are
    combinations of two earlier ones."""
    rng = random.Random(repr(shape))
    m, n = shape
    if torsion:
        entry = lambda: rng.choice([2, 3, 6]) * rng.randint(-4, 4)
    else:
        entry = lambda: rng.randint(-9, 9)
    rows = [[entry() for _ in range(n)] for _ in range(m - deficient)]
    for _ in range(deficient):
        a, b = rng.sample(rows, 2)
        s = rng.randint(-3, 3)
        rows.append([x + s * y for x, y in zip(a, b)])
    return rows


@pytest.mark.parametrize("shape", [(40, 40), (30, 40)], ids=str)
def test_smith_transforms_stay_small(shape):
    # choosing a new pivot from the whole block after every partial
    # reduction lets these entries reach about 1,450 digits at 40 x 40;
    # finishing each pivot first keeps them near 550
    a = IntMatrix.from_rows(seeded_rows(shape))
    u, d, v = smith_normal_form(a)
    assert sympy_matrix(u) * sympy_matrix(a) * sympy_matrix(v) == sympy_matrix(d)
    assert all(abs(x) < 10 ** 800 for t in (u, v) for row in t.rows for x in row)


# sha256 of repr((U rows, diagonal, V columns)): a change to a quotient, a
# tie-break or the order of the steps changes the transforms and so these
@pytest.mark.parametrize("shape, torsion, deficient, digest", [
    ((40, 40), False, 0, "2ad110bb026a269eeb83d4576e946c6a19c6b96f84e040515f3d02aa33ed19ad"),
    ((30, 40), False, 0, "5191dc7bdf97e0536f6b59513466a8b05e978dd3c7756f91afbcd2e82c62f3aa"),
    ((12, 12), True, 3, "39cf527e6e648da29c16890340b5ca3b0974c2c26e29a70bd36611eb7f4f6ca5"),
    ((9, 12), True, 0, "d814fcabe0203072944f2a5cb104fef63e56d20c250310ab696c231fb8d66beb"),
], ids=lambda x: str(x)[:12])
def test_smith_transforms_are_pinned(shape, torsion, deficient, digest):
    rows = seeded_rows(shape, torsion, deficient)
    result = _smith(rows, shape[1])
    assert rows == seeded_rows(shape, torsion, deficient)  # the input is not modified
    assert hashlib.sha256(repr(result).encode()).hexdigest() == digest


def composable_pairs(st, max_order=36):
    """(f, g) through a finite middle group of order <= max_order; either
    map may be zero, and g may be the projection onto the cokernel of f,
    which makes the pair exact.  That projection is read off f's stored
    Smith form, or off an equal map's, which leaves f without one."""
    groups = st.lists(st.sampled_from([2, 3, 4, 5, 6, 8, 9]), max_size=3).map(
        lambda cyclic: FgAbGroup.of(cyclic=cyclic)).filter(
        lambda group: group.order() <= max_order)

    def hom(draw, source, target, zero):
        rows = [[0 if zero else t // math.gcd(s, t) * draw(st.integers(0, math.gcd(s, t) - 1))
                 for s in source.generator_orders()]
                for t in target.generator_orders()]
        return GroupHom(source, target, IntMatrix(rows, source.num_generators))

    @st.composite
    def build(draw):
        a, b = draw(groups), draw(groups)
        f = hom(draw, a, b, draw(st.booleans()))
        kind = draw(st.sampled_from(["random", "zero", "cokernel", "cokernel of a copy"]))
        if kind.startswith("cokernel"):
            _, g = (f if kind == "cokernel" else fresh(f)).cokernel_projection()
        else:
            g = hom(draw, b, draw(groups), kind == "zero")
        return f, g
    return build()


def test_check_exact_matches_the_element_chase():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    seen = set()

    @property_settings(hypothesis, 300)
    @hypothesis.given(composable_pairs(st))
    def check(pair):
        f, g = pair
        seen.add("f stored" if "_smith_form" in vars(f) else "f cold")
        exact = brute_force_exact(f, g)
        assert check_exact(f, g) == exact
        assert check_exact(f, g) == exact  # again, on the forms the first call kept
        outcome = "exact" if exact else "not exact"
        seen.add(outcome)
        if f.target.is_trivial:
            seen.add("trivial middle")
            return
        # a zero side takes its own path; a map from or to the trivial
        # group, with an empty matrix, is zero as well
        for name, hom in (("f", f), ("g", g)):
            if not any(map(any, hom.matrix.rows)):
                seen.add("zero %s, %s" % (name, outcome))
                if 0 in (len(hom.matrix.rows), hom.matrix.ncols):
                    seen.add("empty " + name)

    check()
    assert seen == {"exact", "not exact", "trivial middle", "empty f", "empty g",
                    "zero f, exact", "zero f, not exact",
                    "zero g, exact", "zero g, not exact", "f stored", "f cold"}


def test_cokernel_projection_matches_the_element_chase():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @property_settings(hypothesis, 200)
    @hypothesis.given(composable_pairs(st))
    def check(pair):
        f, _ = pair
        q, proj = f.cokernel_projection()
        assert (proj.source, proj.target) == (f.target, q)
        image = {hom_apply_oracle(f, v) for v in finite_elements(f.source)}
        assert q.order() * len(image) == f.target.order()
        assert all(not any(hom_apply_oracle(proj, x)) for x in image)
        onto = {hom_apply_oracle(proj, v) for v in finite_elements(f.target)}
        assert onto == set(finite_elements(q))

    check()


class TestStoredSmithForm:
    def test_a_map_is_factored_once(self, monkeypatch):
        # h, times 2 on Z, is g in one check, the map a quotient is read
        # off, and f in the next check: its form is computed once, and so
        # is that of the projection
        from mtspec import abelian
        factored = []

        def counting(rows, ncols, _original=abelian._smith):
            factored.append(tuple(map(tuple, rows)))
            return _original(rows, ncols)
        monkeypatch.setattr(abelian, "_smith", counting)
        h = GroupHom(Z, Z, IntMatrix.from_rows([[2]]))
        assert check_exact(zero_hom(Z, Z), h)
        q, proj = h.cokernel_projection()
        assert q == Z_MOD_2
        assert check_exact(h, proj)
        assert factored == [((2,),), ((1, 2),)]  # h, then [proj | 2] into Z/2

    def test_a_matrix_is_factored_once(self, monkeypatch):
        # the transform form, the cokernel and the units kernel of one
        # matrix all read its one stored form
        from mtspec import abelian
        factored = []

        def counting(rows, ncols, _original=abelian._smith):
            factored.append(tuple(map(tuple, rows)))
            return _original(rows, ncols)
        monkeypatch.setattr(abelian, "_smith", counting)
        a = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
        first, second = smith_normal_form(a), smith_normal_form(a)
        assert first == second
        assert first[1].diagonal() == [2, 6, 12]
        assert cokernel(a) == units_kernel(a) == FgAbGroup(0, (2, 6, 12))
        assert factored == [a.rows]
        other = IntMatrix.from_rows(a.rows)  # an equal matrix keeps its own
        assert "_smith_form" in vars(a) and "_smith_form" not in vars(other)
        assert a == other and hash(a) == hash(other) and repr(a) == repr(other)

    def test_the_stored_form_is_not_a_field(self):
        h = GroupHom(Z2, FgAbGroup(0, (4,)), IntMatrix.from_rows([[2, 0]]))
        h.cokernel_projection()
        other = fresh(h)
        assert "_smith_form" in vars(h) and "_smith_form" not in vars(other)
        assert h == other and hash(h) == hash(other) and repr(h) == repr(other)
        assert GroupHom._fields == ("source", "target", "matrix")
        zero = zero_hom(Z, Z_MOD_2)  # built without the checks of __new__
        zero.cokernel_projection()
        assert zero == GroupHom(Z, Z_MOD_2, IntMatrix([[0]], 1))
        assert hash(zero) == hash(GroupHom(Z, Z_MOD_2, IntMatrix([[0]], 1)))


def hom_of(source, target, rows):
    return GroupHom(source, target, IntMatrix(rows, source.num_generators))


Z_MOD_2 = FgAbGroup(0, (2,))


@pytest.mark.parametrize("f,g,exact", [
    # zero f: exact when g is injective
    (hom_of(Z, Z, [[0]]), hom_of(Z, Z, [[2]]), True),
    (hom_of(TRIVIAL_GROUP, Z, [[]]), hom_of(Z, Z, [[-1]]), True),
    (hom_of(Z, Z, [[0]]), hom_of(Z, Z_MOD_2, [[1]]), False),
    (hom_of(TRIVIAL_GROUP, Z, [[]]), hom_of(Z, Z2, [[3], [0]]), True),
    # zero g: exact when f is onto
    (hom_of(Z, Z, [[-1]]), hom_of(Z, Z, [[0]]), True),
    (hom_of(Z, Z, [[2]]), hom_of(Z, TRIVIAL_GROUP, []), False),
    (hom_of(Z2, Z, [[2, 3]]), hom_of(Z, TRIVIAL_GROUP, []), True),
    (hom_of(Z_MOD_2, Z, [[0]]), hom_of(Z, Z_MOD_2, [[0]]), False),
], ids=range(8))
def test_zero_side_on_a_free_middle(f, g, exact):
    # the element chase needs finite groups; these are decided by hand
    assert check_exact(f, g) == exact


Z3 = FgAbGroup(3)


@pytest.mark.parametrize("f,g,exact", [
    (hom_of(Z, Z2, [[1], [0]]), hom_of(Z2, Z, [[0, 1]]), True),
    # the kernel holds e1, and the image only 2 e1
    (hom_of(Z, Z2, [[2], [0]]), hom_of(Z2, Z, [[0, 1]]), False),
    # the kernel holds e3, past the rank of the image
    (hom_of(Z, Z3, [[1], [0], [0]]), hom_of(Z3, Z, [[0, 1, 0]]), False),
    (hom_of(Z2, Z3, [[1, 0], [0, 0], [0, 1]]), hom_of(Z3, Z, [[0, 1, 0]]), True),
], ids=range(4))
def test_both_sides_nonzero_on_a_free_middle(f, g, exact):
    # membership in the image needs U x divisible by the diagonal and zero
    # past its rank; only a middle with free rank reaches the second part
    assert check_exact(f, g) == exact


# ---------------------------------------------------------------------------
# extensions against their presentations

def presentations(a, b):
    """(n, a_offset, relation columns) of each class, in the order
    enumerate_extensions yields them: the B-generators first, then A's;
    column i of the B part is d_i e_i minus a coset representative of
    A/(d_i A), and A's relations close the list."""
    fa, ta, fb, tb = a.free_rank, a.torsion, b.free_rank, b.torsion
    a_offset = fb + len(tb)
    n = a_offset + fa + len(ta)
    reps = [list(itertools.product(*([range(d)] * fa + [range(math.gcd(d, m)) for m in ta])))
            for d in tb]
    for phi in itertools.product(*reps):
        cols = []
        for i, d in enumerate(tb):
            col = [0] * n
            col[fb + i] = d
            for j, c in enumerate(phi[i]):
                col[a_offset + j] -= c
            cols.append(col)
        for j, m in enumerate(ta):
            col = [0] * n
            col[a_offset + fa + j] = m
            cols.append(col)
        yield n, a_offset, cols


def small_group_pairs(st, max_classes=200):
    """(A, B) with at most max_classes extension classes."""
    a = st.builds(lambda free, cyclic: FgAbGroup.of(free, cyclic),
                  st.integers(0, 2), st.lists(st.sampled_from([2, 3, 4, 6, 9]), max_size=2))
    b = st.builds(lambda free, cyclic: FgAbGroup.of(free, cyclic),
                  st.integers(0, 1), st.lists(st.sampled_from([2, 3, 4, 6, 12]), max_size=2))
    return st.tuples(a, b).filter(lambda ab: ext_order(ab[1], ab[0]) <= max_classes)


def relation_matrix(n, cols):
    return IntMatrix([[col[i] for col in cols] for i in range(n)], len(cols))


def test_extension_group_is_the_cokernel_of_its_presentation():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @property_settings(hypothesis, 60)
    @hypothesis.given(small_group_pairs(st))
    def check(pair):
        a, b = pair
        extensions = list(enumerate_extensions(a, b))
        assert len(extensions) == ext_order(b, a)
        for ext, (n, _, cols) in zip(extensions, presentations(a, b)):
            assert ext.group == cokernel(relation_matrix(n, cols))

    check()


def sympy_lattice_contains(n, cols, vector):
    """vector in the Z-span of cols, decided by sympy: Z^n / span(cols) maps
    onto Z^n / span(cols + [vector]), so they agree exactly when the two
    Smith forms have the same nonzero invariant factors."""
    def factors(columns):
        if not columns:
            return []
        return [x for x in sympy_smith_diagonal(relation_matrix(n, columns)) if x]
    return factors(cols) == factors(cols + [vector])


def test_a_generator_divisible_matches_the_lattice():
    # the image of an A-generator is divisible by g in X = Z^n / span(R)
    # exactly when its basis vector lies in g Z^n + span(R)
    hypothesis = pytest.importorskip("hypothesis")
    pytest.importorskip("sympy")
    st = hypothesis.strategies
    seen = set()

    @property_settings(hypothesis, 40)
    @hypothesis.given(small_group_pairs(st).filter(lambda ab: ab[0].num_generators),
                      st.integers(2, 12), st.data())
    def check(pair, divisor, data):
        a, b = pair
        classes = list(zip(enumerate_extensions(a, b), presentations(a, b)))
        ext, (n, a_offset, cols) = data.draw(st.sampled_from(classes))
        for index in range(a.num_generators):
            basis = [int(i == a_offset + index) for i in range(n)]
            scaled = [[divisor * int(i == j) for i in range(n)] for j in range(n)]
            expected = sympy_lattice_contains(n, scaled + cols, basis)
            assert ext.a_generator_divisible(index, divisor) == expected
            seen.add(expected)

    check()
    assert seen == {True, False}


def test_a_generator_index_is_checked():
    ext = next(enumerate_extensions(Z, FgAbGroup(0, (6,))))
    with pytest.raises(ValueError):
        ext.a_generator_divisible(1, 2)
