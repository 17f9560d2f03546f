import copy
import inspect
import pickle
import random
from fractions import Fraction

import pytest

from mtspec.abelian import FgAbGroup
from mtspec.certified import load_data
from mtspec.classify import (ExtensionClass, TheoryParams, _restriction, classify,
                             gilmer_masbaum_report, mcg_extension_class, restrict_theory,
                             restriction_kernel)
from mtspec.errors import MtspecError
from mtspec.exactnum import ExactComplex


def zeta(order, power=1):
    return ExactComplex.root_of_unity(order, power)


def levels_matrix(d, n_from, n_to):
    # the exponent matrix of restrict_theory and restriction_kernel, from
    # their one prelude, which checks the levels
    return _restriction(d, n_from, n_to, load_data())[1]


def random_rational(rng):
    num = rng.choice([n for n in range(-20, 21) if n])
    return Fraction(num, rng.randint(1, 20))


class TestClassify:
    def test_fully_local_four_dimensional(self):
        tg = classify(4, 4)
        assert tg.unit_rank == 2
        assert tg.basis_names == ("eu", "p1u")
        assert tg.finite_part.is_trivial

    def test_lower_levels_of_four(self):
        for n in (1, 2, 3):
            tg = classify(4, n)
            assert tg.unit_rank == 2
            assert tg.basis_names == ("psi", "sigma")

    def test_dimension_three_trivial(self):
        for n in (1, 2, 3):
            tg = classify(3, n)
            assert (tg.unit_rank, tg.finite_part) == (0, FgAbGroup())

    def test_dimension_one_trivial(self):
        tg = classify(1, 1)
        assert (tg.unit_rank, tg.finite_part) == (0, FgAbGroup())

    def test_dimension_two(self):
        assert classify(2, 1).basis_names == ("tau",)
        assert classify(2, 2).basis_names == ("cu",)
        assert classify(2, 1).unit_rank == classify(2, 2).unit_rank == 1

    def test_equivalent_covers_classify_identically(self):
        groups = {(classify(4, n).unit_rank, classify(4, n).basis_names)
                  for n in (1, 2, 3)}
        assert len(groups) == 1

    def test_out_of_range(self):
        with pytest.raises(MtspecError, match="need 1 <= n <= d <= 4"):
            classify(5, 1)
        with pytest.raises(MtspecError, match="need 1 <= n <= d <= 4"):
            classify(2, 3)


class TestRestrictionMatrix:
    def test_four_to_three(self):
        m = levels_matrix(4, 4, 3)
        assert m.rows == ((2, -1), (0, 3))

    def test_two_to_one(self):
        assert levels_matrix(2, 2, 1).rows == ((2,),)

    def test_grid_equivalent_levels_are_identity(self):
        assert levels_matrix(4, 3, 2).rows == ((1, 0), (0, 1))
        assert levels_matrix(4, 2, 1).rows == ((1, 0), (0, 1))

    def test_dimension_three_is_empty(self):
        m = levels_matrix(3, 3, 1)
        assert (m.rows, m.ncols) == ((), 0)

    def test_levels_must_go_down(self):
        for n_from, n_to in ((3, 4), (3, 3)):
            with pytest.raises(MtspecError, match="n_to < n_from"):
                levels_matrix(4, n_from, n_to)


class TestRestrictTheory:
    def test_stated_formula_example(self):
        out = restrict_theory(4, 4, 3, TheoryParams.of([2, 3]))
        assert list(out) == [ExactComplex.of(4), ExactComplex.of(Fraction(27, 2))]
        assert copy.copy(out) == pickle.loads(pickle.dumps(out)) == out

    def test_two_dimensional_squaring(self):
        out = restrict_theory(2, 2, 1, TheoryParams.of([Fraction(-3, 2)]))
        assert out[0] == ExactComplex.of(Fraction(9, 4))

    def test_identity_parameters(self):
        out = restrict_theory(4, 4, 3, TheoryParams.of([1, 1]))
        assert all(v == ExactComplex.one() for v in out)

    def test_formula_on_random_rationals(self):
        rng = random.Random(13)
        for _ in range(100):
            l1, l2 = random_rational(rng), random_rational(rng)
            out = restrict_theory(4, 4, 3, TheoryParams.of([l1, l2]))
            assert out == (ExactComplex.of(l1 * l1), ExactComplex.of(l2 ** 3 / l1))

    def test_functoriality(self):
        rng = random.Random(31)
        for _ in range(25):
            params = TheoryParams.of([random_rational(rng), random_rational(rng)])
            direct = restrict_theory(4, 4, 1, params)
            stepped = restrict_theory(
                4, 3, 1, restrict_theory(4, 4, 3, params))
            assert direct == stepped


class TestRestrictionKernel:
    def test_four_to_three_is_sixth_roots(self):
        kernel = restriction_kernel(4, 4, 3)
        assert kernel.group == FgAbGroup(0, (6,))
        expected = {(zeta(6, 3 * k), zeta(6, k)) for k in range(6)}
        assert set(kernel.elements) == expected

    def test_two_to_one_is_signs(self):
        kernel = restriction_kernel(2, 2, 1)
        assert kernel.group == FgAbGroup(0, (2,))
        assert set(kernel.elements) == {(ExactComplex.one(),), (zeta(2),)}

    def test_equivalence_levels_have_trivial_kernel(self):
        kernel = restriction_kernel(4, 3, 1)
        assert kernel.group.is_trivial
        assert kernel.elements == ((ExactComplex.one(), ExactComplex.one()),)

    def test_bad_levels_keep_their_messages(self):
        # both check the levels before they classify the target one, so a
        # bad target level gets one message
        with pytest.raises(MtspecError, match="n_to < n_from"):
            restriction_kernel(4, 3, 5)
        with pytest.raises(MtspecError, match="n_to < n_from"):
            restrict_theory(4, 4, 5, TheoryParams.of([1, 1]))

    def test_kernel_order_matches_determinant(self):
        from sympy import Matrix
        m = levels_matrix(4, 4, 3)
        assert restriction_kernel(4, 4, 3).group.order() == abs(Matrix(m.rows).det())

    def test_kernel_elements_restrict_trivially(self):
        rng = random.Random(43)
        for kappa in restriction_kernel(4, 4, 3).elements:
            params = TheoryParams.of([random_rational(rng), random_rational(rng)])
            twisted = TheoryParams.of(
                [k * p for k, p in zip(kappa, params)])
            assert restrict_theory(4, 4, 3, twisted) == restrict_theory(4, 4, 3, params)


class TestMcgExtensions:
    def test_dictionary_values(self):
        assert mcg_extension_class(ExtensionClass(6)) == 12
        assert mcg_extension_class(ExtensionClass(2)) == 4
        assert mcg_extension_class(ExtensionClass(1)) == 2

    def test_additive(self):
        rng = random.Random(3)
        for _ in range(20):
            a, b = rng.randint(-9, 9), rng.randint(-9, 9)
            assert mcg_extension_class(ExtensionClass(a + b)) == \
                mcg_extension_class(ExtensionClass(a)) + \
                mcg_extension_class(ExtensionClass(b))


class TestGilmerMasbaum:
    def test_certificate(self):
        report = gilmer_masbaum_report()
        assert report.group == FgAbGroup(1)
        assert report.generator == "rho"
        assert report.atiyah_class == ExtensionClass(6)
        assert report.walker_class == ExtensionClass(2)
        assert report.gilmer_class == ExtensionClass(1)
        assert not report.fundamental_realizable

    def test_dictionary(self):
        report = gilmer_masbaum_report()
        assert report.mcg_dictionary == (("atiyah", 6, 12), ("walker", 2, 4),
                                         ("gilmer", 1, 2))


def test_submodule_is_not_shadowed_by_the_package():
    # the package namespace re-exports nothing, so the attribute stays the module
    import mtspec.classify
    assert inspect.ismodule(mtspec.classify)
