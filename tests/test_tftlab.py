import random
import re
import time
from fractions import Fraction

import pytest

from mtspec import tftlab
from mtspec.certified import load_data
from mtspec.classify import restriction_kernel
from mtspec.errors import (DimensionMismatch, InvalidManifold, MissingKr,
                           UnknownManifold)
from mtspec.exactnum import ExactComplex
from mtspec.tftlab import (FormalSum, ManifoldClass, SurfaceBordism,
                           connected_sum, disjoint_union,
                           euler_theory_value, frobenius_closed_value,
                           frobenius_surface_value, invertible_4d_value,
                           is_vf_nullbordant, parse_formal_sum, parse_manifold,
                           standard_manifolds, vf_invariant)

CATALOG = standard_manifolds()
FOUR_MANIFOLDS = sorted(n for n, m in load_data().manifolds.items() if m.dim == 4)


def sigma(g):
    return CATALOG.get("Sigma_%d" % g)


def single(manifold):
    return FormalSum.of([(manifold, 1)])


def rational(value):
    return ExactComplex.of(Fraction(value))


class TestCatalog:
    def test_surfaces(self):
        assert sigma(3).euler == -4
        assert sigma(0).euler == 2

    def test_complex_projective_plane(self):
        cp2 = CATALOG.get("CP2")
        assert (cp2.euler, cp2.signature, cp2.p1_number) == (3, 1, 3)
        assert cp2.p1_number == 3 * cp2.signature

    def test_k3(self):
        k3 = CATALOG.get("K3")
        assert (k3.euler, k3.signature, k3.p1_number) == (24, -16, -48)

    def test_product_family(self):
        m = CATALOG.get("S2xSigma_2")
        assert (m.euler, m.signature, m.p1_number) == (-4, 0, 0)

    def test_circle_has_semicharacteristic(self):
        assert CATALOG.get("S1").kr == 1

    def test_unknown_name(self):
        with pytest.raises(UnknownManifold):
            CATALOG.get("RP7")

    def test_every_four_manifold_satisfies_signature_theorem(self):
        for name in FOUR_MANIFOLDS:
            m = CATALOG.get(name)
            assert m.p1_number == 3 * m.signature
            assert (m.euler + m.signature) % 2 == 0


class TestConstructors:
    def test_forbidden_descriptors(self):
        with pytest.raises(InvalidManifold):
            ManifoldClass("bad", 3, euler=1)
        with pytest.raises(InvalidManifold):
            ManifoldClass("bad", 4, euler=3, signature=0)  # parity violated
        with pytest.raises(InvalidManifold):
            ManifoldClass("bad", 2, euler=2, signature=1)
        with pytest.raises(InvalidManifold):
            ManifoldClass("bad", 2, euler=2, kr=1)
        # p1 = 3 * signature is computed: it cannot be given off the theorem
        with pytest.raises(TypeError, match="p1_number"):
            ManifoldClass("bad", 4, euler=2, signature=0, p1_number=5)
        with pytest.raises(TypeError, match="p1_number"):
            ManifoldClass("bad", 4, euler=3, signature=1, p1_number=0)

    def test_sums_keep_the_signature_theorem(self):
        for a in FOUR_MANIFOLDS:
            for b in FOUR_MANIFOLDS:
                for m in (connected_sum(CATALOG.get(a), CATALOG.get(b)),
                          disjoint_union(CATALOG.get(a), CATALOG.get(b))):
                    assert m.p1_number == 3 * m.signature

    def test_connected_sum(self):
        cp2 = CATALOG.get("CP2")
        both = connected_sum(cp2, cp2)
        assert (both.euler, both.signature) == (4, 2)
        assert (both.euler + both.signature) % 2 == 0
        genus_sum = connected_sum(sigma(1), sigma(2))
        assert genus_sum.euler == sigma(3).euler

    def test_disjoint_union(self):
        s4 = CATALOG.get("S4")
        assert disjoint_union(s4, s4).euler == 4
        pair = disjoint_union(CATALOG.get("S1"), CATALOG.get("S1"))
        assert pair.kr == 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            disjoint_union(CATALOG.get("S2"), CATALOG.get("S4"))
        with pytest.raises(DimensionMismatch):
            connected_sum(CATALOG.get("S1"), CATALOG.get("S1"))

    def test_constructed_four_manifolds_keep_parity(self):
        rng = random.Random(8)
        for _ in range(30):
            a = CATALOG.get(rng.choice(FOUR_MANIFOLDS))
            b = CATALOG.get(rng.choice(FOUR_MANIFOLDS))
            built = connected_sum(a, b) if rng.random() < 0.5 else disjoint_union(a, b)
            assert (built.euler + built.signature) % 2 == 0


class TestVfInvariants:
    def test_surface_relations(self):
        for g in range(11):
            s = FormalSum.of([(sigma(g), 1), (CATALOG.get("S2"), g - 1)])
            assert vf_invariant(2, s) == (0,)
            assert is_vf_nullbordant(2, s)

    def test_circle_doubling(self):
        s1 = CATALOG.get("S1")
        assert vf_invariant(1, FormalSum.of([(s1, 2)])) == (0,)
        assert not is_vf_nullbordant(1, single(s1))

    def test_sphere_generates_dimension_two(self):
        for k in range(-3, 4):
            s = FormalSum.of([(CATALOG.get("S2"), k)])
            assert is_vf_nullbordant(2, s) == (k == 0)

    def test_dimension_three_always_bounds(self):
        for name in ("S3", "T3"):
            s = single(CATALOG.get(name))
            assert vf_invariant(3, s) == ()
            assert is_vf_nullbordant(3, s)

    def test_projective_plane_invariant(self):
        assert vf_invariant(4, single(CATALOG.get("CP2"))) == (2, 1)

    def test_product_relations(self):
        for g in range(11):
            s = FormalSum.of([(CATALOG.get("S2xSigma_%d" % g), 1),
                              (CATALOG.get("S4"), -(2 - 2 * g))])
            assert vf_invariant(4, s) == (0, 0)

    def test_additivity(self):
        rng = random.Random(77)
        for _ in range(20):
            a = FormalSum.of([(CATALOG.get(rng.choice(FOUR_MANIFOLDS)), rng.randint(-3, 3))])
            b = FormalSum.of([(CATALOG.get(rng.choice(FOUR_MANIFOLDS)), rng.randint(-3, 3))])
            va, vb = vf_invariant(4, a), vf_invariant(4, b)
            vsum = vf_invariant(4, FormalSum.of(a.terms + b.terms))
            assert vsum == tuple(x + y for x, y in zip(va, vb))

    def test_missing_kr(self):
        bare = ManifoldClass("loop", 1, euler=0)
        with pytest.raises(MissingKr):
            vf_invariant(1, single(bare))

    def test_mixed_dimension_rejected(self):
        with pytest.raises(DimensionMismatch):
            FormalSum.of([(CATALOG.get("S2"), 1), (CATALOG.get("S4"), 1)])


class TestFrobenius:
    def test_closed_values(self):
        mu = rational(Fraction(7, 3))
        assert frobenius_closed_value(mu, 1) == ExactComplex.one()
        assert frobenius_closed_value(mu, 0) == mu
        assert frobenius_closed_value(4, 2).rational_value() == Fraction(1, 4)

    def test_surface_values(self):
        mu = rational(Fraction(7, 3))
        for g in range(5):
            assert frobenius_surface_value(mu, sigma(g)) == \
                frobenius_closed_value(mu, g)
        # multiplicative under disjoint union: mu^(chi/2)
        two_spheres = disjoint_union(CATALOG.get("S2"), CATALOG.get("S2"))
        assert frobenius_surface_value(mu, two_spheres) == mu * mu
        with pytest.raises(DimensionMismatch):
            frobenius_surface_value(mu, CATALOG.get("S4"))


class TestEulerTheory:
    def test_relative_zero(self):
        assert euler_theory_value(rational(9), SurfaceBordism(3, 3)) == ExactComplex.one()

    def test_closed_surface(self):
        lam = rational(Fraction(2, 5))
        for g in range(5):
            value = euler_theory_value(lam, SurfaceBordism(2 - 2 * g, 0))
            assert value == lam ** (2 - 2 * g)

    def test_negative_relative_euler(self):
        lam = rational(3)
        assert euler_theory_value(lam, SurfaceBordism(-1, 1)).rational_value() \
            == Fraction(1, 9)

    def test_matches_frobenius_at_square(self):
        rng = random.Random(55)
        for _ in range(20):
            lam = ExactComplex.of(Fraction(rng.choice([n for n in range(-9, 10) if n]),
                                           rng.randint(1, 9)))
            for g in range(11):
                closed = euler_theory_value(lam, SurfaceBordism(2 - 2 * g, 0))
                assert closed == frobenius_closed_value(lam * lam, g)


class TestFourDimensionalTheory:
    def test_catalog_values(self):
        l1, l2 = rational(2), rational(3)
        assert invertible_4d_value(l1, l2, CATALOG.get("S4")) == l1 ** 2
        assert invertible_4d_value(l1, l2, CATALOG.get("CP2")) == l1 ** 3 * l2 ** 3
        assert invertible_4d_value(l1, l2, CATALOG.get("K3")) == l1 ** 24 * l2 ** -48

    def test_wrong_dimension(self):
        with pytest.raises(DimensionMismatch):
            invertible_4d_value(rational(2), rational(2), CATALOG.get("S2"))

    def test_multiplicative_under_disjoint_union(self):
        rng = random.Random(19)
        l1, l2 = rational(Fraction(3, 2)), rational(Fraction(-5, 4))
        for _ in range(15):
            a, b = CATALOG.get(rng.choice(FOUR_MANIFOLDS)), CATALOG.get(rng.choice(FOUR_MANIFOLDS))
            assert invertible_4d_value(l1, l2, disjoint_union(a, b)) == \
                invertible_4d_value(l1, l2, a) * invertible_4d_value(l1, l2, b)

    def test_kernel_theories_are_invisible_on_catalog(self):
        # each kernel element (zeta^3, zeta) scales the value by
        # zeta^(3*chi + p1); with p1 = 3*sigma and chi + sigma even the
        # exponent 3*(chi + sigma) is divisible by 6 on every entry
        kernel = restriction_kernel(4, 4, 3)
        l1, l2 = rational(Fraction(7, 2)), rational(Fraction(2, 3))
        for name in FOUR_MANIFOLDS:
            m = CATALOG.get(name)
            exponent = 3 * m.euler + m.p1_number
            assert exponent == 3 * (m.euler + m.signature)
            assert exponent % 6 == 0
            base = invertible_4d_value(l1, l2, m)
            for kappa in kernel.elements:
                twisted = invertible_4d_value(kappa[0] * l1, kappa[1] * l2, m)
                ratio = kappa[0] ** m.euler * kappa[1] ** m.p1_number
                assert twisted == base * ratio
                assert ratio == ExactComplex.one()  # exponent is 0 mod 6 for every entry


class TestExpressionParsing:
    def test_formal_sums(self):
        s = parse_formal_sum("K3 + 2*S4", CATALOG)
        assert dict((m.name, c) for m, c in s.terms) == {"K3": 1, "S4": 2}
        s = parse_formal_sum("Sigma_3 - (-2)*S2", CATALOG)
        assert dict((m.name, c) for m, c in s.terms) == {"Sigma_3": 1, "S2": 2}

    def test_manifold_expressions(self):
        m = parse_manifold("CP2 # CP2", CATALOG)
        assert (m.euler, m.signature) == (4, 2)
        m = parse_manifold("S4 + S4", CATALOG)
        assert m.euler == 4

    def test_bad_expressions(self):
        with pytest.raises(ValueError):
            parse_formal_sum("K3 + + S4", CATALOG)
        with pytest.raises(UnknownManifold):
            parse_manifold("Mystery", CATALOG)


# The term expression before each run of whitespace could match only one
# way; it backtracked catastrophically on long runs.  It is the oracle for
# the language parse_formal_sum accepts.
OLD_SUM_TERM_RE = re.compile(
    r"\s*([+-])?\s*(?:\(?\s*(-?\d+)\s*\)?\s*\*\s*)?([A-Za-z][A-Za-z0-9_]*)")

def sum_like(st):
    """Strings shaped like formal sums: one to three terms whose grammar
    slots are empty, filled or filled wrongly, with whitespace between."""
    ws = st.sampled_from(["", " ", "  ", "\t"])

    def slot(*options):
        return st.sampled_from(("",) + options)

    term = st.tuples(ws, slot("+", "-", "!"), ws, slot("(", "(("), ws,
                     slot("2", "-3", "-", "x"), ws, slot(")", "))"), ws,
                     slot("*", "**"), ws, slot("S2", "Sigma_1", "K3", "_", "2x"),
                     ws).map("".join)
    return st.lists(term, min_size=1, max_size=3).map("".join)


class TestSumParserLanguage:
    def test_same_terms_as_the_old_expression(self):
        hypothesis = pytest.importorskip("hypothesis")

        @hypothesis.settings(max_examples=400, deadline=None, derandomize=True,
                             database=None)
        @hypothesis.given(sum_like(hypothesis.strategies))
        def check(text):
            for pos in range(len(text) + 1):
                old = OLD_SUM_TERM_RE.match(text, pos)
                new = tftlab._SUM_TERM_RE.match(text, pos)
                assert (old and (old.groups(), old.end())) == \
                    (new and (new.groups(), new.end()))

        check()

    @pytest.mark.parametrize("text", ["S2" + " " * 100_000 + "!",
                                      "S2 +" + " " * 100_000 + "(2)!"])
    def test_long_whitespace_fails_in_linear_time(self, text):
        start = time.perf_counter()
        with pytest.raises(ValueError):
            parse_formal_sum(text, CATALOG)
        assert time.perf_counter() - start < 1
