import itertools
import random

import pytest

from mtspec.abelian import FgAbGroup
from mtspec.charclasses import RingElement, restrict_generators, thom_module_piece
from mtspec.errors import AmbientMismatch


def gen(d, name):
    return RingElement.generator(d, name)


def brute_force_degree_counts(d, k):
    # enumerate exponent tuples directly from the degree equation
    degrees = {2: {"c": 2}, 3: {"W3": 3, "p1": 4},
               4: {"W3": 3, "e": 4, "p1": 4}}[d]
    names = sorted(degrees)
    free = torsion = 0
    for combo in itertools.product(*[range(k // degrees[n] + 1) for n in names]):
        if sum(e * degrees[n] for n, e in zip(names, combo)) != k:
            continue
        if dict(zip(names, combo)).get("W3", 0):
            torsion += 1
        else:
            free += 1
    return free, torsion


def monomial_names(d, k):
    """The ring's degree-k monomial basis: the Thom-module basis without u
    (the unit's name becomes empty)."""
    return [name[:-1] for name in thom_module_piece(d, k).names]


def random_homogeneous(rng, d, degree):
    elem = RingElement.zero(d)
    for name in monomial_names(d, degree):
        coeff = rng.randint(-3, 3)
        if coeff:
            elem = elem + _element_from_name(d, name).scale(coeff)
    return elem


def _element_from_name(d, name):
    elem = RingElement.one(d)
    pos = 0
    while pos < len(name):
        for g in ("W3", "p1", "e", "c"):
            if name.startswith(g, pos):
                pos += len(g)
                power = 1
                if name.startswith("^", pos):
                    end = pos + 1
                    while end < len(name) and name[end].isdigit():
                        end += 1
                    power = int(name[pos + 1:end])
                    pos = end
                for _ in range(power):
                    elem = elem * gen(d, g)
                break
        else:
            raise AssertionError("cannot rebuild monomial %r" % name)
    return elem


class TestGradedPiece:
    """The degree-k pieces of the ring, read through the Thom module."""

    def test_degree_four_of_bso4(self):
        entry = thom_module_piece(4, 4)
        assert entry.group == FgAbGroup(2)
        assert entry.names == ("eu", "p1u")

    def test_degree_three_of_bso4(self):
        entry = thom_module_piece(4, 3)
        assert entry.group == FgAbGroup(0, (2,))
        assert entry.generators == (("W3u", 2),)

    def test_odd_degree_of_bso2_vanishes(self):
        assert thom_module_piece(2, 5).group == FgAbGroup()

    def test_degree_seven_of_bso4(self):
        entry = thom_module_piece(4, 7)
        assert entry.group == FgAbGroup(0, (2, 2))
        assert entry.names == ("W3eu", "W3p1u")

    def test_trivial_ring_for_d1(self):
        assert thom_module_piece(1, 0).group == FgAbGroup(1)
        assert thom_module_piece(1, 3).group == FgAbGroup()

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_against_enumeration_oracle(self, d):
        for k in range(13):
            entry = thom_module_piece(d, k)
            free, torsion = brute_force_degree_counts(d, k)
            assert entry.group.free_rank == free
            assert entry.group.torsion == tuple([2] * torsion)

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            thom_module_piece(4, 65)


class TestMultiplication:
    def test_torsion_square_survives(self):
        w = gen(4, "W3")
        assert not (w * w).is_zero
        assert (w.scale(2) * w).is_zero  # 2*W3 = 0

    def test_chern_square(self):
        c = gen(2, "c")
        assert (c * c).degree() == 4
        assert str(c * c) == "c^2"

    def test_unit_law(self):
        x = gen(4, "e") + gen(4, "p1")
        assert x * RingElement.one(4) == x

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatch):
            gen(2, "c") * gen(3, "p1")

    def test_commutative_associative(self):
        rng = random.Random(17)
        for _ in range(40):
            d = rng.choice([2, 3, 4])
            x = random_homogeneous(rng, d, rng.choice([2, 3, 4, 6, 7, 8]))
            y = random_homogeneous(rng, d, rng.choice([2, 3, 4]))
            z = random_homogeneous(rng, d, rng.choice([2, 3, 4]))
            assert x * y == y * x
            assert (x * y) * z == x * (y * z)


class TestRestriction:
    def test_p1_survives_to_three(self):
        assert restrict_generators(gen(4, "p1"), 3) == gen(3, "p1")

    def test_p1_hits_minus_c_squared(self):
        c = gen(2, "c")
        assert restrict_generators(gen(3, "p1"), 2) == (c * c).scale(-1)

    def test_euler_class_dies(self):
        assert restrict_generators(gen(4, "e"), 3).is_zero

    def test_w3_dies_in_two(self):
        assert restrict_generators(gen(3, "W3"), 2).is_zero

    def test_composite_matches_stepwise(self):
        x = gen(4, "p1")
        assert restrict_generators(x, 2) == restrict_generators(
            restrict_generators(x, 3), 2)

    def test_is_ring_homomorphism(self):
        rng = random.Random(29)
        for _ in range(40):
            d = rng.choice([3, 4])
            to_d = rng.choice([2] if d == 3 else [2, 3])
            x = random_homogeneous(rng, d, rng.choice([3, 4, 6, 7, 8, 11, 12]))
            y = random_homogeneous(rng, d, rng.choice([3, 4, 6, 7]))
            assert restrict_generators(x * y, to_d) == \
                restrict_generators(x, to_d) * restrict_generators(y, to_d)


class TestThomModule:
    def test_named_examples(self):
        assert thom_module_piece(3, 4).generators == (("p1u", None),)
        assert thom_module_piece(2, 2).generators == (("cu", None),)
        assert thom_module_piece(4, 0).generators == (("u", None),)
        assert thom_module_piece(2, 4).generators == (("c^2u", None),)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_degree_preserving_isomorphism(self, d):
        # each basis name is a distinct degree-k monomial of the ring times u,
        # of order 2 exactly when W3 divides it
        for k in range(13):
            thom = thom_module_piece(d, k)
            assert all(name.endswith("u") for name in thom.names)
            monomials = [_element_from_name(d, n) for n in monomial_names(d, k)]
            assert len(set(monomials)) == len(monomials)
            for (name, order), mono in zip(thom.generators, monomials):
                assert mono.degree() == k
                assert order == (2 if "W3" in name else None)
