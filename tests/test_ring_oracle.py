"""An oracle for the rings behind the tables, independent of ``charclasses``.

Its inputs are three facts about BSO(d), d = 1..4:

- H*(BSO(d); F2) = F2[w2, ..., wd], with |w_m| = m;
- Wu's formula for Sq^1, which with w1 = 0 reads Sq^1 w_m = (m - 1) w_(m+1)
  (w_(d+1) = 0), and Sq^1 is a derivation;
- Brown's theorem: all torsion of H*(BSO(d); Z) has order 2.

With torsion of order 2 only, the mod-2 reduction of the integral
Bockstein is Sq^1, and reduction is injective on H^k(Z) / 2 with image the
kernel of Sq^1 out of degree k.  So the torsion t_k of H^k(BSO(d); Z) is
the rank of Sq^1 into degree k, and by universal coefficients its free rank
is dim H^k(F2) - t_k - t_(k+1).  Restriction to BSO(d') sends w_m to 0 for
m > d', and the integral restriction, reduced mod 2, is its restriction to
the kernel of Sq^1.  Ranks are taken over F2 here, on bitmask vectors.
"""

import functools

import pytest

from mtspec import charclasses
from mtspec.charclasses import MAX_DEGREE, ring_restriction, thom_module_piece


@functools.cache
def monomials(d, k):
    """The degree-k monomials of F2[w2, ..., wd], as exponent tuples."""
    if d < 2:
        return ((),) if k == 0 else ()
    return tuple(exps + (e,) for e in range(k // d + 1) for exps in monomials(d - 1, k - d * e))


def sq1(exps, d):
    """Sq^1 of a monomial, as the monomials of its sum."""
    out = set()
    for i, e in enumerate(exps):  # the exponent of w_m, m = i + 2
        if e * (i + 1) % 2 and i + 3 <= d:
            image = list(exps)
            image[i] -= 1
            image[i + 1] += 1
            out ^= {tuple(image)}
    return out


def kernel(images):
    """A basis of the kernel of the F2-linear map sending the j-th basis
    vector to images[j], each vector a bitmask."""
    pivots, basis = {}, []
    for j, image in enumerate(images):
        combination = 1 << j
        while image:
            top = image.bit_length() - 1
            if top not in pivots:
                pivots[top] = image, combination
                break
            image ^= pivots[top][0]
            combination ^= pivots[top][1]
        else:
            basis.append(combination)
    return basis


def rank(images):
    return len(images) - len(kernel(images))


@functools.cache
def sq1_kernel(d, k):
    """The degree-k monomials and a basis of the kernel of Sq^1 on them."""
    source = monomials(d, k)
    index = {exps: i for i, exps in enumerate(monomials(d, k + 1))}
    return source, kernel([sum(1 << index[m] for m in sq1(exps, d)) for exps in source])


def integral_groups(d):
    """(free rank, number of Z/2) of H^k(BSO(d); Z) for k = 0..MAX_DEGREE."""
    dims, torsion = [], [0]  # torsion[k] = t_k, the rank of Sq^1 into degree k
    for k in range(MAX_DEGREE + 1):
        source, ker = sq1_kernel(d, k)
        dims.append(len(source))
        torsion.append(len(source) - len(ker))
    return [(dims[k] - torsion[k] - torsion[k + 1], torsion[k])
            for k in range(MAX_DEGREE + 1)]


def mismatches(d):
    """The degrees where the Thom-module piece is not the oracle's group."""
    found = []
    for k, (free, torsion) in enumerate(integral_groups(d)):
        orders = [order for _, order in thom_module_piece(d, k).generators]
        if orders.count(None) != free or sorted(filter(None, orders)) != [2] * torsion:
            found.append(k)
    return found


def restriction_rank(d, k, to_d):
    """The rank of restriction to BSO(to_d) on the kernel of Sq^1 in degree k."""
    source, ker = sq1_kernel(d, k)
    index = {exps: i for i, exps in enumerate(monomials(to_d, k))}
    images = []
    for combination in ker:
        image = 0
        for j, exps in enumerate(source):
            if combination >> j & 1 and not any(exps[to_d - 1:]):  # w_m -> 0, m > to_d
                image ^= 1 << index[exps[:to_d - 1]]
        images.append(image)
    return rank(images)


def test_the_oracle_gives_the_known_low_degrees():
    # BSO(3): Z, then Z/2 in degree 3 (W3), Z in 4 (p1), Z/2 in 6 and 7
    assert integral_groups(3)[:8] == [(1, 0), (0, 0), (0, 0), (0, 1), (1, 0), (0, 0),
                                      (0, 1), (0, 1)]
    # BSO(2) = CP^infinity: Z in every even degree
    assert integral_groups(2)[:6] == [(1, 0), (0, 0), (1, 0), (0, 0), (1, 0), (0, 0)]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_each_thom_module_piece_is_the_integral_cohomology(d):
    assert mismatches(d) == []


@pytest.mark.parametrize("d,to_d", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)])
def test_the_ring_restriction_is_the_restriction_mod_2(d, to_d):
    for k in range(MAX_DEGREE + 1):
        index = {name: i for i, name in enumerate(thom_module_piece(to_d, k).names)}
        images = [sum(1 << index[target] for target, coeff in image if coeff % 2)
                  for _, image in ring_restriction(d, k, to_d)]
        assert rank(images) == restriction_rank(d, k, to_d), k


@pytest.mark.parametrize("d,generators,first", [
    (4, ("e", "p1"), 3),                # W3 dropped from d=4
    (3, ("W3", "e", "p1"), 4),          # e added to d=3
    (2, ("W3", "c"), 3),                # W3 added to d=2
], ids=["d4-without-W3", "d3-with-e", "d2-with-W3"])
def test_the_oracle_refuses_a_mutant_ring(monkeypatch, d, generators, first):
    monkeypatch.setitem(charclasses._LEGAL, d, generators)
    monkeypatch.setattr(charclasses, "_THOM_PIECES", {})
    monkeypatch.setattr(charclasses, "_RESTRICTIONS", {})
    assert mismatches(d)[0] == first
