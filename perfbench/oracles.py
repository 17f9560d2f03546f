"""Expected answers for the benchmark, written independently of mtspec.

Nothing here imports mtspec.  The tables are the values the source paper
(arXiv:1712.08029) states, as listed in the README and ROADMAP; the
evaluations are closed forms (the Euler theory gives lambda^chi, the
Frobenius theory mu^(1-g), the four-dimensional theory l1^chi * l2^p1);
the Smith normal form is checked structurally.  Each ``check_*`` function
returns None for a correct answer and a short reason otherwise.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent

# ---------------------------------------------------------------------------
# paper tables

# (d, cover, k) -> (free rank, torsion, generator names); degrees 0..5.
COHOMOLOGY = {}
for _d, _rows in {
    1: ["Z u", "0", "0", "0", "0", "0"],
    2: ["Z u", "0", "Z cu", "0", "Z c^2u", "0"],
    3: ["Z u", "0", "0", "Z/2 W3u", "Z p1u", "0"],
    4: ["Z u", "0", "0", "Z/2 W3u", "Z+Z eu,p1u", "0"],
}.items():
    for _k, _row in enumerate(_rows):
        COHOMOLOGY[(_d, 0, _k)] = _row
for _d, _rows in {
    2: ["0", "0", "Z tau", "0", "Z rho", "0"],
    3: ["0", "0", "0", "0", "Z rho", "0"],
    4: ["0", "0", "0", "0", "Z+Z psi,sigma", "0"],
}.items():
    for _k, _row in enumerate(_rows):
        COHOMOLOGY[(_d, 1, _k)] = _row


def parse_group(text: str):
    """'Z+Z/2' -> (1, (2,)); '0' -> (0, ())."""
    if text == "0":
        return 0, ()
    free, torsion = 0, []
    for part in text.split("+"):
        if part == "Z":
            free += 1
        else:
            torsion.append(int(part[2:]))
    return free, tuple(torsion)


def cohomology_expected(d: int, cover: int, k: int):
    group, _, names = COHOMOLOGY[(d, cover, k)].partition(" ")
    return parse_group(group), tuple(names.split(",")) if names else ()


# homotopy groups of the suspended spectra in degrees 0..d
HOMOTOPY = {1: ["Z", "Z/2"], 2: ["Z", "0", "Z"], 3: ["Z", "0", "0", "0"],
            4: ["Z", "0", "0", "0", "Z+Z"]}

# (d, n) -> (number of C^x coordinates, finite part torsion, basis names)
CLASSIFICATION = {
    (1, 1): (0, (), ()),
    (2, 1): (1, (), ("tau",)), (2, 2): (1, (), ("cu",)),
    (3, 1): (0, (), ()), (3, 2): (0, (), ()), (3, 3): (0, (), ()),
    (4, 1): (2, (), ("psi", "sigma")), (4, 2): (2, (), ("psi", "sigma")),
    (4, 3): (2, (), ("psi", "sigma")), (4, 4): (2, (), ("eu", "p1u")),
}

# Exponent matrices of the restriction maps: row i holds the powers of
# source coordinate i, so restricted coordinate j is prod_i x_i^A[i][j].
# Within a cover level the coordinates are unchanged; leaving the uncovered
# level follows the paper's formula eu -> 2 psi - sigma, p1u -> 3 sigma
# (and c u -> 2 tau in dimension two).
def restriction_exponents(d: int, n_from: int, n_to: int):
    rank = CLASSIFICATION[(d, n_from)][0]
    if d == 4 and n_from == 4:
        return [[2, -1], [0, 3]]
    if d == 2 and n_from == 2:
        return [[2]]
    return [[int(i == j) for j in range(rank)] for i in range(rank)]


# kernel group (free rank, torsion) of each restriction map
def kernel_expected(d: int, n_from: int, n_to: int):
    if d == 4 and n_from == 4:
        return 0, (6,)
    if d == 2 and n_from == 2:
        return 0, (2,)
    return 0, ()


# manifold catalog: name -> (dim, euler, signature, p1, kr)
CATALOG = {
    "S1": (1, 0, 0, 0, 1), "S2": (2, 2, 0, 0, None), "S3": (3, 0, 0, 0, None),
    "T3": (3, 0, 0, 0, None), "S4": (4, 2, 0, 0, None), "T4": (4, 0, 0, 0, None),
    "CP2": (4, 3, 1, 3, None), "K3": (4, 24, -16, -48, None),
}


def manifold_invariants(name: str):
    """(dim, euler, signature, p1, kr) of a catalog name or family member."""
    if name in CATALOG:
        return CATALOG[name]
    family, _, g = name.rpartition("_")
    g = int(g)
    if family == "Sigma":
        return 2, 2 - 2 * g, 0, 0, None
    if family == "S2xSigma":
        return 4, 4 - 4 * g, 0, 0, None
    raise KeyError(name)


def expression_invariants(pieces):
    """Euler, signature and p1 of a disjoint union of connected sums."""
    euler = signature = p1 = 0
    for chain in pieces:
        invariants = [manifold_invariants(name) for name in chain]
        euler += sum(inv[1] for inv in invariants) - 2 * (len(chain) - 1)
        signature += sum(inv[2] for inv in invariants)
        p1 += sum(inv[3] for inv in invariants)
    return euler, signature, p1


def vf_expected(d: int, terms):
    """The complete vector-field bordism invariant of sum(coeff * name)."""
    invariants = [(manifold_invariants(name), coeff) for name, coeff in terms]
    if d == 1:
        return (sum(c * inv[4] for inv, c in invariants) % 2,)
    if d == 2:
        return (sum(c * inv[1] // 2 for inv, c in invariants),)
    if d == 3:
        return ()
    return (sum(c * (inv[1] + inv[2]) // 2 for inv, c in invariants),
            sum(c * inv[2] for inv, c in invariants))


# the Gilmer-Masbaum certificate: rho multiples and induced mapping class
# group classes of the Atiyah, Walker and Gilmer extensions
CERTIFICATE = {"group": (1, ()), "generator": "rho",
               "multiples": (6, 2, 1), "mcg": (12, 4, 2),
               "fundamental_realizable": False}

# ---------------------------------------------------------------------------
# exact nonzero complex numbers: (magnitude > 0, phase in [0, 1) of a turn)

_LITERAL = re.compile(r"(-)?(\d+(?:/\d+)?)?(?:\*?zeta(\d+)(?:\^(-?\d+))?)?$")


def exact_literal(text: str):
    """Parse '3', '-3/2', 'zeta6^5', '-2*zeta3' into (magnitude, phase)."""
    match = _LITERAL.match(text)
    if not match or (match.group(2) is None and match.group(3) is None):
        raise ValueError("not an exact literal: %r" % text)
    mag = Fraction(match.group(2) or 1)
    phase = Fraction(1, 2) if match.group(1) else Fraction(0)
    if match.group(3):
        phase += Fraction(int(match.group(4) or 1), int(match.group(3)))
    return mag, phase % 1


def exact_mul(a, b):
    return a[0] * b[0], (a[1] + b[1]) % 1


def exact_pow(a, n: int):
    return a[0] ** n, (a[1] * n) % 1


ONE = (Fraction(1), Fraction(0))


def as_exact(value):
    """An mtspec ExactComplex read into (magnitude, phase)."""
    return Fraction(value.mag), Fraction(value.root)


def _group(group):
    return group.free_rank, tuple(group.torsion)


# ---------------------------------------------------------------------------
# api-mix


def check_api(op, result):
    kind = op[0]
    if kind in ("cohomology", "cover_cohomology"):
        d, k = op[1], op[2]
        group, names = cohomology_expected(d, int(kind == "cover_cohomology"), k)
        if (_group(result.group), tuple(result.names)) != (group, names):
            return "%s(d=%d, k=%d) differs from the paper table" % (kind, d, k)
        return None
    if kind == "classify":
        rank, torsion, basis = CLASSIFICATION[(op[1], op[2])]
        got = (result.unit_rank, tuple(result.finite_part.torsion),
               result.finite_part.free_rank, tuple(result.basis_names))
        if got != (rank, torsion, 0, basis):
            return "classify(%d, %d) differs from the classification table" % op[1:]
        return None
    if kind == "restrict":
        d, n_from, n_to, params = op[1:]
        matrix = restriction_exponents(d, n_from, n_to)
        coords = [exact_literal(p) for p in params]
        expected = []
        for j in range(len(matrix[0]) if matrix else 0):
            value = ONE
            for i, x in enumerate(coords):
                value = exact_mul(value, exact_pow(x, matrix[i][j]))
            expected.append(value)
        if [as_exact(v) for v in result] != expected:
            return "restrict_theory%r differs from the restriction formula" % (op[1:],)
        return None
    if kind == "kernel":
        d, n_from, n_to = op[1:]
        if _group(result.group) != kernel_expected(d, n_from, n_to):
            return "restriction_kernel%r has the wrong group" % (op[1:],)
        matrix = restriction_exponents(d, n_from, n_to)
        torsion = kernel_expected(d, n_from, n_to)[1]
        order = 1
        for t in torsion:
            order *= t
        elements = [tuple(as_exact(x) for x in e) for e in result.elements]
        if len(elements) != order or len(set(elements)) != order:
            return "restriction_kernel%r lists the wrong number of elements" % (op[1:],)
        for element in elements:
            for j in range(len(matrix[0]) if matrix else 0):
                value = ONE
                for i, x in enumerate(element):
                    value = exact_mul(value, exact_pow(x, matrix[i][j]))
                if value != ONE:
                    return "restriction_kernel%r lists a non-kernel element" % (op[1:],)
        return None
    if kind == "grid":
        d, a, b = op[1:]
        lo, hi = sorted((a, b))
        expected = all(HOMOTOPY[d][i] == "0" for i in range(lo, hi))
        return None if result is expected else "grid_equivalence%r is wrong" % (op[1:],)
    if kind == "bordism":
        d, terms = op[1], op[3]
        expected = vf_expected(d, terms)
        invariant, null = result
        if tuple(invariant) != expected or null != all(x == 0 for x in expected):
            return "vf_invariant of %r is wrong" % op[2]
        return None
    if kind == "euler":
        euler = expression_invariants(op[2])[0]
        expected = exact_pow(exact_literal(op[1]), euler)
        return None if as_exact(result) == expected else "Euler value is not lambda^chi"
    if kind == "frobenius":
        genus = (2 - expression_invariants([op[2]])[0]) // 2
        expected = exact_pow(exact_literal(op[1]), 1 - genus)
        return None if as_exact(result) == expected else "Frobenius value is not mu^(1-g)"
    if kind == "four_d":
        euler, _, p1 = expression_invariants(op[3])
        expected = exact_mul(exact_pow(exact_literal(op[1]), euler),
                             exact_pow(exact_literal(op[2]), p1))
        return None if as_exact(result) == expected else "4d value is not l1^chi * l2^p1"
    if kind == "certificate":
        return check_certificate(result)
    raise ValueError("unknown api-mix operation %r" % kind)


def check_certificate(report):
    got = {"group": _group(report.group), "generator": report.generator,
           "multiples": (report.atiyah_class.rho_multiple,
                         report.walker_class.rho_multiple,
                         report.gilmer_class.rho_multiple),
           "mcg": tuple(induced for _, _, induced in report.mcg_dictionary),
           "fundamental_realizable": report.fundamental_realizable}
    return None if got == CERTIFICATE else "the certificate differs from the paper"


# ---------------------------------------------------------------------------
# verify-data


def check_verify(result):
    les, derived, report = result
    for d, les_report in zip((2, 3, 4), les):
        if not les_report.all_exact:
            return "the long exact sequence for d=%d is not exact" % d
    for (d, k), derivation in derived.items():
        expected = cohomology_expected(d, 1, k)[0]
        if derivation.ambiguous or _group(derivation.group) != expected:
            return "the derived cover entry (d=%d, k=%d) is wrong" % (d, k)
    if len(derived) != 18:
        return "expected 18 derived cover entries, got %d" % len(derived)
    return check_certificate(report)


# ---------------------------------------------------------------------------
# snf-large

# Two fixed primes for the unimodularity check: a matrix with determinant
# +-1 always passes; any other passes only if det -+ 1 is divisible by both.
PRIMES = (2305843009213693951, 4611686018427387847)


def _det_mod(rows, p: int) -> int:
    m = [[x % p for x in row] for row in rows]
    n = len(m)
    det = 1
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        inv = pow(m[c][c], -1, p)
        det = det * m[c][c] % p
        row_c = m[c]
        for r in range(c + 1, n):
            f = m[r][c] * inv % p
            if f:
                row_r = m[r]
                m[r] = [(x - f * y) % p for x, y in zip(row_r, row_c)]
    return det % p


def _is_unimodular(rows) -> bool:
    signs = set()
    for p in PRIMES:
        det = _det_mod(rows, p)
        if det == 1:
            signs.add(1)
        elif det == p - 1:
            signs.add(-1)
        else:
            return False
    return len(signs) == 1


def _apply(rows, vector):
    return [sum(a * x for a, x in zip(row, vector)) for row in rows]


def check_snf(a_rows, u_rows, d_rows, v_rows, seed=0):
    """U * A * V == D with D the Smith form and U, V unimodular."""
    m, n = len(a_rows), len(a_rows[0])
    if (len(u_rows), len(d_rows), len(v_rows)) != (m, m, n):
        return "transforms have the wrong shape"
    if any(len(r) != m for r in u_rows) or any(len(r) != n for r in d_rows + v_rows):
        return "transforms have the wrong shape"
    diagonal = []
    for i, row in enumerate(d_rows):
        for j, x in enumerate(row):
            if i == j:
                diagonal.append(x)
            elif x:
                return "D is not diagonal"
    if any(x < 0 for x in diagonal):
        return "D has a negative entry"
    for x, y in zip(diagonal, diagonal[1:]):
        if (x == 0 and y) or (x and y % x):
            return "D breaks the divisibility chain"
    # Freivalds: U(A(Vx)) == Dx for two random vectors; a wrong product
    # passes one trial with probability at most 2^-32.
    rng = random.Random(seed)
    for _ in range(2):
        x = [rng.randrange(1 << 32) for _ in range(n)]
        if _apply(u_rows, _apply(a_rows, _apply(v_rows, x))) != _apply(d_rows, x):
            return "U * A * V != D"
    if not _is_unimodular(u_rows) or not _is_unimodular(v_rows):
        return "a transform is not unimodular"
    return None


def check_snf_diagonal(diagonal, reference) -> str | None:
    """Compare a Smith diagonal with an independently computed one."""
    if [int(x) for x in diagonal] != [abs(int(x)) for x in reference]:
        return "the diagonal differs from sympy's Smith normal form"
    return None


# ---------------------------------------------------------------------------
# cli-oneshot


def load_cli_expected():
    """argv tuple -> (exit code, stdout) from the committed expectation file."""
    document = json.loads((HERE / "cli_expected.json").read_text(encoding="utf-8"))
    return {tuple(item["argv"]): (item["exit"], item["stdout"])
            for item in document["calls"] + document["known_defects"]}


def check_cli(expected, argv, code: int, stdout: str, stderr: str):
    want_code, want_stdout = expected[tuple(argv)]
    if code != want_code:
        return "exit code %d, expected %d" % (code, want_code)
    if "Traceback" in stderr:
        return "traceback on stderr"
    if stdout != want_stdout:
        return "stdout differs from the expected output"
    return None
