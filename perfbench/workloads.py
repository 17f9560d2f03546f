"""Seeded inputs of the four benchmark workloads.

Each workload is a closed loop over blocks of operations.  A block has a
fixed composition (so the mix, and with it every percentile, does not drift
with the seed) and its contents depend only on (workload, seed, block
index): the same seed always yields the same operations.  Nothing here
imports mtspec.
"""

from __future__ import annotations

import random
from pathlib import Path

from oracles import CLASSIFICATION, HOMOTOPY

ROOT = Path(__file__).resolve().parent.parent
DATA_FILE = ROOT / "src" / "mtspec" / "data" / "certified_data.txt"

WORKLOADS = ("cli-oneshot", "api-mix", "verify-data", "snf-large")


def block_rng(workload: str, seed: int, block: int) -> random.Random:
    return random.Random("%s/%d/%d" % (workload, seed, block))


# ---------------------------------------------------------------------------
# cli-oneshot: one `python -m mtspec` subprocess per operation

# Every subcommand with the argument variants a block draws from; each
# block runs every subcommand once in each output form.
CLI_VARIANTS = {
    "table": [["table", "cohomology", "--d", "4", "--cover", "1"],
              ["table", "cohomology", "--d", "2"],
              ["table", "homotopy", "--d", "2"],
              ["table", "homotopy", "--d", "4"],
              ["table", "hz"]],
    "classify": [["classify", "--d", "4", "--n", "4"],
                 ["classify", "--d", "2", "--n", "1"],
                 ["classify", "--d", "3", "--n", "2"]],
    "restrict": [["restrict", "--d", "4", "--from", "4", "--to", "3", "--params", "2,3"],
                 ["restrict", "--d", "2", "--from", "2", "--to", "1", "--params", "3"]],
    "kernel": [["kernel", "--d", "4", "--from", "4", "--to", "3"],
               ["kernel", "--d", "2", "--from", "2", "--to", "1"]],
    "eval": [["eval", "four_d", "--l1", "2", "--l2", "1", "--manifold", "S4"],
             ["eval", "four_d", "--l1", "2", "--l2", "3", "--manifold", "CP2"],
             ["eval", "euler", "--lam", "4", "--manifold", "Sigma_2"],
             ["eval", "frobenius", "--mu", "4", "--g", "2"]],
    "bordism": [["bordism", "--d", "2", "--sum", "Sigma_3 - (-2)*S2"],
                ["bordism", "--d", "4", "--sum", "K3 + 2*S4"]],
    "gilmer-masbaum": [["gilmer-masbaum"]],
}
CLI_FORMS = ([], ["--ascii"], ["--format", "json"])

# Inputs the CLI is known to get wrong (ROADMAP open item 4), run once per
# run outside the measured loop with their correct expectations.  They stay
# out of the loop because a benchmark operation must not fail at the seed.
# `eval euler --chi-total 99999999999999999999` is not among them: it raises
# a rational to an unbounded power and may exhaust the machine's memory
# instead of failing or timing out.
KNOWN_DEFECTS = [
    ["eval", "four_d", "--l1", "zeta0", "--l2", "1", "--manifold", "S4"],
    ["eval", "frobenius", "--mu", "1/0", "--g", "1"],
    ["eval", "frobenius", "--mu", "4", "--manifold", "S2+S2"],
]


def cli_block(seed: int, block: int) -> list:
    rng = block_rng("cli-oneshot", seed, block)
    ops = [rng.choice(variants) + form
           for variants in CLI_VARIANTS.values() for form in CLI_FORMS]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# api-mix: warm in-process queries

API_MIX = (("cohomology", 3), ("cover_cohomology", 2), ("classify", 2),
           ("restrict", 3), ("kernel", 2), ("grid", 2), ("bordism", 3),
           ("euler", 2), ("frobenius", 2), ("four_d", 2), ("certificate", 1))

_SURFACES = ["S2"] + ["Sigma_%d" % g for g in range(6)]
_FOUR_MANIFOLDS = ["S4", "T4", "CP2", "K3"] + ["S2xSigma_%d" % g for g in range(4)]
_BY_DIM = {1: ["S1"], 2: _SURFACES, 3: ["S3", "T3"], 4: _FOUR_MANIFOLDS}
_TRANSPORTS = [(d, f, t) for d in (2, 3, 4) for f in range(2, d + 1) for t in range(1, f)]


def exact_literal(rng: random.Random) -> str:
    """A random nonzero exact value in the CLI/API literal syntax."""
    sign = rng.choice(["", "-"])
    kind = rng.randrange(4)
    rational = str(rng.randint(1, 9))
    if rng.random() < 0.5:
        rational += "/%d" % rng.randint(1, 9)
    order = rng.randint(1, 12)
    power = rng.randint(-order, order)
    root = "zeta%d" % order + ("" if power == 1 else "^%d" % power)
    return sign + [rational, rational, root, rational + "*" + root][kind]


def _expression(rng, names, pieces_max, chain_max):
    return [[rng.choice(names) for _ in range(rng.randint(1, chain_max))]
            for _ in range(rng.randint(1, pieces_max))]


def expression_text(pieces) -> str:
    return " + ".join("#".join(chain) for chain in pieces)


def _formal_sum(rng, d):
    terms, parts = [], []
    for _ in range(rng.randint(1, 3)):
        name, coeff = rng.choice(_BY_DIM[d]), rng.choice([-3, -2, -1, 1, 2, 3])
        style = rng.randrange(3)
        if style == 0:
            text = ("- " if coeff < 0 else "+ ") + ("%d*" % abs(coeff) if abs(coeff) > 1 else "")
        elif style == 1:
            text = ("- " if coeff < 0 else "+ ") + "%d*" % abs(coeff)
        else:
            text = "+ (%d)*" % coeff
        parts.append(text + name)
        terms.append((name, coeff))
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text, terms


def api_op(kind: str, rng: random.Random):
    if kind == "cohomology":
        return (kind, rng.randint(1, 4), rng.randint(0, 5))
    if kind == "cover_cohomology":
        return (kind, rng.randint(2, 4), rng.randint(0, 5))
    if kind == "classify":
        d = rng.randint(1, 4)
        return (kind, d, rng.randint(1, d))
    if kind == "restrict":
        d, n_from, n_to = rng.choice(_TRANSPORTS)
        rank = CLASSIFICATION[(d, n_from)][0]
        return (kind, d, n_from, n_to, tuple(exact_literal(rng) for _ in range(rank)))
    if kind == "kernel":
        return (kind,) + rng.choice(_TRANSPORTS)
    if kind == "grid":
        d = rng.randint(1, 4)
        top = min(3, len(HOMOTOPY[d]))
        return (kind, d, rng.randint(0, top), rng.randint(0, top))
    if kind == "bordism":
        d = rng.randint(1, 4)
        text, terms = _formal_sum(rng, d)
        return (kind, d, text, tuple(terms))
    if kind == "euler":
        return (kind, exact_literal(rng), _expression(rng, _SURFACES, 3, 2))
    if kind == "frobenius":
        return (kind, exact_literal(rng), _expression(rng, _SURFACES, 1, 3)[0])
    if kind == "four_d":
        return (kind, exact_literal(rng), exact_literal(rng),
                _expression(rng, _FOUR_MANIFOLDS, 2, 3))
    if kind == "certificate":
        return (kind,)
    raise ValueError(kind)


def api_block(seed: int, block: int) -> list:
    rng = block_rng("api-mix", seed, block)
    ops = [api_op(kind, rng) for kind, count in API_MIX for _ in range(count)]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# verify-data: a fresh data-file variant per operation


def data_variant(base_text: str, rng: random.Random) -> str:
    """The same records, shuffled, with permuted fields, comments and blanks."""
    records = [line for line in base_text.splitlines()
               if line.strip() and not line.lstrip().startswith("#")]
    rng.shuffle(records)
    out = []
    for record in records:
        if rng.random() < 0.15:
            out.append("# note %d" % rng.randrange(10 ** 6))
        if rng.random() < 0.1:
            out.append("")
        rectype, *fields = record.split()
        rng.shuffle(fields)
        out.append(" " * rng.randrange(3) + " ".join([rectype] + fields))
    return "\n".join(out) + "\n"


def verify_block(seed: int, block: int, base_text: str) -> list:
    rng = block_rng("verify-data", seed, block)
    return [data_variant(base_text, rng) for _ in range(4)]


# ---------------------------------------------------------------------------
# snf-large: random integer matrices

# matrices of each shape per block, by size: n = 40 takes about 80 % of the
# time, while the extra n <= 20 matrices put p50 inside the n = 20 group and
# p90 inside the n = 40 one, away from the gaps between size groups
SNF_COUNTS = {10: 2, 20: 3, 40: 1}
SNF_SHAPES = ("square", "wide", "deficient")


def random_matrix(rng: random.Random, n: int, shape: str) -> list:
    """Entries in [-9, 9]; 'wide' is (3n/4) x n, 'deficient' has rank n - n/4."""
    if shape == "square":
        return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    if shape == "wide":
        return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(3 * n // 4)]
    dependent = n // 4
    rank = n - dependent
    paired = rng.sample(range(rank), 2 * dependent)
    rows = [[rng.randint(-4, 4) if i in paired else rng.randint(-9, 9)
             for _ in range(n)] for i in range(rank)]
    for q in range(dependent):
        a, b = rows[paired[2 * q]], rows[paired[2 * q + 1]]
        s = rng.choice([-1, 1])
        rows.append([x + s * y for x, y in zip(a, b)])
    rng.shuffle(rows)
    return rows


def snf_block(seed: int, block: int) -> list:
    rng = block_rng("snf-large", seed, block)
    ops = [(n, shape, random_matrix(rng, n, shape))
           for n, count in SNF_COUNTS.items() for shape in SNF_SHAPES
           for _ in range(count)]
    rng.shuffle(ops)
    return ops


def sympy_pick(seed: int, block: int, ops) -> int:
    """Index of the block's operation that is also checked against sympy.

    Only n <= 20 is sampled: sympy needs about 13 s for one 40 x 40 matrix.
    """
    small = [i for i, (n, _, _) in enumerate(ops) if n <= 20]
    return block_rng("snf-large/sympy", seed, block).choice(small)
