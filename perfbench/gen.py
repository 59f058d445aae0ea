"""Seeded operator-spec documents for the benchmark.

The generator is the benchmark's own and imports nothing from qspectral,
so a change to ``qspectral.checks`` (or any other module) cannot change
the ``grid`` or ``query`` inputs.  Every document lies in the domain the
README documents: a square quaternion block, constant and geometric
diagonal families with ratio in (0, 1) (near-1 ratios in query), forward
and backward shift tails with positive weight.  Nothing is filtered after
generation: an input the program mishandles is counted as a failure.

Operator shapes, and query's near-1 ratios, follow a fixed schedule and
only the other parameters are random.  A run therefore always holds the
same mix, which keeps the per-seed spread of the timings small.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

PLAIN_RATIOS = tuple(Fraction(*r) for r in
                     ((1, 2), (1, 3), (2, 3), (3, 4), (1, 4), (2, 5), (3, 5),
                      (4, 5)))
# 1 - 1/d: the geometric scans get long as the ratio approaches 1.  Only
# query uses them: there a slow or failing operator is one request in
# hundreds (and is cut at the request limit), while in grid it would be a
# whole raster.  Query cycle c gives the first request of shape
# NEAR_ONE_SHAPES[c % 3] the ratio 1 - 1/NEAR_ONE_DENOMINATORS[c % 4], so
# runs of one length hold the same near-1 requests, whose cost (a cut
# request uses the whole limit) would otherwise swing a run's time by seed
NEAR_ONE_DENOMINATORS = (10, 20, 50, 1000)
NEAR_ONE_SHAPES = ("geom_shift", "block2_geom", "geom_consts")
WEIGHTS = tuple(Fraction(*w) for w in
                ((1, 2), (3, 4), (1, 1), (5, 4), (3, 2), (2, 1), (5, 2)))

# grid: one operator per shape, in this order, over and over.  Every shape
# has a finite block, whose size sets the per-cell cost; sizes 1, 2, 3, 2
# put the median cell inside the size-2 class and the 95th percentile
# inside the size-3 class, away from the class boundaries
GRID_SHAPES = ("block1_consts", "block2_shift", "block3_const",
               "block2_geom_shift")
# query: classify requests per structured shape, then matrix requests;
# sizes 2..6 with 6 twice, so the 95th percentile of the request latency
# falls inside the n = 6 class rather than on a class boundary
QUERY_SHAPES = ("block2_shift", "geom_shift", "block1_consts",
                "perturbed_shift", "block2_geom", "geom_consts")
QUERY_MATRIX_SIZES = (2, 3, 4, 5, 6, 6)


def text(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def rational(rng: random.Random, bound: int = 3,
             dens: tuple[int, ...] = (1, 2, 4)) -> Fraction:
    d = rng.choice(dens)
    return Fraction(rng.randint(-bound * d, bound * d), d)


def quaternion(rng: random.Random, real_share: float = 0.4) -> list[str]:
    if rng.random() < real_share:
        return [text(rational(rng)), "0", "0", "0"]
    return [text(rational(rng, 2)) for _ in range(4)]


def nonzero_quaternion(rng: random.Random) -> list[str]:
    while True:
        q = quaternion(rng)
        if any(c != "0" for c in q):
            return q


def block(rng: random.Random, n: int) -> list:
    return [[quaternion(rng) for _ in range(n)] for _ in range(n)]


def vector(rng: random.Random, length: int) -> list:
    """A vector with one or two nonzero entries."""
    out = [["0", "0", "0", "0"] for _ in range(length)]
    for k in rng.sample(range(length), rng.randint(1, 2)):
        out[k] = nonzero_quaternion(rng)
    return out


def ratio(rng: random.Random, near_one: int | None) -> Fraction:
    """1 - 1/near_one if given, else one of the plain ratios."""
    if near_one:
        return Fraction(near_one - 1, near_one)
    return rng.choice(PLAIN_RATIOS)


def constant(rng: random.Random) -> dict:
    return {"kind": "constant", "value": quaternion(rng)}


def geometric(rng: random.Random, near_one: int | None) -> dict:
    return {"kind": "geometric", "limit": quaternion(rng),
            "offset": nonzero_quaternion(rng),
            "ratio": text(ratio(rng, near_one))}


def shift(rng: random.Random) -> dict:
    return {"weight": text(rng.choice(WEIGHTS)),
            "direction": rng.choice(("forward", "backward"))}


def structured(rng: random.Random, shape: str,
               near_one: int | None = None) -> dict:
    """A structured-operator document of the named shape; ``near_one``
    gives its (first) geometric family the ratio 1 - 1/near_one."""
    doc: dict = {}
    if shape == "block1_consts":
        doc = {"finite_block": block(rng, 1),
               "diagonal_families": [constant(rng), constant(rng)]}
    elif shape == "block2_shift":
        doc = {"finite_block": block(rng, 2), "shift_tails": [shift(rng)]}
    elif shape == "geom_shift":
        doc = {"diagonal_families": [geometric(rng, near_one)],
               "shift_tails": [shift(rng)]}
    elif shape == "block3_const":
        doc = {"finite_block": block(rng, 3),
               "diagonal_families": [constant(rng)]}
    elif shape == "block2_geom":
        doc = {"finite_block": block(rng, 2),
               "diagonal_families": [geometric(rng, near_one)]}
    elif shape == "block2_geom_shift":
        doc = {"finite_block": block(rng, 2),
               "diagonal_families": [geometric(rng, near_one)],
               "shift_tails": [shift(rng)]}
    elif shape == "perturbed_shift":
        # rank-one perturbation supported on the block and the first
        # three shift coordinates; the oracle takes its dense route
        doc = {"finite_block": block(rng, 1), "shift_tails": [shift(rng)],
               "perturbation": [[vector(rng, 4), vector(rng, 4)]]}
    elif shape == "geom_consts":
        doc = {"diagonal_families": [geometric(rng, near_one),
                                     constant(rng)],
               "shift_tails": [shift(rng)]}
    else:
        raise ValueError(f"unknown shape {shape!r}")
    return {"structured": doc}


def matrix(rng: random.Random, n: int) -> dict:
    return {"matrix": block(rng, n)}


def point(rng: random.Random) -> str:
    """A --point argument inside the raster window [-3, 3] x [0, 3]."""
    d = rng.choice((1, 2, 4))
    return f"{text(Fraction(rng.randint(-3 * d, 3 * d), d))},{text(Fraction(rng.randint(0, 3 * d), d))}"


def grid_items(seed: int):
    """Endless (shape, document) stream for the grid workload."""
    rng = random.Random(f"grid:{seed}")
    while True:
        for shape in GRID_SHAPES:
            yield shape, structured(rng, shape)


def query_items(seed: int):
    """Endless request stream for the query workload.

    Yields (kind, document, point) with kind "classify" or "matrix"; point
    is None for matrix requests.  Structured documents never repeat within
    a stream, so requests share no frame and no cached family profile.
    """
    rng = random.Random(f"query:{seed}")
    seen: set[str] = set()
    for c in itertools.count():
        near = (NEAR_ONE_SHAPES[c % len(NEAR_ONE_SHAPES)], 0)
        d = NEAR_ONE_DENOMINATORS[c % len(NEAR_ONE_DENOMINATORS)]
        for shape, n in zip(QUERY_SHAPES, QUERY_MATRIX_SIZES):
            for k in range(3):
                while True:
                    doc = structured(rng, shape,
                                     d if (shape, k) == near else None)
                    key = repr(doc)
                    if key not in seen:
                        seen.add(key)
                        break
                yield "classify", doc, point(rng)
            yield "matrix", matrix(rng, n), None
