import random
import sys
from pathlib import Path

import numpy as np
import pytest

from fpgeom import counting

sys.path.insert(0, str(Path(__file__).parent))


def rng_for(*key) -> random.Random:
    """Stable per-test RNG so every randomised check is reproducible."""
    return random.Random(repr(key))


def random_distinct_points(rng: random.Random, p: int, dim: int, count: int):
    pts = set()
    cap = min(count, p ** dim)
    while len(pts) < cap:
        pts.add(tuple(rng.randrange(p) for _ in range(dim)))
    return sorted(pts)


def random_raw_planes(rng: random.Random, p: int, dim: int, count: int):
    """(normal, offset) pairs, not canonicalised."""
    out = []
    while len(out) < count:
        normal = tuple(rng.randrange(p) for _ in range(dim))
        if any(normal):
            out.append((normal, rng.randrange(p)))
    return out


def random_raw_lines(rng: random.Random, p: int, dim: int, count: int):
    """(base, direction) pairs, not canonicalised."""
    out = []
    while len(out) < count:
        d = tuple(rng.randrange(p) for _ in range(dim))
        if any(d):
            out.append((tuple(rng.randrange(p) for _ in range(dim)), d))
    return out


def tuples(rows) -> list[tuple[int, ...]]:
    """int64 rows as tuples of Python ints, the form the oracles read."""
    return list(map(tuple, rows.tolist()))


@pytest.fixture
def rng():
    return rng_for("default")


def isotropic_line_max(points, p: int) -> int:
    """The most points on one isotropic line, read from the census of the
    isotropic lines; sets without a null pair score min(|A|, 1)."""
    P = counting.distinct_rows(points, p)
    W = counting.isotropic_directions(p, P.shape[1])
    lines = counting._direction_lines(P, p, W) if len(P) else ()
    return max((int(np.diff(bounds).max(initial=1)) for _, _, bounds, _ in lines),
               default=min(len(P), 1))
