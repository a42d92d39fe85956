"""Right-hand-side evaluators for the incidence and energy bounds.

Every evaluator fixes the implied constant at 1 and reports each hypothesis
of its bound as a named flag instead of enforcing it, so sweep reports can
show ratio stability next to the constraint status.  Identifiers:

  T1      point-plane count vs |Pi| (sqrt|Q| + k)
  T1B     asymptotic version with main term |Q||Pi|/p
  T1C     weighted version W (sqrt(w0 W) + k w0)
  T2      planar point-line count over a Cartesian grid A x B
  T3      general planar point-line count, exponent 11/15
  VINH    spectral point-line bound |Q||L|/p + sqrt(p|Q||L|)
  COR21   point-line count for lines inside a three-quadric
  KRICH   number of k-rich lines of an n-point planar set
  T41     distinct bilinear-form values min(|S|^(2/3), p)
  T42     pinned distinct distances in three dimensions min(sqrt|S|, p)
  T43     pinned distinct distances in the plane |S|^(8/15)
  T43LARGE, T43PINNED   large-set companions of T43
  T53     energy on the 3-paraboloid
  T54     energy on the 2-paraboloid (branching at |A| = p^(26/21))
  T55     energy on the 2-sphere (branching at |A| = p^(15/11))
  T56     energy on the 3-sphere
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RhsResult:
    """A bound's rhs, its hypothesis flags, and the branch it took ("small"
    or "large") for the bounds that branch on the set size."""

    theorem: str
    value: float
    flags: dict[str, bool]
    branch: str | None = None


@dataclass(frozen=True)
class BoundReport:
    """One empirical count against one bound: ratio plus hypothesis flags,
    and the bound's branch when it has two."""

    theorem: str
    p: int
    params: dict[str, float]
    count: float
    rhs: float
    ratio: float | None
    flags: dict[str, bool]
    branch: str | None = None

    @classmethod
    def build(cls, rhs_result: RhsResult, p: int, params, count, extra_flags=None):
        flags = dict(rhs_result.flags)
        if extra_flags:
            flags.update(extra_flags)
        return cls(
            theorem=rhs_result.theorem,
            p=p,
            params=dict(params),
            count=count,
            rhs=rhs_result.value,
            ratio=(count / rhs_result.value) if rhs_result.value > 0 else None,
            flags=flags,
            branch=rhs_result.branch,
        )


def _t1(p, q, pi, k):
    return pi * (q ** 0.5 + k), {"points_le_planes": q <= pi, "points_lt_p2": q < p * p}, None


def _t1b(p, q, pi, k):
    return (
        q * pi / p + pi * (q ** 0.5 + k),
        {"points_le_planes": q <= pi},
        None,
    )


def _t1c(p, W, w0, k):
    return (
        W * ((w0 * W) ** 0.5 + k * w0),
        {"weight_ratio_lt_p2": W < p * p * w0, "w0_ge_1": w0 >= 1},
        None,
    )


def _t2(p, a, b, l):
    return (
        a ** 0.75 * b ** 0.5 * l ** 0.75 + a * b + l,
        {"al_lt_p2": a * l < p * p, "a_le_b": a <= b},
        None,
    )


def _t3(p, q, l):
    return (
        (q * l) ** (11 / 15) + q + l,
        {"q13_lt_l2_p15": q ** 13 < l ** 2 * p ** 15},
        None,
    )


def _vinh(p, q, l):
    return q * l / p + (p * q * l) ** 0.5, {}, None


def _cor21(p, q, l, k):
    return (
        q ** 0.5 * l ** 0.5 * (l ** 0.25 + k ** 0.5) + q,
        {"lines_lt_p2": l < p * p},
        None,
    )


def _krich(p, n, k):
    return (
        n ** 2.75 / k ** 3.75 + n ** 1.25 / k,
        {"n_lt_p_26_21": n < p ** (26 / 21), "k_ge_2": k >= 2},
        None,
    )


def _t41(p, s):
    return min(s ** (2 / 3), p), {}, None


def _t42(p, s):
    return min(s ** 0.5, p), {"s_le_p2": s <= p * p}, None


def _t43(p, s):
    return s ** (8 / 15), {"s_le_p_15_11": s <= p ** (15 / 11)}, None


def _t43large(p, s):
    return p / (1 + p * p * s ** -1.5), {}, None


def _t43pinned(p, s):
    return p / (1 + p ** 1.5 / s), {"s_ge_p_15_14": s >= p ** (15 / 14)}, None


def _t53(p, a, k0):
    return a ** 3 / p + a ** 2.5 + a * k0 * k0, {}, None


def _t54(p, a, k0):
    small = a < p ** (26 / 21)
    base = a * k0 * k0
    if small:
        return base + a ** (17 / 7), {}, "small"
    return base + a ** 3 / p + a * a * p ** 0.5, {}, "large"


def _t55(p, a, k0):
    small = a < p ** (15 / 11)
    base = a * k0 * k0
    if small:
        return base + a ** (37 / 15), {}, "small"
    return base + a ** 3 / p + a * a * p ** 0.5, {}, "large"


def _t56(p, a, k0):
    return a ** 3 / p + a ** 2.5 + a * k0 * k0 + a * a * k0, {}, None


_EVALUATORS = {
    "T1": (_t1, ("q", "pi", "k")),
    "T1B": (_t1b, ("q", "pi", "k")),
    "T1C": (_t1c, ("W", "w0", "k")),
    "T2": (_t2, ("a", "b", "l")),
    "T3": (_t3, ("q", "l")),
    "VINH": (_vinh, ("q", "l")),
    "COR21": (_cor21, ("q", "l", "k")),
    "KRICH": (_krich, ("n", "k")),
    "T41": (_t41, ("s",)),
    "T42": (_t42, ("s",)),
    "T43": (_t43, ("s",)),
    "T43LARGE": (_t43large, ("s",)),
    "T43PINNED": (_t43pinned, ("s",)),
    "T53": (_t53, ("a", "k0")),
    "T54": (_t54, ("a", "k0")),
    "T55": (_t55, ("a", "k0")),
    "T56": (_t56, ("a", "k0")),
}

THEOREM_IDS = tuple(sorted(_EVALUATORS))


def parameters(theorem: str) -> tuple[str, ...]:
    """The parameter names of one bound, in the order its rhs takes them."""
    key = theorem.upper()
    if key not in _EVALUATORS:
        raise ValueError(f"unknown bound id {theorem!r}; known: {', '.join(THEOREM_IDS)}")
    return _EVALUATORS[key][1]


def rhs(theorem: str, p: int, **params) -> RhsResult:
    """Evaluate the right-hand side of one bound with implied constant 1.

    Raises ValueError for unknown identifiers or missing parameters; extra
    parameters are rejected to catch typos.
    """
    names, key = parameters(theorem), theorem.upper()
    fn = _EVALUATORS[key][0]
    missing = [n for n in names if n not in params]
    if missing:
        raise ValueError(f"{key} needs parameters {names}, missing {missing}")
    extra = [n for n in params if n not in names]
    if extra:
        raise ValueError(f"{key} takes parameters {names}, got extra {extra}")
    if p <= 0:
        raise ValueError("p must be positive")
    # keep integral inputs exact so constraint flags compare in integers
    args = []
    for n in names:
        v = params[n]
        args.append(int(v) if float(v).is_integer() else float(v))
    value, flags, branch = fn(p, *args)
    return RhsResult(theorem=key, value=float(value), flags=flags, branch=branch)
