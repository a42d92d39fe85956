"""The incidence, distance and energy bounds as one table.

Each bound id has one row: the report labels of the quantities it bounds,
its parameter names and its right-hand side.  Every rhs fixes the implied
constant at 1 and reports each hypothesis of its bound as a named flag
instead of enforcing it, so sweep reports can show ratio stability next to
the constraint status.
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


# the report labels of the quantities the bounds apply to
_PLANE = ("point_plane", "point_plane_restricted")
_LINE = ("point_line",)
_PINNED = ("pinned_distances",)
_ENERGY = ("energy_paraboloid", "energy_sphere")


def _planar_energy(cut: float, exponent: float):
    """T54's and T55's rhs: a^exponent below |A| = p^cut, the large-set
    terms from there on."""
    def value(p, a, k0):
        if a < p ** cut:
            return a * k0 * k0 + a ** exponent, {}, "small"
        return a * k0 * k0 + a ** 3 / p + a * a * p ** 0.5, {}, "large"
    return value


# bound id -> (the labels of the quantities it bounds, its rhs), the rhs a
# function (p, *parameters) -> (value, hypothesis flags), with the branch
# taken appended by the bounds that branch on the set size; the parameter
# names are the rhs's own argument names after p
_BOUNDS = {
    # point-plane count vs |Pi| (sqrt|Q| + k)
    "T1": (_PLANE, lambda p, q, pi, k: (
        pi * (q ** 0.5 + k), {"points_le_planes": q <= pi, "points_lt_p2": q < p * p})),
    # asymptotic version with main term |Q||Pi|/p
    "T1B": (_PLANE, lambda p, q, pi, k: (
        q * pi / p + pi * (q ** 0.5 + k), {"points_le_planes": q <= pi})),
    # weighted version W (sqrt(w0 W) + k w0)
    "T1C": (_PLANE, lambda p, W, w0, k: (
        W * ((w0 * W) ** 0.5 + k * w0),
        {"weight_ratio_lt_p2": W < p * p * w0, "w0_ge_1": w0 >= 1})),
    # planar point-line count over a Cartesian grid A x B
    "T2": (_LINE, lambda p, a, b, l: (
        a ** 0.75 * b ** 0.5 * l ** 0.75 + a * b + l,
        {"al_lt_p2": a * l < p * p, "a_le_b": a <= b})),
    # general planar point-line count, exponent 11/15
    "T3": (_LINE, lambda p, q, l: (
        (q * l) ** (11 / 15) + q + l, {"q13_lt_l2_p15": q ** 13 < l ** 2 * p ** 15})),
    # spectral point-line bound |Q||L|/p + sqrt(p|Q||L|)
    "VINH": (_LINE, lambda p, q, l: (q * l / p + (p * q * l) ** 0.5, {})),
    # point-line count for lines inside a three-quadric
    "COR21": ((), lambda p, q, l, k: (
        q ** 0.5 * l ** 0.5 * (l ** 0.25 + k ** 0.5) + q, {"lines_lt_p2": l < p * p})),
    # number of k-rich lines of an n-point planar set
    "KRICH": ((), lambda p, n, k: (
        n ** 2.75 / k ** 3.75 + n ** 1.25 / k,
        {"n_lt_p_26_21": n < p ** (26 / 21), "k_ge_2": k >= 2})),
    # distinct bilinear-form values
    "T41": (("form_values",), lambda p, s: (min(s ** (2 / 3), p), {})),
    # pinned distinct distances in three dimensions
    "T42": (_PINNED, lambda p, s: (min(s ** 0.5, p), {"s_le_p2": s <= p * p})),
    # pinned distinct distances in the plane, and its large-set companions
    "T43": (_PINNED, lambda p, s: (s ** (8 / 15), {"s_le_p_15_11": s <= p ** (15 / 11)})),
    "T43LARGE": (_PINNED, lambda p, s: (p / (1 + p * p * s ** -1.5), {})),
    "T43PINNED": (_PINNED, lambda p, s: (
        p / (1 + p ** 1.5 / s), {"s_ge_p_15_14": s >= p ** (15 / 14)})),
    # energy on the 3-paraboloid
    "T53": (_ENERGY, lambda p, a, k0: (a ** 3 / p + a ** 2.5 + a * k0 * k0, {})),
    # energy on the 2-paraboloid and on the 2-sphere
    "T54": (_ENERGY, _planar_energy(26 / 21, 17 / 7)),
    "T55": (_ENERGY, _planar_energy(15 / 11, 37 / 15)),
    # energy on the 3-sphere
    "T56": (_ENERGY, lambda p, a, k0: (
        a ** 3 / p + a ** 2.5 + a * k0 * k0 + a * a * k0, {})),
}

THEOREM_IDS = tuple(sorted(_BOUNDS))


def _bound(theorem: str):
    key = theorem.upper()
    if key not in _BOUNDS:
        raise ValueError(f"unknown bound id {theorem!r}; known: {', '.join(THEOREM_IDS)}")
    return _BOUNDS[key]


def quantities(theorem: str) -> tuple[str, ...]:
    """The report labels of the quantities one bound applies to."""
    return _bound(theorem)[0]


def parameters(theorem: str) -> tuple[str, ...]:
    """The parameter names of one bound, in the order its rhs takes them."""
    code = _bound(theorem)[1].__code__
    return code.co_varnames[1 : code.co_argcount]


def rhs(theorem: str, p: int, **params) -> RhsResult:
    """Evaluate the right-hand side of one bound with implied constant 1.

    Raises ValueError for unknown identifiers or missing parameters; extra
    parameters are rejected to catch typos.
    """
    names, key = parameters(theorem), theorem.upper()
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
    value, flags, *branch = _BOUNDS[key][1](p, *args)
    return RhsResult(theorem=key, value=float(value), flags=flags,
                     branch=branch[0] if branch else None)
