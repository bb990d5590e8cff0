"""Stitch pointwise constants into interval and global certificates.

A grid of certified pairs (c_k, C_k) only bounds the ratio at the grid
nodes.  The continuity lemma lifts each node to the interval up to the
next node at the price of the factor (c_{k+1}+1)/(c_k+1); two corner
bounds cover (0, c_1] and [c_n, inf).  The maximum of the lifted and
corner values is a constant valid for every c > 0; a certificate
computes all of them from its nodes, also when it is read from a file.
The same grid also feeds the integral representation of the square
root, which turns the C_k into a single constant for the sqrt
commutator inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from collections.abc import Mapping, Sequence

from commbounds.approx import (
    CommboundsError,
    DomainViolation,
    GaussianParams,
    MixtureParams,
    NumericalFailure,
    _positive,
    _real,
)
from commbounds.formulas import csc1, scaled_cayley_Cc
from commbounds.optimize import BoundPoint

__all__ = [
    "ArgumentOrder",
    "CoverageGap",
    "RejectedCertificate",
    "StitchedCertificate",
    "continuity_lift",
    "corner_large",
    "corner_small",
    "gamma_half_via_Cc",
    "global_constant",
    "sqrt_constant",
]


class ArgumentOrder(ValueError, CommboundsError):
    """Interval endpoints were supplied in the wrong order."""


class CoverageGap(ValueError, CommboundsError):
    """The point grid does not cover the required interval."""


class RejectedCertificate(ValueError, CommboundsError):
    """A certificate file's nodes do not give the certificate it states."""


@dataclass(frozen=True)
class StitchedCertificate:
    """Certificate of a uniform bound, derived from its grid nodes.

    points is the one field a caller sets; the others are computed from
    it.  lifted[k] is C_k pushed forward to [c_k, c_{k+1}] (the last node
    to c_n + max spacing), the corners bound (0, c_1] and [c_n, inf),
    which needs c_n >= 1/2, and global_C is the largest of them all.
    """

    points: tuple[BoundPoint, ...]
    lifted: tuple[float, ...] = field(init=False)
    corner_small: float = field(init=False)
    corner_large: float = field(init=False)
    global_C: float = field(init=False)

    def __post_init__(self) -> None:
        points = tuple(self.points)
        cs, constants = _read_nodes(points)
        spacing = max((v - u for u, v in zip(cs, cs[1:])), default=0.0)
        lifted = [_lift(C, c, d) for C, c, d in zip(constants, cs, cs[1:])]
        # The last upper end c_n + spacing may overflow to inf: the checked lift rejects it.
        lifted.append(continuity_lift(constants[-1], cs[-1], cs[-1] + spacing))
        small, large = corner_small(cs[0]), corner_large(cs[-1])
        values = (points, tuple(lifted), small, large, max(small, large, *lifted))
        for name, value in zip((f.name for f in fields(self)), values):
            object.__setattr__(self, name, value)

    def to_dict(self) -> dict:
        """Plain-types payload; floats survive a JSON round trip exactly.

        A node's params entry is [a, b] for a single Gaussian, null for a
        closed-form line (the resolvent 1 + c or g = 0), and {"mixture": k} for
        a Gaussian mixture, which is stored once as entry k of a trailing
        "mixtures" list (present only when some node uses one).  The payload
        has no degenerate flag: a certificate holds no degenerate node.
        """
        mixtures: dict[MixtureParams, int] = {}
        payload = {
            "grid": [p.c for p in self.points],
            "C_k": [p.C_k for p in self.points],
            "D_k": list(self.lifted),
            "params": [_params_payload(p.params, mixtures) for p in self.points],
            "corner_small": self.corner_small,
            "corner_large": self.corner_large,
            "global_C": self.global_C,
        }
        if mixtures:
            payload["mixtures"] = [m.to_payload() for m in mixtures]
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "StitchedCertificate":
        """Rebuild from grid, C_k, params and mixtures.

        Raises RejectedCertificate when the nodes give no certificate, or
        one whose D_k, corners or global_C differ from the stored in a bit.
        """
        grid, constants, lifted, params = (payload[k] for k in ("grid", "C_k", "D_k", "params"))
        if not (len(grid) == len(constants) == len(lifted) == len(params)):
            raise CoverageGap("grid, C_k, D_k and params must have equal lengths")
        mixtures = [MixtureParams.from_payload(m) for m in payload.get("mixtures", [])]
        points = tuple(
            BoundPoint(_real(c, "grid value"), _real(C, "C_k"), _params_from_payload(entry, mixtures))
            for c, C, entry in zip(grid, constants, params)
        )
        try:
            cert = cls(points)
        except ValueError as exc:
            raise RejectedCertificate(str(exc)) from exc
        stored = [(f"D_k[{k}]", d, e) for k, (d, e) in enumerate(zip(lifted, cert.lifted))]
        for name in ("corner_small", "corner_large", "global_C"):
            stored.append((name, payload[name], getattr(cert, name)))
        for name, value, rebuilt in stored:
            if value != rebuilt:
                raise RejectedCertificate(
                    f"stored {name} = {value!r}, but the nodes give {rebuilt!r}"
                )
        return cert


def _params_payload(params, mixtures: dict) -> list | dict | None:
    if params is None:
        return None
    if isinstance(params, MixtureParams):
        return {"mixture": mixtures.setdefault(params, len(mixtures))}
    return [params.a, params.b]


def _params_from_payload(entry, mixtures: list[MixtureParams]):
    if entry is None:
        return None
    if isinstance(entry, Mapping):
        index = entry["mixture"]
        if type(index) is not int or not 0 <= index < len(mixtures):
            raise ValueError(f"mixture index {index!r} is not an int in [0, {len(mixtures)})")
        return mixtures[index]
    return GaussianParams(entry[0], entry[1])


def continuity_lift(C: float, c: float, d: float) -> float:
    """Lift the bound C at c to any d >= c: D = C (d+1)/(c+1)."""
    c, C, d = _positive(c, "c"), _real(C, "C"), _real(d, "d")
    if not 1.0 <= C < math.inf:
        raise DomainViolation(f"C must be >= 1 and finite, got {C}")
    if not c <= d < math.inf:
        raise ArgumentOrder(f"d must satisfy d >= c, got d={d}, c={c}")
    return _lift(C, c, d)


def _lift(C: float, c: float, d: float) -> float:
    return C * (d + 1.0) / (c + 1.0)


def _read_nodes(points: Sequence[BoundPoint], span: tuple | None = None) -> tuple[list, list]:
    """The node rule, stated once: the list is nonempty, its c are strictly increasing reals,
    each C_k is a real in [1, inf), [c_1, c_n] is the span if one is given, and each c is
    positive and finite, checked in this order.  Returns the c and C_k, each read once."""
    if not points:
        raise CoverageGap("no certificate points supplied")
    cs = [_real(p.c, "c") for p in points]
    if any(u >= v for u, v in zip(cs, cs[1:])):
        raise DomainViolation("points must be strictly increasing in c")
    constants = [_real(p.C_k, "C_k") for p in points]
    for p, C in zip(points, constants):
        if not 1.0 <= C < math.inf:
            raise DomainViolation(f"C_k must be >= 1 and finite, got {p.C_k} at c = {p.c}")
    if span:
        _check_span(points, *span)
    for p, c in zip(points, cs):
        if not 0.0 < c < math.inf:
            _positive(p.c, "c")  # raises, naming the value as given
    return cs, constants


def _check_span(points: Sequence[BoundPoint], lo: float, hi: float) -> None:
    if points and (points[0].c != lo or points[-1].c != hi):
        raise CoverageGap(f"points span [{points[0].c}, {points[-1].c}], required [{lo}, {hi}]")


def corner_small(c1: float) -> float:
    """Bound over (0, c1] from the Lipschitz estimate: sup c/f1(c) = c1 + 1."""
    return _positive(c1, "c1") + 1.0


def corner_large(cn: float) -> float:
    """Bound over [cn, inf) from the shift estimate, valid for cn >= 1/2.

    (1 - 1/(4c))/f1(c) = 1 + 3/(4c) - 1/(4c^2) rises on [1/2, 2/3] to
    its maximum 25/16 at c = 2/3 and decreases beyond, so the supremum
    over the tail is 25/16 for cn <= 2/3 and the value at cn otherwise.
    """
    cn = _real(cn, "cn")
    if not 0.5 <= cn < math.inf:
        raise DomainViolation(f"cn must be >= 1/2, got {cn}")
    # 2.0 / 3.0 rounds down, and no float lies between it and 2/3.
    if cn <= 2.0 / 3.0:
        return 25.0 / 16.0
    return (1.0 - 1.0 / (4.0 * cn)) * (cn + 1.0) / cn


def global_constant(points: Sequence[BoundPoint], c1: float, cn: float) -> StitchedCertificate:
    """Combine lifted node bounds with the two corner bounds.

    The points must span [c1, cn] exactly; the result bounds the ratio
    for every c > 0.
    """
    points = tuple(points)
    _check_span(points, c1, cn)
    return StitchedCertificate(points)


_SQRT_SPAN = (0.0195, 40.0)


def sqrt_constant(points: Sequence[BoundPoint]) -> float:
    """Constant for the sqrt commutator bound via the integral representation.

    (1/pi) [ 2 sqrt(c_1)
             + sum_k (2 C_k/(c_k+1)) (sqrt(c_{k+1}) - sqrt(c_k))
             + 2/sqrt(c_n) ].
    The grid must span exactly [0.0195, 40].
    """
    cs, constants = _read_nodes(tuple(points), _SQRT_SPAN)
    total = 2.0 * math.sqrt(cs[0]) + 2.0 / math.sqrt(cs[-1])
    for c, C, d in zip(cs, constants, cs[1:]):
        total += 2.0 * C / (c + 1.0) * (math.sqrt(d) - math.sqrt(c))
    return total / math.pi


def gamma_half_via_Cc() -> float:
    """sqrt-commutator constant from the capped Cayley curve alone.

    Evaluates (1/pi) integral over (0, inf) of the integrand
    min(csc 1, Cayley(t)) / ((1 + t) sqrt t).  The substitution t = u^2
    removes the 1/sqrt(t) singularity, leaving
    (2/pi) integral of min(csc 1, Cayley(u^2))/(1+u^2) du, which is
    smooth; with the curve replaced by 1 the integral is exactly 1.
    """
    from scipy.integrate import quad

    def smooth(u: float) -> float:
        return 2.0 * min(csc1(), scaled_cayley_Cc(u * u)) / (1.0 + u * u)

    value, estimate = quad(smooth, 0.0, math.inf, epsabs=1e-10, epsrel=1e-10, limit=200)
    if estimate / math.pi > 1e-6:
        raise NumericalFailure(f"quadrature error estimate {estimate / math.pi:.3e} exceeds 1e-6")
    return value / math.pi
