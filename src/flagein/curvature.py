"""Ricci curvature of invariant metrics on K/T and the Kaehler-Einstein metric.

An invariant metric is one positive scale per isotropy summand (per positive
root).  The Ricci component on the summand of alpha is

    r_alpha = 1/(2 x_alpha)
              + (1/8) sum_{beta,gamma} (x_alpha / (x_beta x_gamma)) c[alpha; beta gamma]
              - (1/4) sum_{beta,gamma} (x_gamma / (x_alpha x_beta)) c[gamma; alpha beta]

with both sums over ordered pairs of positive roots, so each stored unordered
triple contributes two ordered terms to each sum.  One evaluation routine
serves exact rationals, binary64 floats, and symbolic Laurent entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .isotropy import TripleTensor
from .polyalg.poly import content
from .rootsys import Root, RootSystemSpec, killing_form, positive_roots

Scalar = Fraction | float


@dataclass(frozen=True)
class InvariantMetric:
    """Positive scale x_alpha per positive root, exact or float."""

    x: tuple[Scalar, ...]

    def __post_init__(self):
        if not self.x:
            raise DomainError("metric needs at least one summand")

    @property
    def is_exact(self) -> bool:
        return all(isinstance(v, Fraction) for v in self.x)

    @classmethod
    def exact(cls, values) -> "InvariantMetric":
        return cls(tuple(Fraction(v) for v in values))

    @classmethod
    def floating(cls, values) -> "InvariantMetric":
        return cls(tuple(float(v) for v in values))


@dataclass(frozen=True)
class RicciComponents:
    """Per-summand Ricci values and the scalar curvature 2 * sum r_i."""

    r: tuple[Scalar, ...]
    scalar_curvature: Scalar


@dataclass(frozen=True)
class EinsteinSolution:
    """A candidate Einstein metric with its classification data."""

    metric: InvariantMetric
    k: Scalar
    kaehler: bool
    isometry_class: str
    provenance: str  # "algebraic" | "numeric"
    residual: Scalar


def _ricci_values(x, triples: TripleTensor):
    """Shared evaluation core; x entries may be Fraction, float, or LaurentPoly.

    A Fraction times a float is float(Fraction) times that float, so float
    entries take float weights directly and give the same values."""
    weight = float if all(isinstance(v, float) for v in x) else Fraction
    r = [weight(Fraction(1, 2)) / v for v in x]
    for (i, j, k), c in triples.entries:
        # ordered pairs (b, d) and (d, b) contribute equally to both sums, so
        # both carry the weight 2 * c/8 = c/4
        q = weight(c / 4)
        for a, b, d in ((i, j, k), (j, i, k), (k, i, j)):
            r[a] = r[a] + q * (x[a] / (x[b] * x[d]))
            r[a] = r[a] - q * (x[d] / (x[a] * x[b]) + x[b] / (x[a] * x[d]))
    return r


def ricci(metric: InvariantMetric, triples: TripleTensor) -> RicciComponents:
    """Ricci components of an invariant metric; exactness follows the input."""
    if len(metric.x) != len(triples.dims):
        raise DomainError(f"metric needs {len(triples.dims)} entries, got {len(metric.x)}")
    if not all(v > 0 for v in metric.x):
        raise DomainError("metric entries must be positive")
    values = _ricci_values(list(metric.x), triples)
    scalar = sum(2 * v for v in values)
    return RicciComponents(r=tuple(values), scalar_curvature=scalar)


def einstein_residual(metric: InvariantMetric, triples: TripleTensor) -> tuple[Scalar, Scalar]:
    """(k estimate, residual): k is the mean Ricci component, the residual is
    the worst spread max r_i - min r_i (zero exactly when Einstein)."""
    components = ricci(metric, triples)
    s = len(components.r)
    k = sum(components.r) / s
    residual = max(components.r) - min(components.r)
    return k, residual


def kaehler_einstein_metric(spec: RootSystemSpec) -> InvariantMetric:
    """The metric with components 2 (delta, alpha), rescaled to coprime integers;
    2 delta is the sum of the positive roots."""
    form = killing_form(spec)
    pos = positive_roots(spec)
    two_delta = Root(tuple(map(sum, zip(*(r.coeffs for r in pos)))))
    raw = [form.pair_roots(two_delta, alpha) for alpha in pos]
    shared = content(raw)
    return InvariantMetric.exact([v / shared for v in raw])


def apply_permutation(sigma: tuple[int, ...], values: tuple) -> tuple:
    """Transport a coordinate vector along an index permutation."""
    return tuple(values[sigma[i]] for i in range(len(sigma)))
