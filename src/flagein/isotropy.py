"""Structure constants of K/T relative to the per-root isotropy summands.

Each positive root alpha labels a 2-dimensional summand m_alpha.  The only
nonzero structure-constant triples {i, j, k} are those whose roots satisfy
alpha_i + alpha_j = alpha_k up to reordering, and the value is twice the
squared bracket constant, computed exactly from root strings:

    N^2(alpha, beta) = q (p + 1) / 2 * Q(alpha, alpha)

where beta + k alpha runs over roots for -p <= k <= q.

``triple_tensor`` derives the tensor from the spec on every call; nothing is
memoized at module level, so a caller that needs it repeatedly builds it once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .rootsys import KillingForm, Root, RootSystemSpec, killing_form, positive_roots


@dataclass(frozen=True)
class RootString:
    """The maximal alpha-chain through beta: beta + k*alpha in R for -p <= k <= q."""

    p: int
    q: int


def root_string(alpha: Root, beta: Root, roots: frozenset[tuple[int, ...]]) -> RootString:
    """Scan the root set (coefficient tuples) for the alpha-string through beta."""
    if beta.coeffs == alpha.coeffs or beta.coeffs == (-alpha).coeffs:
        raise DomainError("root string undefined for proportional roots")

    def walk(direction: int) -> int:
        steps = 0
        current = list(beta.coeffs)
        while True:
            current = [c + direction * a for c, a in zip(current, alpha.coeffs)]
            if tuple(current) in roots:
                steps += 1
            else:
                return steps

    return RootString(p=walk(-1), q=walk(+1))


def n_squared(alpha: Root, beta: Root, form: KillingForm, roots: frozenset[tuple[int, ...]]) -> Fraction:
    """Squared bracket constant for the pair (alpha, beta); 0 when alpha+beta is not a root."""
    total = tuple(a + b for a, b in zip(alpha.coeffs, beta.coeffs))
    if total not in roots:
        return Fraction(0)
    s = root_string(alpha, beta, roots)
    return Fraction(s.q * (s.p + 1), 2) * form.length_sq(alpha)


@dataclass(frozen=True)
class TripleTensor:
    """Symmetric map from unordered positive-root index triples to positive rationals."""

    entries: tuple[tuple[tuple[int, int, int], Fraction], ...]
    dims: tuple[int, ...]

    def to_records(self) -> list[dict]:
        """JSON-ready records with 1-based indices and exact rational strings."""
        return [
            {"indices": [i + 1, j + 1, k + 1], "value": str(v)}
            for (i, j, k), v in self.entries
        ]


def triple_tensor(spec: RootSystemSpec) -> TripleTensor:
    """All nonzero triples {i, j, i+j} with value 2 N^2(alpha_i, alpha_j)."""
    pos = positive_roots(spec)
    form = killing_form(spec)
    roots = frozenset(c for r in pos for c in (r.coeffs, (-r).coeffs))
    index = {r.coeffs: n for n, r in enumerate(pos)}
    entries = {}
    for i in range(len(pos)):
        for j in range(i + 1, len(pos)):
            total = tuple(a + b for a, b in zip(pos[i].coeffs, pos[j].coeffs))
            k = index.get(total)
            if k is None:
                continue
            value = 2 * n_squared(pos[i], pos[j], form, roots)
            entries[tuple(sorted((i, j, k)))] = value
    return TripleTensor(entries=tuple(sorted(entries.items())), dims=(2,) * len(pos))
