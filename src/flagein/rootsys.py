"""Root systems of compact simple Lie groups.

Roots are stored as integer vectors in the simple-root basis.  The bilinear
form is the one induced by the Killing form of the compact group, scaled so
that sum_{beta in R} Q(alpha, beta)^2 = Q(alpha, alpha) for every root; this
single rule reproduces the classical normalizations (e.g. the short root of
G2 has squared length 1/12) for every supported type.

The Cartan matrix convention is A[i][j] = 2 (alpha_i, alpha_j) / (alpha_i,
alpha_i), so the simple reflection acts by s_i(alpha_j) = alpha_j - A[i][j]
alpha_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigurationError, DomainError

SUPPORTED_FAMILIES = ("A", "B", "C", "D", "G")


@dataclass(frozen=True)
class Root:
    """A root written in the simple-root basis: coeffs[i] multiplies alpha_i."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not any(self.coeffs):
            raise DomainError("a root is nonzero")
        pos = all(c >= 0 for c in self.coeffs)
        neg = all(c <= 0 for c in self.coeffs)
        if not (pos or neg):
            raise DomainError(f"mixed-sign coefficient vector {self.coeffs} is not a root")

    @property
    def height(self) -> int:
        return sum(self.coeffs)

    def __neg__(self) -> "Root":
        return Root(tuple(-c for c in self.coeffs))

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            name = f"a{i + 1}"
            if c == 1:
                parts.append(f"+{name}")
            elif c == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{c:+d}{name}")
        out = "".join(parts)
        return out[1:] if out.startswith("+") else out


@dataclass(frozen=True)
class RootSystemSpec:
    """Lie type, rank, and Cartan matrix of a simple compact group."""

    type_label: str
    cartan_matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        a = self.cartan_matrix
        n = len(a)
        for i in range(n):
            if a[i][i] != 2:
                raise ConfigurationError("Cartan matrix diagonal must be 2")
            for j in range(n):
                if i != j and a[i][j] > 0:
                    raise ConfigurationError("off-diagonal Cartan entries must be <= 0")
                if (a[i][j] == 0) != (a[j][i] == 0):
                    raise ConfigurationError("Cartan zero pattern must be symmetric")

    @property
    def rank(self) -> int:
        return len(self.cartan_matrix)


def _cartan_matrix(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix with A[i][j] = 2(a_i, a_j)/(a_i, a_i)."""
    if family == "G":
        return ((2, -1), (-3, 2))
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    chain = rank - 1 if family == "D" else rank
    for i in range(chain - 1):
        a[i][i + 1] = -1
        a[i + 1][i] = -1
    if family == "B":
        # last simple root is short
        a[rank - 1][rank - 2] = -2
    elif family == "C":
        # last simple root is long
        a[rank - 2][rank - 1] = -2
    elif family == "D":
        a[rank - 3][rank - 1] = -1
        a[rank - 1][rank - 3] = -1
    return tuple(tuple(row) for row in a)


def root_system(label: str) -> RootSystemSpec:
    """Look up a root system by label such as 'G2', 'A2', or 'B3'."""
    label = label.strip()
    family, rank_text = label[:1].upper(), label[1:]
    if family not in SUPPORTED_FAMILIES or not rank_text.isdigit():
        raise ConfigurationError(f"unsupported group {label!r}")
    rank = int(rank_text)
    minimum = {"A": 1, "B": 2, "C": 3, "D": 4, "G": 2}[family]
    if rank < minimum or (family == "G" and rank != 2):
        raise ConfigurationError(f"unsupported group {label!r}")
    return RootSystemSpec(type_label=f"{family}{rank}", cartan_matrix=_cartan_matrix(family, rank))


def _cartan_pairing(spec: RootSystemSpec, beta: Root, i: int) -> int:
    """2 (beta, alpha_i) / (alpha_i, alpha_i), an integer."""
    return sum(c * spec.cartan_matrix[i][j] for j, c in enumerate(beta.coeffs))


def positive_roots(spec: RootSystemSpec) -> tuple[Root, ...]:
    """All positive roots, ordered by (height, then reverse-lex coefficients).

    Generated by breadth-first closure from the simple roots: beta + alpha_i
    is a root exactly when the alpha_i-string through beta continues upward,
    i.e. q = p - <beta, alpha_i^vee> > 0.
    """
    rank = spec.rank
    simple = [Root(tuple(1 if j == i else 0 for j in range(rank))) for i in range(rank)]
    found: set[tuple[int, ...]] = {r.coeffs for r in simple}
    frontier = list(simple)
    while frontier:
        new: list[Root] = []
        for beta in frontier:
            for i in range(rank):
                # lower heights are complete, so membership in `found` decides p
                p = 0
                down = list(beta.coeffs)
                while True:
                    down[i] -= 1
                    if tuple(down) in found:
                        p += 1
                    else:
                        break
                q = p - _cartan_pairing(spec, beta, i)
                if q > 0:
                    up = list(beta.coeffs)
                    up[i] += 1
                    if tuple(up) not in found:
                        found.add(tuple(up))
                        new.append(Root(tuple(up)))
        frontier = new
    roots = [Root(c) for c in found]
    roots.sort(key=lambda r: (r.height, tuple(-c for c in r.coeffs)))
    return tuple(roots)


@dataclass(frozen=True)
class KillingForm:
    """Bilinear form Q on the simple-root basis, Killing-normalized."""

    gram: tuple[tuple[Fraction, ...], ...]

    def pair_roots(self, a: Root, b: Root) -> Fraction:
        total = Fraction(0)
        for i, ci in enumerate(a.coeffs):
            if ci == 0:
                continue
            row = self.gram[i]
            for j, cj in enumerate(b.coeffs):
                if cj:
                    total += ci * cj * row[j]
        return total

    def length_sq(self, a: Root) -> Fraction:
        return self.pair_roots(a, a)


def killing_form(spec: RootSystemSpec) -> KillingForm:
    """Symmetrize the Cartan matrix, then fix the scale by the identity
    sum_{beta in R} Q(alpha, beta)^2 = Q(alpha, alpha)."""
    rank = spec.rank
    a = spec.cartan_matrix
    # relative squared lengths from A[i][j] (a_i,a_i) = A[j][i] (a_j,a_j)
    lengths: list[Fraction | None] = [None] * rank
    lengths[0] = Fraction(1)
    pending = [0]
    while pending:
        i = pending.pop()
        for j in range(rank):
            if i != j and a[i][j] != 0 and lengths[j] is None:
                # A[i][j] (a_i, a_i) = 2 (a_i, a_j) = A[j][i] (a_j, a_j)
                lengths[j] = lengths[i] * Fraction(a[i][j], a[j][i])
                pending.append(j)
    if any(l is None for l in lengths):
        raise ConfigurationError("Cartan matrix is not connected")
    gram0 = [[a[i][j] * lengths[i] / 2 for j in range(rank)] for i in range(rank)]
    form0 = KillingForm(gram0)
    pos = positive_roots(spec)
    alpha = pos[0]
    # beta and -beta contribute the same square
    total = 2 * sum(form0.pair_roots(alpha, beta) ** 2 for beta in pos)
    scale = form0.length_sq(alpha) / total
    gram = tuple(tuple(scale * v for v in row) for row in gram0)
    return KillingForm(gram=gram)


def weyl_orbit_permutations(spec: RootSystemSpec) -> tuple[tuple[int, ...], ...]:
    """The group of positive-root index permutations induced by the Weyl group.

    Each Weyl element w sends alpha to +-w(alpha); folding signs gives a
    permutation of the positive roots.  Generated by the simple reflections
    and closed under composition.  Permutations are tuples sigma with
    sigma[i] = index of the folded image of the i-th positive root.
    """
    pos = positive_roots(spec)
    # a root and its negative fold to the index of the positive one
    index = {c: k for k, r in enumerate(pos) for c in (r.coeffs, (-r).coeffs)}
    # s_i(beta) = beta - <beta, alpha_i^vee> alpha_i changes coordinate i only
    generators = [
        tuple(index[r.coeffs[:i] + (r.coeffs[i] - _cartan_pairing(spec, r, i),) + r.coeffs[i + 1:]] for r in pos)
        for i in range(spec.rank)
    ]
    identity = tuple(range(len(pos)))
    group = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for sigma in frontier:
            for gen in generators:
                composed = tuple(gen[sigma[i]] for i in range(len(sigma)))
                if composed not in group:
                    group.add(composed)
                    new.append(composed)
        frontier = new
    return tuple(sorted(group))


def long_short_split(spec: RootSystemSpec) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Indices of the longest-length positive roots and of all others."""
    form = killing_form(spec)
    pos = positive_roots(spec)
    lengths = [form.length_sq(r) for r in pos]
    top = max(lengths)
    long_idx = tuple(i for i, l in enumerate(lengths) if l == top)
    short_idx = tuple(i for i, l in enumerate(lengths) if l != top)
    return long_idx, short_idx
