"""Truncated operators, spectra, heat semigroups and partial traces.

Operators are assembled on finite truncations in two flavors: the
Neumann flavor keeps the induced form of the truncation; the Dirichlet
flavor removes a boundary set and retains its couplings as extra
diagonal, which is the matrix picture of forcing zero boundary values.
The measure enters through a diagonal similarity, so one symmetric
eigensolve serves every time value of the heat semigroup.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import Measure, Vertex, WeightedGraph, quadratic_form_matrix
from .errors import UnknownVertexError, ValidationError
from .exhaustion import Ball, ConvergenceReport, GraphFamily, climb

ZERO_EIGENVALUE_TOL = 1e-10


@dataclass(frozen=True)
class TruncatedOperator:
    """Finite selfadjoint realization of the measure-weighted Laplacian.

    ``matrix`` is the symmetrized form D^{-1/2} A D^{-1/2} with D the
    measure diagonal and A the energy matrix over the operator's support
    (for the Dirichlet kind, A keeps the couplings into the removed
    boundary on its diagonal).
    """

    kind: str  # "neumann" | "dirichlet"
    vertices: tuple[Vertex, ...]
    matrix: np.ndarray
    measure: np.ndarray
    boundary: tuple[Vertex, ...] = ()

    @property
    def size(self) -> int:
        return len(self.vertices)

    @property
    def total_measure(self) -> float:
        return float(self.measure.sum())

    @cached_property
    def index(self) -> dict[Vertex, int]:
        return {v: i for i, v in enumerate(self.vertices)}


def assemble(
    g: WeightedGraph,
    m: Measure,
    kind: str = "neumann",
    boundary: Iterable[Vertex] = (),
) -> TruncatedOperator:
    """Build the Neumann or Dirichlet operator for a graph and measure.

    Only the Dirichlet kind has a boundary; a nonempty ``boundary`` with
    the Neumann kind raises ValidationError instead of being ignored."""
    if kind not in ("neumann", "dirichlet"):
        raise ValidationError([f"unknown operator kind {kind!r}"])
    boundary = tuple(boundary)
    if kind == "neumann" and boundary:
        raise ValidationError(["a boundary set needs the dirichlet kind"])
    A = quadratic_form_matrix(g)
    if kind == "neumann":
        support = g.vertices
    else:
        bset = set(boundary)
        unknown = bset - set(g.vertices)
        if unknown:
            raise ValidationError([f"boundary vertex {v!r} not in graph" for v in unknown])
        support = tuple(v for v in g.vertices if v not in bset)
        if not support:
            raise ValidationError(["empty interior for dirichlet operator"])
        idx = [g.index[v] for v in support]
        A = A[np.ix_(idx, idx)]
        boundary = tuple(v for v in g.vertices if v in bset)
    marr = np.array([m[v] for v in support], dtype=float)
    dhalf = 1.0 / np.sqrt(marr)
    sym = dhalf[:, None] * A * dhalf[None, :]
    sym = 0.5 * (sym + sym.T)
    return TruncatedOperator(kind, tuple(support), sym, marr, boundary)


@dataclass(frozen=True)
class SpectrumResult:
    """Eigenvalues (ascending) with measure-orthonormal eigenfunctions."""

    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray  # column k is the k-th eigenfunction
    vertices: tuple[Vertex, ...]

    @property
    def e0_multiplicity(self) -> int:
        return int(np.sum(self.eigenvalues < ZERO_EIGENVALUE_TOL))


def spectrum(op: TruncatedOperator) -> SpectrumResult:
    """Full eigendecomposition in the measure-weighted inner product."""
    evals, psi = np.linalg.eigh(op.matrix)
    phi = psi / np.sqrt(op.measure)[:, None]
    return SpectrumResult(evals, phi, op.vertices)


@dataclass(frozen=True)
class HeatResult:
    """Heat kernel snapshot at one time."""

    t: float
    vertices: tuple[Vertex, ...]
    kernel: np.ndarray
    mass: np.ndarray
    partial_trace: float

    @cached_property
    def _position(self) -> dict[Vertex, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    def entry(self, x: Vertex, y: Vertex) -> float:
        for v in (x, y):
            if v not in self._position:
                raise UnknownVertexError(repr(v))
        return float(self.kernel[self._position[x], self._position[y]])


def _finite_at(t: float, compute: Callable[[], tuple]) -> tuple:
    """The arrays and numbers ``compute`` derives from the heat weights
    exp(-t λ), with numpy's overflow warnings off; ValidationError when any
    of them is not finite.  An eigensolver can give a zero eigenvalue as
    about -1e-15, and at a large t its weight overflows to inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        values = compute()
    if not all(np.isfinite(x).all() for x in values):
        raise ValidationError([f"heat kernel at t = {t!r} overflows the float range"])
    return values


def heat(
    op: TruncatedOperator,
    t: float,
    spec: SpectrumResult | None = None,
) -> HeatResult:
    """Heat kernel, total mass under the semigroup and the partial trace.

    Kernel entries satisfy (e^{-tL} f)(x) = sum_y p_t(x,y) f(y) m(y).
    At t = 0 the semigroup is the identity, returned exactly and without
    an eigensolve: p_0(x,y) = δ(x,y)/m(x), every mass 1, trace n.
    """
    if not 0 <= t < np.inf:
        raise ValidationError(["heat semigroup needs a finite t >= 0"])
    if t == 0:
        n = op.size
        return HeatResult(t, op.vertices, np.diag(1.0 / op.measure), np.ones(n), float(n))
    spec = spec or spectrum(op)
    phi = spec.eigenfunctions

    def semigroup():
        weights = np.exp(-t * spec.eigenvalues)
        kernel = (phi * weights[None, :]) @ phi.T
        return kernel, kernel @ op.measure, float(weights.sum())

    return HeatResult(t, op.vertices, *_finite_at(t, semigroup))


def trace_convergence(
    fam: GraphFamily,
    t: float,
    levels: Sequence[int],
    tolerance: float = 1e-6,
) -> ConvergenceReport:
    """Partial traces of the Dirichlet semigroup across exhaustion levels.

    Each level kills its frontier; bounded increments across levels are
    the finite-scale evidence for a trace-class limit.  The traces are
    nondecreasing: each level's domain contains the last one's, so its
    Dirichlet eigenvalues lie lower, and there are more of them.  The
    family must supply a measure.
    """
    if not 0 <= t < np.inf:
        raise ValidationError(["trace monitoring needs a finite t >= 0"])

    def trace(n: int, b: Ball) -> float:
        if b.measure is None:
            raise ValidationError([f"family {fam.name} supplies no measure"])
        if not b.frontier:
            op = assemble(b.graph, b.measure, "neumann")
        else:
            op = assemble(b.graph, b.measure, "dirichlet", b.frontier)
        if t == 0:
            return float(op.size)
        lam = np.linalg.eigvalsh(op.matrix)
        return _finite_at(t, lambda: (float(np.exp(-t * lam).sum()),))[0]

    return climb(fam, levels, trace, tolerance, trend=1)[1]


def zero_multiplicity_matches_components(
    g: WeightedGraph, m: Measure
) -> tuple[int, int]:
    """(spectral multiplicity of 0, count of killing-free components) for
    the Neumann operator; the two agree on finite graphs."""
    spec = spectrum(assemble(g, m, "neumann"))
    free = sum(
        1 for comp in g.components if all(g.killing[v] == 0.0 for v in comp)
    )
    return spec.e0_multiplicity, free
