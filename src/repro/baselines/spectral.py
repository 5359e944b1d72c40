"""Spectral bisection baseline (modern reference point).

Not in the paper's 1989 comparison, but the natural "graph space" method
it cites (Fukunaga et al.) matured into spectral partitioning; a credible
open-source release of a hypergraph partitioner ships one.  We split at
the median of the Fiedler vector of the clique expansion's weighted
Laplacian (each k-pin net a k-clique with edge weight ``w / (k - 1)``,
the standard net model).  The expansion stays implicit: ``L`` is applied
from the vertex × net pin incidence ``B`` as
``L·x = diag(B·(W·k))·x - B·(W·(Bᵀ·x))`` with ``W = diag(w / (k - 1))``,
so a k-pin net costs k entries, not k².

The raw Fiedler vector is only defined up to sign and, within numerical
noise, up to the ordering of (near-)equal components — both of which
vary across BLAS builds and Lanczos start vectors.  The split is
therefore *canonicalized* before use: components are quantized to
:data:`_TIE_DECIMALS` decimals (absorbing eigensolver jitter), the sign
is fixed so the first nonzero quantized component (in vertex order) is
positive, and ties sort by vertex index.  This makes the returned cut a
deterministic function of the hypergraph alone, which is what lets
``spectral`` sit in the bench harness's exact cut-quality gate.
"""

from __future__ import annotations

import random

import numpy as np

from repro import obs
from repro.baselines.result import BaselineResult
from repro.core.hypergraph import Hypergraph
from repro.core.partition import Bipartition
from repro.runtime import Deadline, faults

#: Fiedler components are rounded to this many decimals before ordering;
#: differences below it are eigensolver noise, not structure.
_TIE_DECIMALS = 7


def _canonical_order(fiedler: np.ndarray) -> np.ndarray:
    """Deterministic vertex order from a Fiedler vector.

    Quantize, fix the global sign (first nonzero quantized component
    positive), then sort by (quantized value, vertex index).  Two
    eigensolves that agree up to sign and sub-quantum jitter yield the
    same order — the tie-break that makes spectral cuts bit-stable.
    """
    quantized = np.round(fiedler, _TIE_DECIMALS) + 0.0  # +0.0 folds -0.0 into 0.0
    for value in quantized:
        if value != 0.0:
            if value < 0.0:
                quantized = -quantized
            break
    return np.lexsort((np.arange(len(quantized)), quantized))


def spectral_bisection(
    hypergraph: Hypergraph,
    seed: int | random.Random | None = None,
    deadline: Deadline | float | None = None,
) -> BaselineResult:
    """Bisect ``hypergraph`` with the Fiedler vector of its clique expansion.

    Deterministic: whole components are placed in a fixed order (size
    descending, then smallest vertex ``repr``) and only the one
    straddling the median is split, in its canonical Fiedler order (see
    :func:`_canonical_order`); ``seed`` only seeds the Lanczos start
    vector.  Returns a true bisection (``| |L| - |R| | <= 1``);
    ``iterations`` counts Laplacian applies.

    An already-expired ``deadline`` skips the monolithic (uncheckpointable)
    eigensolve for a deterministic median split of the sorted vertices.
    """
    n = hypergraph.num_vertices
    if n < 2:
        raise ValueError("need at least two vertices to bipartition")
    deadline = Deadline.coerce(deadline)
    vertices = sorted(hypergraph.vertices, key=repr)
    faults.inject("baseline.spectral.solve")

    half = n // 2
    order, matvecs = list(range(n)), 0
    expired = deadline is not None and deadline.expired()
    if not expired:
        import scipy.sparse as sp
        from scipy.sparse.csgraph import connected_components

        incidence, scale = _pin_incidence(hypergraph, vertices)
        rng = seed if isinstance(seed, random.Random) else random.Random(seed)
        with obs.span("baseline.spectral"):
            # Components of the vertex + net star graph: linear in pins.
            star = sp.bmat([[None, incidence], [incidence.T, None]])
            labels = connected_components(star, directed=False)[1][:n]
            bounds = np.cumsum(np.bincount(labels))[:-1]
            components = np.split(np.argsort(labels, kind="stable"), bounds)
            components.sort(key=lambda comp: (-len(comp), comp[0]))
            order = []
            for comp in components:
                if len(order) < half < len(order) + len(comp):
                    fiedler, matvecs = _fiedler_vector(incidence[comp], scale, rng)
                    comp = comp[_canonical_order(fiedler)]
                order.extend(comp)
        obs.count("baseline.spectral.components", len(components))
    left = {vertices[i] for i in order[:half]}
    bipartition = Bipartition(hypergraph, left, set(vertices) - left)
    obs.count("baseline.spectral.runs")
    obs.count("baseline.spectral.matvecs", matvecs)
    if expired:
        obs.count("baseline.spectral.deadline_stops")
    return BaselineResult(
        bipartition=bipartition,
        iterations=matvecs,
        evaluations=hypergraph.num_edges,
        history=(bipartition.cutsize,),
        degraded=expired,
        degrade_reason="deadline expired before eigensolve; median split" if expired else None,
    )


def _pin_incidence(hypergraph: Hypergraph, vertices: list) -> tuple:
    """Vertex × net 0/1 incidence over nets of >= 2 pins, and ``w / (k - 1)`` per net."""
    import scipy.sparse as sp

    index = {v: i for i, v in enumerate(vertices)}
    rows, cols, scale = [], [], []
    for name, members in hypergraph.iter_edges():
        if len(members) >= 2:
            rows.extend(index[v] for v in members)
            cols.extend([len(scale)] * len(members))
            scale.append(hypergraph.edge_weight(name) / (len(members) - 1))
    shape = (len(vertices), len(scale))
    return sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=shape), np.array(scale)


def _fiedler_vector(incidence, scale: np.ndarray, rng: random.Random) -> tuple:
    """Fiedler vector of one component (its rows of the pin incidence), and the applies spent.

    Lanczos finds the top eigenpair of ``c·I - L``, ``c`` being twice the
    largest weighted degree (a bound on ``L``'s spectrum).  Each apply
    projects out the constant null vector and maps it to ``-c``, below
    every other eigenvalue, so the Krylov space stays full even on a
    two-vertex component.
    """
    from scipy.sparse.linalg import LinearOperator, eigsh

    n = incidence.shape[0]
    sizes = np.asarray(incidence.sum(axis=0)).ravel()  # whole nets: a net lies in one component
    diagonal = incidence @ (scale * sizes)
    shift = 2.0 * (incidence @ (scale * (sizes - 1))).max()
    matvecs = 0

    def apply(x: np.ndarray) -> np.ndarray:
        nonlocal matvecs
        matvecs += 1
        mean = x.mean()
        x = x.ravel() - mean
        y = (shift - diagonal) * x + incidence @ (scale * (incidence.T @ x))
        return y - y.mean() - shift * mean

    v0 = np.array([rng.random() for _ in range(n)])
    _, vectors = eigsh(LinearOperator((n, n), matvec=apply, dtype=float), k=1, which="LA", v0=v0)
    return vectors[:, 0], matvecs
