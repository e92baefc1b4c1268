"""Seeded inputs with planted multipliers, built with numpy alone.

Every problem is made by choosing multipliers ``beta`` first and then
computing, with numpy's own ``eigh`` or a max-shifted softmax, the
targets that the canonical posterior reaches at ``beta``. A correct
solver must return ``alpha == beta``, so each op is checked against an
answer that does not come from qmaxent.

Hermitian inputs are scaled by 1/sqrt(dim), so their spectra stay of
order one at every dimension and the Gibbs priors stay well inside full
rank. (qmaxent's ``random_density_matrix`` is not used: at its default
scale a dim-64 state has a smallest eigenvalue near 7e-14, which the
quantum solver rejects as rank deficient.)
"""

from __future__ import annotations

import numpy as np


def hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A GUE-like Hermitian matrix whose spectrum lies roughly in [-2, 2]."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / (2.0 * np.sqrt(dim))


def gibbs(c: np.ndarray) -> tuple[np.ndarray, float]:
    """exp(C) / Tr exp(C) and ln Tr exp(C) for Hermitian C."""
    vals, vecs = np.linalg.eigh(c)
    w = np.exp(vals - vals[-1])
    total = float(w.sum())
    rho = (vecs * (w / total)) @ vecs.conj().T
    return (rho + rho.conj().T) / 2.0, float(vals[-1] + np.log(total))


def planted_beta(rng: np.random.Generator, m: int) -> np.ndarray:
    """Multipliers whose combined perturbation stays of order one."""
    return rng.normal(scale=0.8 / np.sqrt(m), size=m)


def quantum_problem(rng: np.random.Generator, dim: int, m: int) -> dict:
    """A full-rank prior, m observables and the targets reached at beta.

    The prior is exp(H0)/Z0, so ln(prior) = H0 - ln Z0 is known exactly
    and the reference posterior needs no matrix logarithm.
    """
    h0 = hermitian(rng, dim)
    prior, ln_z0 = gibbs(h0)
    observables = [hermitian(rng, dim) for _ in range(m)]
    beta = planted_beta(rng, m)
    c = h0 - ln_z0 * np.eye(dim)
    for b, a in zip(beta, observables):
        c = c + b * a
    rho, _ = gibbs(c)
    targets = np.array([float(np.sum(a * rho.T).real) for a in observables])
    return {"prior": prior, "observables": observables, "targets": targets, "beta": beta}


class ClassicalBase:
    """Shared observable rows and prior weights that classical problems slice.

    A problem of size n takes a window of n columns and m of the rows, as
    views, so a pool of large problems costs the memory of one base.
    """

    def __init__(self, rng: np.random.Generator, rows: int, columns: int):
        self.values = rng.normal(size=(rows, columns))
        self.weights = np.exp(0.5 * rng.normal(size=columns))


def classical_problem(rng: np.random.Generator, base: ClassicalBase, n: int, m: int) -> dict:
    """An unnormalized prior window, m observable rows and their targets at beta."""
    rows = rng.choice(base.values.shape[0], size=m, replace=False)
    start = int(rng.integers(0, base.values.shape[1] - n + 1))
    prior = base.weights[start:start + n]
    observables = [base.values[r, start:start + n] for r in rows]
    beta = planted_beta(rng, m)
    ln_w = np.log(prior)
    for b, v in zip(beta, observables):
        ln_w = ln_w + b * v
    rho = np.exp(ln_w - ln_w.max())
    rho /= rho.sum()
    targets = np.array([float(v @ rho) for v in observables])
    return {"prior": prior, "observables": observables, "targets": targets, "beta": beta}


PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def spin_problem(rng: np.random.Generator) -> dict:
    """Prior diag(a, b), observable c . (I, X, Y, Z) and the target at beta."""
    a, b = (float(x) for x in rng.uniform(0.2, 1.0, size=2))
    c = [float(x) for x in rng.normal(size=4)]
    beta = planted_beta(rng, 1)
    observable = sum(ci * p for ci, p in zip(c, PAULI))
    rho, _ = gibbs(np.diag([np.log(a), np.log(b)]) + beta[0] * observable)
    target = float(np.sum(observable * rho.T).real)
    return {"a": a, "b": b, "c": c, "target": target, "beta": beta}
