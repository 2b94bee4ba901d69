"""Gauss-Newton fitting of graph coefficients to a target scalar function.

The surrogate problem is least squares over a discretized domain boundary:
minimize sum_i |g(z_i; c) - f(z_i)|^2 (optionally scaled by 1/f(z_i) for
relative error).  Each step solves the linearized problem with an SVD
pseudoinverse whose small singular values are dropped; the coefficient
parameterizations in use here are redundant, so the Jacobian is typically
rank-deficient and the drop tolerance is what keeps the steps sane.  Every
step has the fixed length gamma and is taken even when it raises the residual.

The loop makes one forward pass (:func:`~matgraph.autodiff.forward_pass`)
per trial point.  Its residual serves every stop test, and only when a
step follows does the adjoint sweep of :func:`~matgraph.autodiff.eval_jac`
run, on the node values that pass kept.  Under relative error the adjoint
is seeded with 1/f(z_i), which scales every Jacobian row by 1/f(z_i) for
N reciprocals instead of N*K divisions.

Extended-precision least squares goes through the Gram matrix J^T J and
its eigenvalues (:func:`~matgraph.numerics.truncated_lstsq`): the squared
conditioning is harmless at 256 bits, and this is far cheaper than a dense
bidiagonalization at that precision.  A complex step solves the real
embedding [[Re J, -Im J], [Im J, Re J]], whose singular values are those of
J, each twice.  Progress (each iteration's max residual and the stop
reason) goes to the ``logging`` logger of this module at INFO level, and
:attr:`GNReport.stop_reason` keeps why the iteration ended.
"""

from __future__ import annotations

import cmath
import logging
import math
import warnings
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain

import mpmath
import numpy as np
from mpmath import mp
from mpmath.libmp import fzero, mpf_neg

from .autodiff import as_point_array, eval_jac, forward_pass
from .evaluation import _precision_context
from .graph import CoeffRef, ComputationGraph, GraphError
from .numerics import truncated_lstsq


log = logging.getLogger(__name__)

# Stagnation: DIVERGENCE_PATIENCE points in a row whose max residual
# exceeds DIVERGENCE_FACTOR times the best seen end the iteration.
DIVERGENCE_FACTOR = 10.0
DIVERGENCE_PATIENCE = 30


class ErrType(str, Enum):
    ABS = "abs"
    REL = "rel"


class LinLsqr(str, Enum):
    COMPLEX_SVD = "complex_svd"
    REAL_SVD = "real_svd"


class OptimizeError(ArithmeticError):
    pass


@dataclass
class Discretization:
    """Ordered complex sample points on a domain boundary."""

    points: np.ndarray

    @classmethod
    def disk(cls, center, radius, count: int = 200, prec: int | None = None):
        """Closed uniform sampling of a circle: center + r*exp(2*pi*i*k/(count-1)).

        The first and last points coincide, matching the reference
        discretizations used for the frozen fixtures.
        """
        if count < 2:
            raise ValueError("need at least two points")
        if not (cmath.isfinite(center) and math.isfinite(radius)):
            raise ValueError("center and radius must be finite")
        if prec is None:
            k = np.arange(count)
            pts = center + radius * np.exp(2j * np.pi * k / (count - 1))
        else:
            with mp.workprec(prec):
                pts = np.array(
                    [center + radius * mp.exp(mp.mpc(0, 2) * mp.pi * k / (count - 1))
                     for k in range(count)],
                    dtype=object,
                )
        return cls(as_point_array(pts))

    @classmethod
    def from_points(cls, pts):
        return cls(as_point_array(pts))

    def __len__(self):
        return len(self.points)


@dataclass
class GNConfig:
    """Gauss-Newton settings.

    ``droptol`` compares singular values at every precision: a step keeps
    the singular values of J above ``droptol`` times the largest.  At
    extended precision the step works on the Gram matrix J^T J, so it drops
    the Gram eigenvalues at or below ``droptol**2`` times the largest, and
    any that are not positive.
    """

    errtype: ErrType = ErrType.ABS
    stoptol: float = 1e-12
    maxiter: int = 200
    gamma: float = 1.0
    droptol: float = 0.0
    linlsqr: LinLsqr = LinLsqr.COMPLEX_SVD
    perturbation: float | None = None
    seed: int = 0

    def __post_init__(self):
        if not (0 <= self.gamma <= 1):
            raise ValueError("step length must lie in [0, 1]")
        if not self.stoptol >= 0:
            raise ValueError("stop tolerance must be nonnegative")
        if not self.droptol >= 0:
            raise ValueError("drop tolerance must be nonnegative")
        if self.maxiter < 0:
            raise ValueError("iteration limit must be nonnegative")
        if self.perturbation is not None and not math.isfinite(self.perturbation):
            raise ValueError("perturbation must be finite")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass
class GNReport:
    """Outcome of :func:`opt_gauss_newton`.

    ``stop_reason`` is "converged", "maxiter", "non-finite" or "stagnated";
    it is "converged" exactly when ``converged`` is true.  A non-finite
    residual ends the run as "non-finite", even after ``maxiter`` steps.
    """

    iterations: int
    residual_history: list = field(default_factory=list)
    converged: bool = False
    best_residual: float | None = None
    stop_reason: str | None = None


def _target_values(f, pts: np.ndarray, errtype: ErrType) -> np.ndarray:
    """f(z_i) at every point; under relative error none may vanish."""
    fv = np.array([f(z) for z in pts], dtype=object if pts.dtype == object else np.complex128)
    bad = [i for i, v in enumerate(fv) if v == 0] if errtype == ErrType.REL else []
    if bad:
        raise OptimizeError(f"relative error undefined: target vanishes at point index {bad[0]}")
    return fv


def _residual(gv, fv, errtype: ErrType):
    """g(z_i) - f(z_i), divided by f(z_i) under relative error."""
    r = gv - fv
    return r / fv if errtype == ErrType.REL else r


def residual(g: ComputationGraph, f, discr: Discretization,
             errtype: ErrType = ErrType.ABS) -> np.ndarray:
    """r_i = g(z_i) - f(z_i), divided by f(z_i) under relative error.

    The target is evaluated at the graph's coefficient precision.
    """
    pts = discr.points
    errtype = ErrType(errtype)
    with _precision_context(g):
        fv = _target_values(f, pts, errtype)
        return _residual(forward_pass(g, pts)[g.outputs[0]], fv, errtype)


def _svd_pinv_numpy(A: np.ndarray, b: np.ndarray, droptol: float):
    u, s, vh = np.linalg.svd(A, full_matrices=False)
    if s.size == 0 or s[0] == 0:
        return np.zeros(A.shape[1], dtype=A.dtype), 0
    keep = s > droptol * s[0]
    kept = int(np.count_nonzero(keep))
    if kept == 0:
        return np.zeros(A.shape[1], dtype=A.dtype), 0
    coeff = (u[:, keep].conj().T @ b) / s[keep]
    return vh[keep].conj().T @ coeff, kept


def _parts(v):
    """``(Re v, Im v)`` of an extended-precision scalar as raw libmp tuples, unrounded."""
    if isinstance(v, mpmath.mpc):
        return v._mpc_
    return v._mpf_, fzero


def gn_step(J, r, config: GNConfig) -> np.ndarray:
    """Least-squares update direction delta = pinv(J) r with drop tolerance.

    Under ``REAL_SVD`` the real and imaginary parts are stacked so the
    returned update is real.  If every singular value falls below the
    tolerance the step is zero and a warning is emitted.
    """
    entries = getattr(J, "entries", J)
    entries = np.asarray(entries)
    r = np.asarray(r)
    real_mode = LinLsqr(config.linlsqr) == LinLsqr.REAL_SVD
    if entries.dtype == object:
        # one real problem: [Re J; Im J], and for a complex step the real
        # embedding [[Re J, -Im J], [Im J, Re J]] acting on [Re d; Im d];
        # the columns are read lazily, so their entries are never all alive,
        # and they hold the raw libmp parts, so no mpf object is made for them
        K = entries.shape[1]

        def part(col, k):
            return (_parts(v)[k] for v in col)

        cols = [chain(part(col, 0), part(col, 1)) for col in entries.T]
        if not real_mode:
            cols += [chain(map(mpf_neg, part(col, 1)), part(col, 0)) for col in entries.T]
        x, kept = truncated_lstsq(cols, chain(part(r, 0), part(r, 1)), config.droptol)
        out = np.array(x if real_mode else [mp.mpc(a, b) for a, b in zip(x[:K], x[K:])],
                       dtype=object)
    else:
        if real_mode:
            A = np.vstack([entries.real, entries.imag])
            b = np.concatenate([np.asarray(r).real, np.asarray(r).imag])
        else:
            A = entries
            b = r
        out, kept = _svd_pinv_numpy(A, b, config.droptol)
    if kept == 0:
        warnings.warn("all singular values below the drop tolerance; zero step")
    return out


def opt_gauss_newton(g: ComputationGraph, f, discr: Discretization, refs,
                     config: GNConfig | None = None) -> GNReport:
    """Iterate Gauss-Newton updates c <- c - gamma*delta on the graph's coefficients.

    Each trial point is evaluated once and never retried: a design's residual
    can rise for many steps on its way to convergence, and a rule that
    accepts only descent stalls there.  The graph is modified in place.  ``residual_history`` records the
    max-magnitude residual seen before each applied update; convergence is
    declared when it falls below ``stoptol``.  The run also ends after
    ``maxiter`` updates, on stagnation (a residual above
    :data:`DIVERGENCE_FACTOR` times the best seen at
    :data:`DIVERGENCE_PATIENCE` points in a row) and at a residual with a
    non-finite entry.  Every end leaves the best coefficients seen in the
    graph; a non-finite residual at the starting coefficients raises
    :class:`OptimizeError` instead.  A ref listed twice is refused: the
    minimum-norm step would split its update between the copies, and only
    the last copy's share would be applied.
    """
    config = config or GNConfig()
    refs = [CoeffRef(*ref) for ref in refs]
    if not refs:
        raise GraphError("need a nonempty coefficient selection")
    repeated = [ref for ref, n in Counter(refs).items() if n > 1]
    if repeated:
        raise GraphError(f"coefficient {tuple(repeated[0])} is selected more than once")
    errtype = ErrType(config.errtype)
    real_mode = LinLsqr(config.linlsqr) == LinLsqr.REAL_SVD
    report = GNReport(iterations=0)
    with _precision_context(g):
        pts = discr.points
        fv = _target_values(f, pts, errtype)
        if real_mode:
            base = g.get_coeffs(refs)
            if any(getattr(c, "imag", 0) != 0 for c in base):
                raise OptimizeError("real least squares requires real coefficients")
        elif not g.coeff_type.is_complex:
            raise OptimizeError(
                "complex least squares would produce complex updates for a "
                "real-coefficient graph; convert the graph to a complex kind "
                "or select real least squares"
            )
        if config.perturbation:
            rng = np.random.default_rng(config.seed)
            c = g.get_coeffs(refs)
            noise = rng.standard_normal(len(refs))
            if g.coeff_type.is_complex and not real_mode:
                noise = noise + 1j * rng.standard_normal(len(refs))
            g.set_coeffs(refs, [ci + config.perturbation * ni for ci, ni in zip(c, noise)])

        best_rmax = best_coeffs = None
        above_best = 0
        weights = 1 / fv if errtype == ErrType.REL else None
        while True:
            # one forward pass per trial point; a step's sweep reads its node values
            slots = forward_pass(g, pts)
            r = _residual(slots[g.outputs[0]], fv, errtype)
            mags = [float(abs(x)) for x in r]
            rmax = max(mags, default=0.0)
            stop = None
            if not all(map(math.isfinite, mags)):
                if best_coeffs is None:
                    raise OptimizeError("residual is not finite at the starting coefficients")
                stop, why = "non-finite", "residual not finite"
            else:
                log.info("gauss-newton iter %d: max residual %.3e", report.iterations, rmax)
                if best_rmax is None or rmax < best_rmax:
                    best_rmax, best_coeffs, above_best = rmax, g.get_coeffs(refs), 0
                else:
                    above_best = above_best + 1 if rmax > DIVERGENCE_FACTOR * best_rmax else 0
                if rmax <= config.stoptol:
                    stop = why = "converged"
                elif report.iterations == config.maxiter:
                    stop, why = "maxiter", f"{config.maxiter} iterations done"
                elif above_best >= DIVERGENCE_PATIENCE:
                    stop, why = "stagnated", f"stagnated at residual {rmax:.3e}"
            if stop:
                break
            delta = gn_step(eval_jac(g, pts, refs, weights=weights, slots=slots).entries,
                            r, config)
            g.set_coeffs(refs, [ci - config.gamma * di
                                for ci, di in zip(g.get_coeffs(refs), delta)])
            report.residual_history.append(rmax)
            report.iterations += 1
        # the one exit: the best point seen is the one kept
        g.set_coeffs(refs, best_coeffs)
        report.converged = stop == "converged"
        report.best_residual = best_rmax
        report.stop_reason = stop
        log.info("gauss-newton: %s; stopping", why)
    return report
