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

At extended precision the points, the node values of both sweeps, the
residual and the Jacobian columns are :class:`~matgraph.numerics.FixedVector`
(Python integers at one exponent per vector), and the columns and the
residual go to the least-squares step as those integers; mpmath numbers are
made only for the target, which reads the points as Python numbers.
Extended-precision least squares goes through the exact Gram matrix J^T J
and its eigenvalues, computed in fixed point on Python integers
(:func:`~matgraph.numerics.truncated_lstsq`): the squared conditioning is
harmless with 128 fractional bits beyond droptol^-4 (384 at 256 bits and
droptol 1e-15, 2 prec + 64 for droptol 0), and this is far cheaper than a
dense bidiagonalization in mpmath numbers.  The step is not bit-identical
to one through ``mpmath.eigsy``, and need not be: steps perturbed by 1e-30
relative take the same iterations to a radius within 1e-24.  A complex
step solves the real embedding [[Re J, -Im J], [Im J, Re J]], whose
singular values are those of J, each twice.  Progress (each iteration's max residual and the stop
reason) goes to the ``logging`` logger of this module at INFO level, and
:attr:`GNReport.stop_reason` keeps why the iteration ended.

At extended precision the real least-squares loop evaluates each conjugate
pair of points once.  When every coefficient of the graph is real, every
point's conjugate is among the points and f(conj z) = conj f(z) holds at
each of them, a point's conjugate has the conjugate residual and Jacobian
row, so it adds the same terms to the normal equations of [Re J; Im J].
The forward pass and the adjoint sweep then run on one point of each
conjugate class, the stop tests read the max residual over those points,
and when the classes differ in size each row is repeated once per point of
its class.  The fold has no option: it applies exactly when these checks
pass, and otherwise every point is evaluated and one INFO record says which
check failed.
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

import numpy as np
from mpmath import mp

from .autodiff import JacobianMatrix, as_point_array, eval_jac, forward_pass
from .evaluation import _argument, _precision_context
from .graph import CoeffRef, ComputationGraph, GraphError
from .numerics import FixedVector, truncated_lstsq


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

    def __post_init__(self):
        self.points = as_point_array(self.points)

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
        return cls(pts)

    def __len__(self):
        return len(self.points)


@dataclass
class GNConfig:
    """Gauss-Newton settings.

    ``droptol`` compares singular values at every precision: a step keeps
    the singular values of J above ``droptol`` times the largest.  At
    extended precision the step works on the Gram matrix J^T J, so it drops
    the Gram eigenvalues at or below ``droptol**2`` times the largest, and
    any that are not positive.  It lies in [0, 1): at 1 or above no singular
    value is kept, and every step would be zero.
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
        if not 0 <= self.droptol < 1:
            raise ValueError("drop tolerance must lie in [0, 1)")
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


def _target_values(f, zs: np.ndarray, errtype: ErrType) -> np.ndarray:
    """f(z_i) at every point; under relative error none may vanish."""
    fv = np.array([f(z) for z in zs], dtype=object if zs.dtype == object else np.complex128)
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

    The points are read in the graph's arithmetic, so the target is
    evaluated at the graph's coefficient precision.
    """
    pts = _argument(g, discr.points)
    errtype = ErrType(errtype)
    with _precision_context(g):
        zs = pts.numbers() if isinstance(pts, FixedVector) else pts
        fv = _argument(g, _target_values(f, zs, errtype))
        r = _residual(forward_pass(g, pts)[g.outputs[0]], fv, errtype)
        return r.numbers() if isinstance(r, FixedVector) else r


def _conjugate_classes(pts: np.ndarray, fv: np.ndarray):
    """The points' conjugate classes as (representatives, multiplicities), or why there are none.

    A class holds the points equal to its first point z or to conj(z) within
    2^(8-prec) max|z_i|, found by a key quantised relative to max|z_i|
    (exact binary64 keys would not pair 0.45 with 0.45 - 1e-77i).  Each
    class must hold z's conjugate, and each point w of it must have
    f(w) = f(z), or conj f(z) where w is conj(z), to 2^(8-prec) max|f(z_i)|;
    a point on the real axis is its own conjugate, so f must be real there.
    On a failure, or a point or target value that is not finite, the result
    is a string saying which.
    """
    zmax = max(map(abs, pts), default=0)
    quantum = float(zmax) * 2.0 ** -32 or 1.0
    if not (math.isfinite(quantum) and all(map(mp.isfinite, chain(pts, fv)))):
        return "a point or target value is not finite"
    eps = mp.ldexp(1, 8 - mp.prec)
    ztol, ftol = eps * zmax, eps * max(map(abs, fv), default=0)
    classes = {}
    for i, z in enumerate(pts):
        key = (round(float(z.real) / quantum), round(abs(float(z.imag)) / quantum))
        classes.setdefault(key, []).append(i)
    for members in classes.values():
        z, w = pts[members[0]], fv[members[0]]
        paired = False
        for i in members:
            same, conj = abs(pts[i] - z) <= ztol, abs(pts[i] - mp.conj(z)) <= ztol
            if not (same or conj):
                return f"point index {i} has no conjugate within 2^(8-prec) max|z|"
            if same and abs(fv[i] - w) > ftol or conj and abs(fv[i] - mp.conj(w)) > ftol:
                return (f"the target at point index {i} breaks f(conj z) = conj f(z) "
                        f"against point index {members[0]}")
            paired |= conj
        if not paired:
            return f"point index {members[0]} has no conjugate within 2^(8-prec) max|z|"
    return [m[0] for m in classes.values()], [len(m) for m in classes.values()]


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


def gn_step(J, r, config: GNConfig) -> np.ndarray:
    """Least-squares update direction delta = pinv(J) r with drop tolerance.

    ``J`` is a :class:`~matgraph.autodiff.JacobianMatrix`, an N x K array
    or, at extended precision, a list of K column
    :class:`~matgraph.numerics.FixedVector`, and ``r`` an array or a
    ``FixedVector``.  Under ``REAL_SVD`` the real and imaginary parts are
    stacked so the returned update is real (at extended precision by
    :func:`~matgraph.numerics.truncated_lstsq`, which refuses operands of
    unequal length as numpy does).  If every singular value falls below the
    tolerance the step is zero and a warning is emitted.
    """
    if isinstance(J, JacobianMatrix):
        J = J.entries if J.columns is None else J.columns
    if not isinstance(J, list):
        J = np.asarray(J)
        if J.dtype == object:
            J = [FixedVector.read(col) for col in J.T]
        else:  # float32 or complex64 operands never run in their own dtype
            J = J.astype(np.result_type(J.dtype, np.float64), copy=False)
            r = np.asarray(r)
            r = r.astype(np.result_type(r.dtype, np.float64), copy=False)
    real_mode = LinLsqr(config.linlsqr) == LinLsqr.REAL_SVD
    if isinstance(J, list):
        # [Re J; Im J] on integers; a complex step adds the columns of iJ: the
        # real embedding [[Re J, -Im J], [Im J, Re J]] acting on [Re d; Im d]
        cols = J if real_mode else J + [FixedVector([-v for v in c.im], c.re, c.exp) for c in J]
        x, kept = truncated_lstsq(cols, r, config.droptol)
        K = len(J)
        out = np.array(x if real_mode else [mp.mpc(a, b) for a, b in zip(x[:K], x[K:])],
                       dtype=object)
    else:
        if real_mode:
            A, b = np.vstack([J.real, J.imag]), np.concatenate([r.real, r.imag])
        else:
            A, b = J, r
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
    :class:`OptimizeError` instead, and so does a step that fails with an
    ``ArithmeticError`` (a least-squares solve that does not converge, or
    non-finite least-squares data), after restoring the best coefficients
    seen and naming the iteration.  A ref listed twice is refused: the
    minimum-norm step would split its update between the copies, and only
    the last copy's share would be applied.

    The points are read in the graph's arithmetic.  Under ``REAL_SVD``, an
    extended-precision graph whose coefficients are all real (selected or
    not), a point set closed under conjugation within 2^(8-prec) max|z| and
    a target with f(conj z) = conj f(z) to 2^(8-prec) max|f|, the loop
    evaluates one point of each conjugate class: the normal equations are
    the same.  It logs one INFO line saying whether it does, and if not why;
    there is no option for it.
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
        pts = _argument(g, discr.points)
        fixed = isinstance(pts, FixedVector)
        zs = pts.numbers() if fixed else pts  # the target reads Python numbers
        fv = _target_values(f, zs, errtype)
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

        # real coefficients, a conjugation-closed point set and a target with
        # f(conj z) = conj f(z): a point's conjugate adds the same terms to the
        # normal equations, so one point of each class stands for the class
        rows = None
        if real_mode and fixed:
            if any(getattr(c, "imag", 0) != 0 for pair in g.coeffs.values() for c in pair):
                classes = "a coefficient of the graph is not real"
            else:
                classes = _conjugate_classes(zs, fv)
                if not isinstance(classes, str) and len(classes[0]) == len(pts):
                    classes = "every conjugate class holds one point"
            if isinstance(classes, str):
                log.info("gauss-newton: points do not fold: %s", classes)
            else:
                reps, counts = classes
                if len(set(counts)) > 1:  # a uniform weight leaves the step as it is
                    rows = np.repeat(np.arange(len(reps)), counts).tolist()
                log.info("gauss-newton: %d points fold into %d conjugate classes, rows %s",
                         len(pts), len(reps), "unweighted" if rows is None else "expanded")
                pts, fv = pts.take(reps), fv[reps]

        best_rmax = best_coeffs = None
        above_best = 0
        weights = _argument(g, 1 / fv) if errtype == ErrType.REL else None
        fv = _argument(g, fv)
        while True:
            # one forward pass per trial point; a step's sweep reads its node values
            slots = forward_pass(g, pts)
            r = _residual(slots[g.outputs[0]], fv, errtype)
            mags = r.magnitudes() if fixed else [float(abs(x)) for x in r]
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
            J = eval_jac(g, pts, refs, weights=weights, slots=slots)
            J = J.entries if J.columns is None else J.columns
            if rows is not None:  # each class counts once per point it holds
                J, r = [c.take(rows) for c in J], r.take(rows)
            try:
                delta = gn_step(J, r, config)
            except ArithmeticError as exc:
                g.set_coeffs(refs, best_coeffs)
                raise OptimizeError(f"gauss-newton step failed at iteration {report.iterations}: "
                                    f"{exc}; the best coefficients seen are kept") from exc
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
