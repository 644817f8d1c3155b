"""Bounded nonlinear least squares: the Trust Region Reflective method.

This is the one path of ``scipy.optimize.least_squares`` that the PLE fit
runs, ``method="trf"`` with finite or one-sided box bounds, a callable
Jacobian, ``tr_solver="exact"``, ``x_scale=1`` and the linear loss, copied
from scipy 1.17.1 (``scipy/optimize/_lsq/trf.py`` and ``common.py``) and
trimmed to that case. Where scipy takes the residuals and the Jacobian as
two callables, :func:`least_squares` takes one, ``fun(x) -> (residuals,
jacobian)``, so each point is evaluated once and the Jacobian of an
accepted step is the one evaluated with it. ``least_squares(fun, x0, lb,
ub, ftol, xtol, gtol, max_nfev)`` equals::

    scipy.optimize.least_squares(
        lambda x: fun(x)[0], x0, jac=lambda x: fun(x)[1], bounds=(lb, ub),
        method="trf", ftol=ftol, xtol=xtol, gtol=gtol, max_nfev=max_nfev)

Every floating-point expression keeps scipy's order, so ``x``, the
residuals, ``nfev`` and ``status`` are scipy's bit for bit; the tests
check this against scipy. The method is that of Branch, Coleman and Li
(1999), "A Subspace, Interior, and Conjugate Gradient Method for
Large-Scale Bound-Constrained Minimization Problems", with each
trust-region subproblem solved exactly from one SVD as in Moré (1977),
"The Levenberg-Marquardt Algorithm: Implementation and Theory".

Two differences from scipy, neither of which changes a value: a non-finite
residual at the start point, or a non-finite scaled Jacobian before an SVD
(where scipy raised a bare ``ValueError``), raises :class:`DomainError`;
and the arithmetic runs under ``np.errstate(all="ignore")``, so an
overflow reaches that check instead of surfacing as a warning.

The copied code is under scipy's license:

    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions
    are met:

    1. Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

    2. Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

    3. Neither the name of the copyright holder nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""
from __future__ import annotations

from math import copysign
from typing import Callable, NamedTuple

import numpy as np
from numpy.linalg import norm, svd

from .errors import DomainError

EPS = np.finfo(float).eps


class TrfResult(NamedTuple):
    """The solution, its residuals, the evaluation count and scipy's status
    (0: ``max_nfev`` reached; 1: gtol; 2: ftol; 3: xtol; 4: ftol and xtol)."""

    x: np.ndarray
    fun: np.ndarray
    nfev: int
    status: int


@np.errstate(all="ignore")
def least_squares(
    fun: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    x0: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
    ftol: float,
    xtol: float,
    gtol: float,
    max_nfev: int,
) -> TrfResult:
    """Minimize ``0.5 * sum(f**2)`` subject to ``lb <= x <= ub``, where
    ``f, J = fun(x)`` are the residuals and their dense (m, n) Jacobian.

    The caller guarantees ``lb < ub`` and ``lb <= x0 <= ub``. ``fun`` runs
    ``nfev`` times; the result is scipy's bit for bit (see the module
    docstring for the call it equals).
    """
    x = make_strictly_feasible(x0, lb, ub)
    f, J = fun(x)
    if not np.all(np.isfinite(f)):
        raise DomainError("fit residuals are not finite at the start point")
    nfev = 1
    m, n = J.shape
    cost = 0.5 * np.dot(f, f)
    g = J.T.dot(f)

    v, dv = CL_scaling_vector(x, g, lb, ub)
    Delta = norm(x / v**0.5)
    if Delta == 0:
        Delta = 1.0

    f_augmented = np.zeros(m + n)
    J_augmented = np.empty((m + n, n))
    alpha = 0.0  # "Levenberg-Marquardt" parameter
    termination_status = None

    while True:
        v, dv = CL_scaling_vector(x, g, lb, ub)

        g_norm = norm(g * v, ord=np.inf)
        if g_norm < gtol:
            termination_status = 1

        if termination_status is not None or nfev == max_nfev:
            break

        # Variables in "hat" space: C = diag(g) Jv.
        d = v**0.5
        diag_h = g * dv
        g_h = d * g

        f_augmented[:m] = f
        J_augmented[:m] = J * d
        J_h = J_augmented[:m]  # Memory view.
        J_augmented[m:] = np.diag(diag_h**0.5)
        if not np.all(np.isfinite(J_augmented)):
            raise DomainError("fit overflowed: the scaled Jacobian is not finite")
        U, s, Vt = svd(J_augmented, full_matrices=False)
        # scipy.linalg.svd returns Fortran-ordered factors, and the dot
        # products below sum in memory order: keep that order.
        U = np.asfortranarray(U)
        V = np.asfortranarray(Vt).T
        uf = U.T.dot(f_augmented)

        # theta controls step back step ratio from the bounds.
        theta = max(0.995, 1 - g_norm)

        actual_reduction = -1
        while actual_reduction <= 0 and nfev < max_nfev:
            p_h, alpha = solve_lsq_trust_region(n, m, uf, s, V, Delta, alpha)

            p = d * p_h  # Trust-region solution in the original space.
            step, step_h, predicted_reduction = select_step(
                x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, ub, theta)

            x_new = make_strictly_feasible(x + step, lb, ub, rstep=0)
            f_new, J_new = fun(x_new)
            nfev += 1

            step_h_norm = norm(step_h)

            if not np.all(np.isfinite(f_new)):
                Delta = 0.25 * step_h_norm
                continue

            # Usual trust-region step quality estimation.
            cost_new = 0.5 * np.dot(f_new, f_new)
            actual_reduction = cost - cost_new
            Delta_new, ratio = update_tr_radius(
                Delta, actual_reduction, predicted_reduction,
                step_h_norm, step_h_norm > 0.95 * Delta)

            step_norm = norm(step)
            termination_status = check_termination(
                actual_reduction, cost, step_norm, norm(x), ratio, ftol, xtol)
            if termination_status is not None:
                break

            alpha *= Delta / Delta_new
            Delta = Delta_new

        if actual_reduction > 0:
            x, f, J, cost = x_new, f_new, J_new, cost_new
            g = J.T.dot(f)

    if termination_status is None:
        termination_status = 0
    return TrfResult(x=x, fun=f, nfev=nfev, status=termination_status)


def select_step(x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, ub, theta):
    """Select the best step according to Trust Region Reflective algorithm."""
    if np.all((x + p >= lb) & (x + p <= ub)):
        p_value = evaluate_quadratic(J_h, g_h, p_h, diag_h)
        return p, p_h, -p_value

    p_stride, hits = step_size_to_bound(x, p, lb, ub)

    # Compute the reflected direction.
    r_h = np.copy(p_h)
    r_h[hits.astype(bool)] *= -1
    r = d * r_h

    # Restrict trust-region step, such that it hits the bound.
    p *= p_stride
    p_h *= p_stride
    x_on_bound = x + p

    # Reflected direction will cross first either feasible region or trust
    # region boundary.
    to_tr = intersect_trust_region(p_h, r_h, Delta)
    to_bound, _ = step_size_to_bound(x_on_bound, r, lb, ub)

    # Find lower and upper bounds on a step size along the reflected
    # direction, considering the strict feasibility requirement.
    r_stride = min(to_bound, to_tr)
    if r_stride > 0:
        r_stride_l = (1 - theta) * p_stride / r_stride
        if r_stride == to_bound:
            r_stride_u = theta * to_bound
        else:
            r_stride_u = to_tr
    else:
        r_stride_l = 0
        r_stride_u = -1

    # Check if reflection step is available.
    if r_stride_l <= r_stride_u:
        a, b, c = build_quadratic_1d(J_h, g_h, r_h, diag_h, s0=p_h)
        r_stride, r_value = minimize_quadratic_1d(
            a, b, r_stride_l, r_stride_u, c=c)
        r_h *= r_stride
        r_h += p_h
        r = r_h * d
    else:
        r_value = np.inf

    # Now correct p_h to make it strictly interior.
    p *= theta
    p_h *= theta
    p_value = evaluate_quadratic(J_h, g_h, p_h, diag_h)

    ag_h = -g_h
    ag = d * ag_h

    to_tr = Delta / norm(ag_h)
    to_bound, _ = step_size_to_bound(x, ag, lb, ub)
    if to_bound < to_tr:
        ag_stride = theta * to_bound
    else:
        ag_stride = to_tr

    a, b = build_quadratic_1d(J_h, g_h, ag_h, diag_h)
    ag_stride, ag_value = minimize_quadratic_1d(a, b, 0, ag_stride)
    ag_h *= ag_stride
    ag *= ag_stride

    if p_value < r_value and p_value < ag_value:
        return p, p_h, -p_value
    elif r_value < p_value and r_value < ag_value:
        return r, r_h, -r_value
    else:
        return ag, ag_h, -ag_value


def intersect_trust_region(x, s, Delta):
    """The positive root t of ||x + s*t||**2 = Delta**2."""
    a = np.dot(s, s)
    if a == 0:
        raise ValueError("`s` is zero.")

    b = np.dot(x, s)

    c = np.dot(x, x) - Delta**2
    if c > 0:
        raise ValueError("`x` is not within the trust region.")

    d = np.sqrt(b*b - a*c)  # Root from one fourth of the discriminant.

    # Computations below avoid loss of significance, see "Numerical Recipes".
    q = -(b + copysign(d, b))
    return max(q / a, c / q)


def solve_lsq_trust_region(n, m, uf, s, V, Delta, initial_alpha):
    """Moré's trust-region step p and Levenberg-Marquardt parameter alpha,
    with ``(J.T*J + alpha*I)*p = -J.T*f``, from ``U, s, V.T = svd(J)`` and
    ``uf = U.T.dot(f)``."""
    def phi_and_derivative(alpha, suf, s, Delta):
        denom = s**2 + alpha
        p_norm = norm(suf / denom)
        phi = p_norm - Delta
        phi_prime = -np.sum(suf ** 2 / denom**3) / p_norm
        return phi, phi_prime

    suf = s * uf

    # Check if J has full rank and try Gauss-Newton step.
    if m >= n:
        threshold = EPS * m * s[0]
        full_rank = s[-1] > threshold
    else:
        full_rank = False

    if full_rank:
        p = -V.dot(uf / s)
        if norm(p) <= Delta:
            return p, 0.0

    alpha_upper = norm(suf) / Delta

    if full_rank:
        phi, phi_prime = phi_and_derivative(0.0, suf, s, Delta)
        alpha_lower = -phi / phi_prime
    else:
        alpha_lower = 0.0

    if not full_rank and initial_alpha == 0:
        alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
    else:
        alpha = initial_alpha

    for _ in range(10):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)

        phi, phi_prime = phi_and_derivative(alpha, suf, s, Delta)

        if phi < 0:
            alpha_upper = alpha

        ratio = phi / phi_prime
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + Delta) * ratio / Delta

        if np.abs(phi) < 0.01 * Delta:
            break

    p = -V.dot(suf / (s**2 + alpha))

    # Make the norm of p equal to Delta, so that p cannot lie outside the
    # trust region.
    p *= Delta / norm(p)

    return p, alpha


def update_tr_radius(Delta, actual_reduction, predicted_reduction,
                     step_norm, bound_hit):
    """The new trust-region radius, and the actual over predicted reduction."""
    if predicted_reduction > 0:
        ratio = actual_reduction / predicted_reduction
    elif predicted_reduction == actual_reduction == 0:
        ratio = 1
    else:
        ratio = 0

    if ratio < 0.25:
        Delta = 0.25 * step_norm
    elif ratio > 0.75 and bound_hit:
        Delta *= 2.0

    return Delta, ratio


def build_quadratic_1d(J, g, s, diag, s0=None):
    """Coefficients a, b (and c when ``s0`` is given) of f(t) = 0.5 *
    (s0 + s*t).T * (J.T*J + diag) * (s0 + s*t) + g.T * (s0 + s*t)."""
    v = J.dot(s)
    a = np.dot(v, v)
    a += np.dot(s * diag, s)
    a *= 0.5

    b = np.dot(g, s)

    if s0 is not None:
        u = J.dot(s0)
        b += np.dot(u, v)
        c = 0.5 * np.dot(u, u) + np.dot(g, s0)
        b += np.dot(s0 * diag, s)
        c += 0.5 * np.dot(s0 * diag, s0)
        return a, b, c
    else:
        return a, b


def minimize_quadratic_1d(a, b, lb, ub, c=0):
    """The minimum point and value of t * (a * t + b) + c on [lb, ub]."""
    t = [lb, ub]
    if a != 0:
        extremum = -0.5 * b / a
        if lb < extremum < ub:
            t.append(extremum)
    t = np.asarray(t)
    y = t * (a * t + b) + c
    min_index = np.argmin(y)
    return t[min_index], y[min_index]


def evaluate_quadratic(J, g, s, diag):
    """0.5 * s.T * (J.T * J + diag) * s + g.T * s."""
    Js = J.dot(s)
    q = np.dot(Js, Js)
    q += np.dot(s * diag, s)

    l = np.dot(s, g)

    return 0.5 * q + l


def step_size_to_bound(x, s, lb, ub):
    """The least t >= 0 that puts x + s * t on a bound, and which bound each
    variable then hits (0: none, -1: lower, 1: upper)."""
    non_zero = np.nonzero(s)
    s_non_zero = s[non_zero]
    steps = np.empty_like(x)
    steps.fill(np.inf)
    steps[non_zero] = np.maximum((lb - x)[non_zero] / s_non_zero,
                                 (ub - x)[non_zero] / s_non_zero)
    min_step = np.min(steps)
    return min_step, np.equal(steps, min_step) * np.sign(s).astype(int)


def make_strictly_feasible(x, lb, ub, rstep=1e-10):
    """Shift a point to at least a relative distance ``rstep`` inside the
    bounds; with ``rstep=0``, one ``np.nextafter`` inside. A variable within
    ``rstep`` (relative to the bound's magnitude, at least 1) of both bounds
    moves off the upper one."""
    x_new = x.copy()

    if rstep == 0:
        lower_mask = x <= lb
        upper_mask = x >= ub
        x_new[lower_mask] = np.nextafter(lb[lower_mask], ub[lower_mask])
        x_new[upper_mask] = np.nextafter(ub[upper_mask], lb[upper_mask])
    else:
        lower_dist = x - lb
        upper_dist = ub - x
        lower_threshold = rstep * np.maximum(1, np.abs(lb))
        upper_threshold = rstep * np.maximum(1, np.abs(ub))
        lower_mask = (np.isfinite(lb) &
                      (lower_dist <= np.minimum(upper_dist, lower_threshold)))
        upper_mask = (np.isfinite(ub) &
                      (upper_dist <= np.minimum(lower_dist, upper_threshold)))
        # the upper shift is written last, so it wins where both apply
        x_new[lower_mask] = lb[lower_mask] + lower_threshold[lower_mask]
        x_new[upper_mask] = ub[upper_mask] - upper_threshold[upper_mask]

    tight_bounds = (x_new < lb) | (x_new > ub)
    x_new[tight_bounds] = 0.5 * (lb[tight_bounds] + ub[tight_bounds])

    return x_new


def CL_scaling_vector(x, g, lb, ub):
    """Coleman-Li scaling vector v and its derivative dv:
    v = ub - x where g < 0 and ub is finite, x - lb where g > 0 and lb is
    finite, and 1 elsewhere."""
    v = np.ones_like(x)
    dv = np.zeros_like(x)

    mask = (g < 0) & np.isfinite(ub)
    v[mask] = ub[mask] - x[mask]
    dv[mask] = -1

    mask = (g > 0) & np.isfinite(lb)
    v[mask] = x[mask] - lb[mask]
    dv[mask] = 1

    return v, dv


def check_termination(dF, F, dx_norm, x_norm, ratio, ftol, xtol):
    """Termination status: 4 ftol and xtol, 2 ftol, 3 xtol, else None."""
    ftol_satisfied = dF < ftol * F and ratio > 0.25
    xtol_satisfied = dx_norm < xtol * (xtol + x_norm)

    if ftol_satisfied and xtol_satisfied:
        return 4
    elif ftol_satisfied:
        return 2
    elif xtol_satisfied:
        return 3
    else:
        return None
