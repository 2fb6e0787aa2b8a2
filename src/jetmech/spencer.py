"""Dual Spencer dynamics: from a dynamical one-form to equations of motion.

The total time derivative promotes 1-jet expressions to 2-jet expressions
(acceleration symbols are the second-order fiber coordinates). It is a
derivation, applied by the Leibniz rule on the generators in one walk over
the terms of its input, and its result is made canonical once. The dual
Spencer operator turns a vertical one-form F_i dx^i + Pi_i dv^i into the
residuals R_i = F_i - d(Pi_i)/dt, whose joint vanishing is the dynamical
law; it reduces to the Euler-Lagrange variational derivative when the form
is exact. The Spencer residual of a sampled section measures, by finite
differences, how far the section is from being the prolongation of a
curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MechError
from .formcalc import Decomposition, VerticalOneForm, accept_user_split, d0
from .symexpr import (
    _COORD,
    _PARAM,
    _SIGNAL,
    _TIME,
    _VEL,
    Expr,
    SymbolKind,
    acc,
    next_order,
    times_symbol,
    vel,
)


@dataclass(frozen=True)
class EquationsOfMotion:
    """Per-coordinate residuals R_i; R_i = 0 for all i is the dynamical law.

    Each residual is affine in the acceleration symbols.
    """

    residuals: tuple[Expr, ...]

    @property
    def n(self) -> int:
        return len(self.residuals)

    def normalized(self) -> tuple[Expr, ...]:
        """Residuals with sign fixed so acceleration terms enter positively.

        Display convention only; R = 0 and -R = 0 are the same equation.
        """
        out = []
        for r in self.residuals:
            flip = False
            for mono, c in r.terms:
                if any(sym.kind == SymbolKind.ACC for sym, _ in mono):
                    flip = c < 0
                    break
            out.append(-r if flip else r)
        return tuple(out)


def as_samples(values, N: int, n: int | None = None) -> np.ndarray:
    """``values`` as an (N, n) float array: row k holds every coordinate at
    grid time k. A 1-D array is one coordinate.

    More dimensions raise ValueError, as does a row count other than N or,
    when ``n`` is given, a column count other than n. Nothing is transposed.
    """
    a = np.asarray(values, dtype=float)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2 or a.shape[0] != N or (n is not None and a.shape[1] != n):
        want = f"({N}, {'n' if n is None else n})"
        raise ValueError(f"samples must have shape {want}, got {np.shape(values)}")
    return a


def total_time_derivative(e: Expr) -> Expr:
    """Total derivative along sections: d/dt + v^j d/dx^j + a^j d/dv^j.

    The derivation that sends t to 1, x^j to v^j, v^j to a^j and each
    signal to its next order, and parameters to 0, applied to each factor
    by the Leibniz rule in one walk over the terms. Raises ValueError when
    the input already contains acceleration symbols (one total derivative
    raises jet order by exactly one).
    """
    return Expr.from_map(_add_time_derivative({}, e, 1))


def _add_time_derivative(terms: dict, e: Expr, sign: int) -> dict:
    """``terms``, a {monomial: coefficient} map, plus ``sign`` times the
    total time derivative of ``e``, from one walk over its terms."""
    for mono, c in e.terms:
        if sign < 0:
            c = -c
        for k, (sym, exp) in enumerate(mono):
            kind = sym.kind
            if kind == _COORD:
                image = vel(sym.index)
            elif kind == _VEL:
                image = acc(sym.index)
            elif kind == _TIME:
                image = None
            elif kind == _SIGNAL:
                image = next_order(sym)
            elif kind == _PARAM:
                continue
            else:
                raise ValueError("total time derivative input must be acceleration-free")
            if exp == 1:
                rest, q = mono[:k] + mono[k + 1 :], c
            else:
                rest, q = mono[:k] + ((sym, exp - 1),) + mono[k + 1 :], c * exp
            if image is not None:
                rest = times_symbol(rest, image)
            terms[rest] = terms[rest] + q if rest in terms else q
    return terms


def _residual(own: Expr, momentum: Expr) -> Expr:
    """``own - total_time_derivative(momentum)``: the walk of the momentum
    subtracts each term straight from a map seeded with the terms of
    ``own``, which is made canonical once."""
    return Expr.from_map(_add_time_derivative(dict(own.terms), momentum, -1))


def dual_spencer(phi: VerticalOneForm) -> EquationsOfMotion:
    """Dynamical residuals R_i = F_i - d(Pi_i)/dt (the momentum block itself
    contributes nothing beyond its total derivative), each from one walk of
    Pi_i into a map seeded with F_i."""
    return EquationsOfMotion(tuple(map(_residual, phi.F, phi.Pi)))


def variational_derivative(lagrangian: Expr, n: int | None = None) -> tuple[Expr, ...]:
    """Euler-Lagrange components dL/dx^i - d/dt(dL/dv^i): the dual-Spencer
    residuals of the exact form ``d0(L)`` on ``n`` coordinates (``d0``'s
    default when None), which raises when ``L`` holds a coordinate index
    >= n."""
    if lagrangian.contains_kind(SymbolKind.ACC):
        raise ValueError("Lagrangian must be acceleration-free")
    return dual_spencer(d0(lagrangian, n=n)).residuals


def assemble_with_split(dec: Decomposition, phi: VerticalOneForm) -> EquationsOfMotion:
    """Equations of motion from a Lagrangian/anti-exact split.

    The split must reconstruct phi; the result is checked against the
    direct dual-Spencer residuals of phi (they agree exactly by linearity).
    """
    accept_user_split(dec.lagrangian, dec.anti_exact, phi)
    var_der = variational_derivative(dec.lagrangian, n=phi.n)
    anti = dual_spencer(dec.anti_exact)
    combined = tuple(var_der[i] + anti.residuals[i] for i in range(phi.n))
    direct = dual_spencer(phi)
    if combined != direct.residuals:
        raise MechError("split assembly disagrees with direct dual-Spencer residuals")
    return EquationsOfMotion(combined)


def spencer_residual(traj) -> np.ndarray:
    """Sampled Spencer residual r_k = (dx/dt)|_k - v_k of a
    ``dynamics.Trajectory``, shape (N, n).

    dx/dt comes from the second-order stencil of ``diff_order2`` with the
    first grid step; the residual is identically zero (to O(h^2)) iff the
    section is the prolongation of a curve.
    """
    if len(traj.taus) < 3:
        raise ValueError("Spencer residual needs at least 3 samples")
    return diff_order2(traj.xs, float(traj.taus[1] - traj.taus[0])) - traj.vs


def diff_order2(y: np.ndarray, h: float) -> np.ndarray:
    """d/dt along axis 0 of samples on a uniform grid of step h (N >= 3).

    Central differences in the interior, one-sided second-order stencils at
    the endpoints.
    """
    d = np.empty_like(y)
    d[1:-1] = (y[2:] - y[:-2]) / (2.0 * h)
    d[0] = (-3.0 * y[0] + 4.0 * y[1] - y[2]) / (2.0 * h)
    d[-1] = (3.0 * y[-1] - 4.0 * y[-2] + y[-3]) / (2.0 * h)
    return d
