"""Reference forms kept as test oracles: the 1D RHS, the split RHS and the
RK54 step.

``rhs_1d_reference`` is the full-sum 1D RHS written per field, one
expression per convection term; ``rhs_1d`` sums the same terms through one
coupling product, and the tests hold the two equal to rounding.

The paper writes each derivative sum as its interior part plus a boundary
forcing term (F for u, G for v) that collects the first/last-column
contributions with the convection coefficients frozen at the node value.
``rhs_1d_split``/``rhs_2d_split`` assemble the RHS that way on separate
(u, v) fields, from the package's ``boundary_forcing_1d``/``_2d`` (which
also check the state shapes).  The solvers use the full-sum route instead;
the tests hold the two routes equal to rounding.

``step_reference`` is the SSP-RK54 step written as one expression per
stage, in the Shu-Osher form of Spiteri & Ruuth; ``ssprk54.step`` evaluates
the same terms in the same order into buffers of its own, and the tests hold
the two byte-equal.

``dump_weights_csv_reference`` formats a weight dump with one ``%`` per
matrix entry, and ``csv_text_reference`` a CSV cell by cell through a
generator; the package's ``dump_weights_csv`` and ``cli.write_csv`` format
a row at a time, and the tests hold their bytes equal to these.
"""

import dataclasses

import numpy as np

from burgers_dqm import boundary_forcing_1d, boundary_forcing_2d, problem1
from burgers_dqm.burgers_rhs import _check_state
from burgers_dqm.ssprk54 import (
    A20, A21, A30, A32, A40, A43, ABSCISSAE, B10, B21, B32, B43, C2, C3, C4,
    D3, D4, _check,
)


def problem1_asymmetric():
    """Problem 1 with four distinct coupling coefficients, so that swapping
    eta with xi or alpha with beta changes the RHS (problem 1 itself has
    eta = xi and alpha = beta).  Its exact-solution fields no longer hold."""
    return dataclasses.replace(problem1(), eta=0.3, xi=-1.7, alpha=0.55,
                               beta=2.1, exact_u=None, exact_v=None,
                               name="p1-asymmetric")


def rhs_1d_reference(w, t, prob, w1, w2):
    """Full-sum 1D RHS, one expression per field; equals rhs_1d to rounding."""
    _check_state(w, (2, w1.shape[0]))
    u, v = w[0], w[1]
    wx = w @ w1.T
    ux, vx = wx[0], wx[1]
    cross = u * vx + v * ux
    out = w @ w2.T
    du, dv = out[0], out[1]
    du -= prob.eta * u * ux
    du -= prob.alpha * cross
    dv -= prob.xi * v * vx
    dv -= prob.beta * cross
    out[:, ::out.shape[-1] - 1] = 0.0  # both ends in one strided write
    return out


def rhs_1d_split(u, v, t, prob, w1, w2):
    """Interior-sum RHS plus boundary forcing; equals rhs_1d to rounding."""
    f, g = boundary_forcing_1d(u, v, prob, w1, w2)
    w1i = w1[:, 1:-1]
    w2i = w2[:, 1:-1]
    ui = u[1:-1]
    vi = v[1:-1]
    ux = w1i @ ui
    vx = w1i @ vi
    du = w2i @ ui - prob.eta * u * ux - prob.alpha * (u * vx + v * ux) + f
    dv = w2i @ vi - prob.xi * v * vx - prob.beta * (u * vx + v * ux) + g
    du[0] = du[-1] = 0.0
    dv[0] = dv[-1] = 0.0
    return du, dv


def rhs_2d_split(U, V, t, prob, ax1, ax2, by1, by2):
    """Interior-sum 2D RHS plus boundary forcing; equals rhs_2d to rounding."""
    f, g = boundary_forcing_2d(U, V, prob, ax1, ax2, by1, by2)
    nu = prob.nu
    ax1i, ax2i = ax1[:, 1:-1], ax2[:, 1:-1]
    by1i, by2i = by1[:, 1:-1], by2[:, 1:-1]
    Ui, Vi = U[1:-1, :], V[1:-1, :]
    Uj, Vj = U[:, 1:-1], V[:, 1:-1]
    dU = nu * (ax2i @ Ui + Uj @ by2i.T) - U * (ax1i @ Ui) - V * (Uj @ by1i.T) + f
    dV = nu * (ax2i @ Vi + Vj @ by2i.T) - U * (ax1i @ Vi) - V * (Vj @ by1i.T) + g
    for D in (dU, dV):
        D[[0, -1], :] = 0.0
        D[:, [0, -1]] = 0.0
    return dU, dV


def step_reference(u, t, dt, rhs):
    """One SSP-RK54 step, one expression per stage; ``step`` matches it bitwise."""
    u = np.asarray(u)
    ts = [t + c * dt for c in ABSCISSAE]

    u1 = u + (B10 * dt) * rhs(u, ts[0])
    u2 = A20 * u + A21 * u1 + (B21 * dt) * rhs(u1, ts[1])
    u3 = A30 * u + A32 * u2 + (B32 * dt) * rhs(u2, ts[2])
    l3 = rhs(u3, ts[3])
    u4 = A40 * u + A43 * u3 + (B43 * dt) * l3
    out = C2 * u2 + C3 * u3 + (D3 * dt) * l3 + C4 * u4 + (D4 * dt) * rhs(u4, ts[4])
    if not np.isfinite(out).all():
        for stage, uk in enumerate((u1, u2, u3, u4, out), start=1):
            _check(uk, t, stage)
    return out


def dump_weights_csv_reference(w, path):
    """Weight dump with one ``%`` per entry; dump_weights_csv matches it bytewise."""
    lines = ["row,col,value\n"]
    for i, row in enumerate(w.tolist(), start=1):
        lines += ["%d,%d,%.17g\n" % (i, j, v) for j, v in enumerate(row, start=1)]
    with open(path, "w", newline="") as f:
        f.write("".join(lines))


def _cell_reference(value):
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def csv_text_reference(header, rows):
    """The text cli.write_csv writes, each cell formatted through a generator."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell_reference(c) for c in row))
    return "\n".join(lines) + "\n"
