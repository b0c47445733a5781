"""The paper's split formulation of the RHS, kept as a test oracle.

The paper writes each derivative sum as its interior part plus a boundary
forcing term (F for u, G for v) that collects the first/last-column
contributions with the convection coefficients frozen at the node value.
``rhs_1d_split``/``rhs_2d_split`` assemble the RHS that way on separate
(u, v) fields, from the package's ``boundary_forcing_1d``/``_2d`` (which
also check the state shapes).  The solvers use the full-sum route instead;
the tests hold the two routes equal to rounding.
"""

from burgers_dqm import boundary_forcing_1d, boundary_forcing_2d


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
