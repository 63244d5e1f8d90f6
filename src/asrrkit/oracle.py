"""Independent numerical verifiers for the analytic models.

A direct frequency-domain solve of the coupled circuit (no closed-form
transforms; one stacked numpy solve per frequency grid, or per block of
circuits each on its own grid), a Brent root
finder, a central difference, derivative sign roots of sampled curves, a
Gauss-Legendre cycle average of the segmented large-signal
transconductance and a Gauss-Legendre integral of a kf/f flicker density.
Everything here exists to check the analytic modules from a second route;
the analytic modules never call into this one.

All solvers are deterministic for fixed inputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .resonator import SrrParams, TransmissionLineSection, TwoPortSweep
from .active import GmBlockParams


@dataclass(frozen=True)
class MeshCircuit:
    """Coupled two-loop network: line segment inductance magnetically
    coupled to a series-RLC ring, between z0 ports.  Options: split shunt
    capacitance ctl/2 at each port, and a negative conductance across the
    ring capacitor.

    The fields may instead be arrays of one shape, one entry per circuit
    (see stack): solve_two_port then solves the whole stack at once."""

    ltl: float  # line segment inductance [H]
    lsrr: float  # ring inductance [H]
    m: float  # mutual inductance [H]
    r_srr: float  # ring series loss [ohm]
    csrr: float  # ring capacitance [F]
    z0: float  # port reference impedance [ohm]
    ctl: float = 0.0  # total segment shunt capacitance [F]; 0 disables
    gm_neg: float = 0.0  # negative conductance across the ring capacitor [S]

    def __post_init__(self):
        if np.any(self.m * self.m > self.ltl * self.lsrr):
            raise ValueError("inductance matrix not positive semi-definite (|k| > 1)")

    @classmethod
    def from_parts(cls, srr: SrrParams, line: TransmissionLineSection, include_ctl=False, gm_neg=0.0):
        m = srr.k * math.sqrt(line.ltl * srr.lsrr)
        return cls(
            ltl=line.ltl,
            lsrr=srr.lsrr,
            m=m,
            r_srr=srr.r_series(),
            csrr=srr.csrr,
            z0=line.z0,
            ctl=line.ctl if include_ctl else 0.0,
            gm_neg=gm_neg,
        )

    @classmethod
    def stack(cls, circuits):
        """One circuit whose fields are arrays over circuits, in order, along
        the last axis: solve_two_port on it with w of shape (..., n) solves
        circuit i at w[..., i].  The |k| <= 1 guard runs on every entry."""
        return cls(**{f.name: np.array([getattr(c, f.name) for c in circuits])
                      for f in fields(cls)})


def solve_linear(a, b):
    """Solve a dense complex system, or a stack of them, with numpy's LU
    solver.

    a has shape (..., n, n) and b shape (..., n, m): m right-hand sides per
    system, as columns.  A singular system -- one that LAPACK refuses or
    whose solution is not finite -- raises ValueError: that is where the
    negative conductance cancels the ring loss exactly.
    """
    try:
        x = np.linalg.solve(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
        if not np.all(np.isfinite(x)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        raise ValueError("singular system at the active-instability boundary") from None
    return x


def solve_two_port(circ: MeshCircuit, w) -> np.ndarray:
    """Full S-matrices from the nodal/mesh system at angular frequency w.

    w and the circuit's fields broadcast against each other, and the result
    has their broadcast shape + (2, 2), from one stacked solve: a scalar
    circuit at a scalar w gives one (2, 2) matrix, at a grid one matrix per
    point, and a stacked circuit (see MeshCircuit.stack) one per circuit,
    or per circuit and point.  Each system is solved alone, so an entry is
    the same whatever it is stacked with.  Unknowns are the port node
    voltages, the branch current through the coupled segment, and the ring
    loop current; each port is driven in turn behind z0 with the other
    port terminated, so reciprocity is an outcome rather than an assumption.
    """
    w = np.asarray(w, dtype=float)
    shape = np.broadcast_shapes(w.shape, *(np.shape(getattr(circ, f.name))
                                           for f in fields(circ)))
    z0 = circ.z0
    yc = 1j * w * circ.csrr - circ.gm_neg
    if np.any(yc == 0):
        raise ValueError("singular system at the active-instability boundary")
    jw = 1j * w

    # rows: KCL at node 1, KCL at node 2, coupled-branch voltage, ring loop
    a = np.zeros(shape + (4, 4), dtype=complex)
    a[..., 0, 0] = a[..., 1, 1] = 1.0 / z0 + jw * circ.ctl / 2.0
    a[..., 0, 2] = a[..., 2, 0] = 1.0
    a[..., 1, 2] = a[..., 2, 1] = -1.0
    a[..., 2, 2] = -jw * circ.ltl
    a[..., 2, 3] = -jw * circ.m
    a[..., 3, 2] = jw * circ.m
    a[..., 3, 3] = circ.r_srr + jw * circ.lsrr + 1.0 / yc
    # drive port 1, then port 2, with unit source voltage
    b = np.zeros(shape + (4, 2), dtype=complex)
    b[..., 0, 0] = b[..., 1, 1] = 1.0 / z0
    x = solve_linear(a, b)
    # S_ij = 2*V_i(drive j) - delta_ij
    return 2.0 * x[..., :2, :] - np.eye(2)


def sweep_two_port(circ: MeshCircuit, freqs) -> TwoPortSweep:
    """Solve the mesh across a grid in one stacked solve and collect
    (S11, S21)."""
    freqs = np.asarray(freqs, dtype=float)
    s = solve_two_port(circ, freqs)
    return TwoPortSweep(freqs=freqs, s11=s[:, 0, 0], s21=s[:, 1, 0], z0_ref=circ.z0)


def brent(f, a, b, xtol=1e-12):
    """Find a root of f in [a, b] by Brent's method.

    f(a) and f(b) must have opposite signs.  Returns x with the bracket
    narrowed below xtol (plus machine-epsilon scaled slack), or the last
    iterate after 200 iterations.
    """
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0:
        raise ValueError("root not bracketed")
    c, fc = a, fa
    d = e = b - a
    eps = np.finfo(float).eps
    for _ in range(200):
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * eps * abs(b) + 0.5 * xtol
        mid = 0.5 * (c - b)
        if abs(mid) <= tol or fb == 0.0:
            return b
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = mid
        else:
            s = fb / fa
            if a == c:
                p = 2.0 * mid * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * mid * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * mid * q - abs(tol * q), abs(e * q)):
                e = d
                d = p / q
            else:
                d = e = mid
        a, fa = b, fb
        b += d if abs(d) > tol else (tol if mid > 0 else -tol)
        fb = f(b)
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            d = e = b - a
    return b


def derivative_sign_roots(x, y):
    """Roots of dy/dx located from gridded samples, in increasing x:
    finite-difference the samples, then take the root of the linear
    interpolant of the derivative across each sign change.  A sample other
    than the last where the derivative is exactly zero is a root itself."""
    x = np.asarray(x, dtype=float)
    dy = np.gradient(np.asarray(y, dtype=float), x)
    pick = (dy[:-1] == 0.0) | (dy[:-1] * dy[1:] < 0)
    lo, hi, dlo, dhi = x[:-1][pick], x[1:][pick], dy[:-1][pick], dy[1:][pick]
    return (lo - dlo * (hi - lo) / np.where(dlo == 0.0, 1.0, dhi - dlo)).tolist()


def central_difference(f, x, rel_step=1e-6):
    """d f/dx by central difference with a step relative to |x|."""
    h = abs(x) * rel_step
    if h == 0.0:
        raise ValueError("central difference needs a nonzero expansion point")
    return (f(x + h) - f(x - h)) / (2.0 * h)


def segmented_gm(theta, v_asrr, p: GmBlockParams):
    """Large-signal device transconductance across one cycle of the swing
    v_asrr*sin(theta): square-law value in saturation, proportional to the
    drain-source voltage in triode, zero in cutoff.  Region boundaries at
    sin(theta) = +/- vth/v_asrr."""
    s = np.sin(theta)
    gm = p.gm0 + p.k_wl * (v_asrr / 2.0) * s
    if v_asrr > p.vth:
        edge = p.vth / v_asrr
        gm = np.where(s > edge, p.k_wl * (p.vdd / 2.0 - (v_asrr / 2.0) * s), gm)
        gm = np.where(s < -edge, 0.0, gm)
    return gm


@functools.cache
def _gauss_legendre(n: int):
    """Read-only n-point Gauss-Legendre (nodes, weights), built once per n:
    the eigenvalue solve behind them costs more than a cycle average."""
    # numpy.polynomial is imported here, not at module level: the bench
    # runner and the tests import validate, and this module with it, without
    # running it, and the runner's RSS is the floor of every child's peak
    # RSS.  Loading it there would cost about 1 MB and 4-6 ms
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def time_avg_gm(v_asrr: float, p: GmBlockParams, samples: int = 16) -> float:
    """Cycle average of the segmented transconductance by Gauss-Legendre
    quadrature with `samples` nodes per panel, the panels split at the
    region boundaries.  On each panel the integrand is a + b*sin(theta),
    which 16 nodes integrate to rounding.  Verifies the closed-form average
    from a second route."""
    edges = [0.0, 2.0 * np.pi]
    if v_asrr > p.vth:
        thc = np.arccos(p.vth / v_asrr)
        edges += [np.pi / 2 - thc, np.pi / 2 + thc, 3 * np.pi / 2 - thc, 3 * np.pi / 2 + thc]
    edges = np.sort(edges)
    nodes, weights = _gauss_legendre(samples)
    half = 0.5 * np.diff(edges)[:, None]
    theta = 0.5 * (edges[:-1] + edges[1:])[:, None] + half * nodes
    return float(np.sum(half * weights * segmented_gm(theta, v_asrr, p))) / (2.0 * np.pi)


def flicker_power(kf: float, band) -> float:
    """Power [V^2] of the density kf/f over band = (f_lo, f_hi) [Hz] by
    Gauss-Legendre quadrature with 32 nodes per panel, the panels of equal
    frequency ratio, a decade or less each: on a decade 32 nodes integrate
    1/f to rounding (16 leave 5e-10).  Verifies the closed-form flicker RMS
    from a second route."""
    f_lo, f_hi = band
    edges = np.geomspace(f_lo, f_hi, math.ceil(math.log10(f_hi / f_lo)) + 1)
    nodes, weights = _gauss_legendre(32)
    half = 0.5 * np.diff(edges)[:, None]
    f = 0.5 * (edges[:-1] + edges[1:])[:, None] + half * nodes
    return float(np.sum(half * weights * kf / f))
