"""System configuration, channel generation and the post-ZF signal model.

All powers and channel variances are linear, noise-normalized values
(receiver noise has unit variance), so "x dB" maps to 10**(x/10).
The relay applies a rank-one amplify-and-forward matrix W = w_t w_r^H with
a unit-norm receive combiner w_r; the transmit-side zero-forcing condition
w_r^H H_rr w_t = 0 removes the relay's own loopback term from the model.
"""

import json
import math
import numbers
from dataclasses import dataclass, field, fields, replace
from typing import ClassVar

import numpy as np

from .numerics import _norms, _vdots, null_space_basis

__all__ = [
    "DegenerateGeometryError",
    "SystemConfig",
    "ChannelRealization",
    "RelayBeamformer",
    "PowerAllocation",
    "EffectiveGains",
    "OperatingPoint",
    "db_to_linear",
    "sample_channels",
    "sample_realizations",
    "sinr_pair",
    "receive_gains",
    "relay_output_power",
    "effective_gains",
    "relay_null_basis",
    "channels_to_json",
    "channels_from_json",
]


class DegenerateGeometryError(ValueError):
    """Channel geometry leaves a requested direction undefined."""


def db_to_linear(x_db):
    return 10.0 ** (x_db / 10.0)


@dataclass(frozen=True)
class SystemConfig:
    """Antenna counts, power budgets and residual-SI variances: the nine
    settable fields.

    m_t must be an integer of at least 2 so the ZF constraint can always be
    satisfied through the transmit-side null space.  The solvers' search
    constants (combiner grid size, alternation cap and tolerance, and the
    1-D grid size, which sizes only ``dc_step``'s reference slice search)
    are fixed class attributes, not per-run options.
    """

    m_t: int = 3
    m_r: int = 3
    p_a_max: float = 10.0
    p_b_max: float = 10.0
    p_r_max: float = 10.0
    sigma2_a: float = 0.01
    sigma2_b: float = 0.01
    sigma2_r: float = 0.01
    gain_br: float = 1.0
    alpha_grid: ClassVar[int] = 21
    iter_max: ClassVar[int] = 40
    conv_tol: ClassVar[float] = 1e-6
    grid_points: ClassVar[int] = 201

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # numpy numbers pass; strings, null, JSON booleans and (for the
            # counts) non-integers do not
            kind, what = ((numbers.Integral, "an integer") if f.type is int
                          else (numbers.Real, "a real number"))
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"{f.name} must be {what}, got {value!r}")
            if f.type is float and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
            if f.type is float and value < 0:
                raise ValueError(f"{f.name} must be nonnegative")
        if self.m_t < 2:
            raise ValueError("m_t >= 2 is required for transmit-side ZF")
        if self.m_r < 1:
            raise ValueError("m_r >= 1 is required")
        if self.gain_br < 1e-100:
            raise ValueError(f"gain_br must be at least 1e-100 (-1000 dB), got {self.gain_br!r}: "
                             "with no B-side link, or one whose squared norms underflow, the "
                             "receive combiner and B's rate are undefined")


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of the seven channel quantities between A, B and the relay.

    h_ar, h_br live at the relay's receive array (length m_r); h_ra, h_rb at
    its transmit array (length m_t); h_aa, h_bb are the scalar residual-SI
    channels at the sources and h_rr the m_r x m_t residual loopback at R.
    """

    h_ar: np.ndarray
    h_br: np.ndarray
    h_ra: np.ndarray
    h_rb: np.ndarray
    h_aa: complex
    h_bb: complex
    h_rr: np.ndarray

    @property
    def m_r(self):
        return self.h_ar.size

    @property
    def m_t(self):
        return self.h_ra.size

    def validate(self):
        """Return self, or raise ValueError unless every channel has the shape
        implied by m_r and m_t and every entry, the two scalars included, is
        finite."""
        shapes = {"h_ar": (self.m_r,), "h_br": (self.m_r,), "h_ra": (self.m_t,),
                  "h_rb": (self.m_t,), "h_rr": (self.m_r, self.m_t)}
        for name, shape in shapes.items():
            if np.shape(getattr(self, name)) != shape:
                raise ValueError(f"{name} has shape {np.shape(getattr(self, name))}, "
                                 f"expected {shape}")
        for name in ("h_ar", "h_br", "h_ra", "h_rb", "h_aa", "h_bb", "h_rr"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} has a non-finite entry")
        return self


@dataclass(frozen=True)
class RelayBeamformer:
    """Relay processing: transmit beam w_t, unit receive combiner w_r.

    Rank-one schemes leave w_full as None; the full-matrix HD benchmark
    stores its relay matrix there and leaves w_t and w_r as None.
    """

    w_t: np.ndarray | None
    w_r: np.ndarray | None
    alpha: float
    w_full: np.ndarray | None = None


@dataclass(frozen=True)
class PowerAllocation:
    p_a: float
    p_b: float
    p_r: float


@dataclass(frozen=True)
class EffectiveGains:
    """Squared channel/beam inner products the SINRs are made of."""

    tx_gain_a: float  # |h_ra^H w_t|^2, beam gain toward A's receiver
    rx_gain_b: float  # |w_r^H h_br|^2, combiner gain for B's uplink
    tx_gain_b: float  # |h_rb^H w_t|^2
    rx_gain_a: float  # |w_r^H h_ar|^2


@dataclass(frozen=True)
class OperatingPoint:
    """A feasible solver output: beamformer, powers, SINRs, rates and trace.

    Rates satisfy R = pre_log * log2(1 + gamma); pre_log is 0.5 for the
    two-phase half-duplex baseline and 1.0 otherwise.  ``trace`` holds the
    per-iteration objective values of the producing solver (nondecreasing).
    """

    beamformer: RelayBeamformer
    powers: PowerAllocation
    gamma_a: float
    gamma_b: float
    rate_a: float
    rate_b: float
    trace: list = field(default_factory=list)
    pre_log: float = 1.0

    @property
    def sum_rate(self):
        return self.rate_a + self.rate_b

    def to_report(self):
        """JSON-ready solver report: rates, powers, alpha, iterations, trace."""
        return {
            "rate_a": self.rate_a,
            "rate_b": self.rate_b,
            "sum_rate": self.sum_rate,
            "gamma_a": self.gamma_a,
            "gamma_b": self.gamma_b,
            "p_a": self.powers.p_a,
            "p_b": self.powers.p_b,
            "p_r": self.powers.p_r,
            "alpha": self.beamformer.alpha,
            "pre_log": self.pre_log,
            "iterations": len(self.trace),
            "trace": list(self.trace),
        }


def sample_realizations(config, seeds):
    """Draw one flat-fading realization per seed, deterministic in (config, seed).

    h_ar/h_ra entries are unit-variance circularly-symmetric Gaussian;
    the B-side links are scaled by config.gain_br and the residual-SI
    channels by their configured variances.  A seed's normals come from one
    draw: the real, then the imaginary parts of h_ar, h_br, h_ra, h_rb,
    h_aa, h_bb and h_rr (row-major), in that order.  The draws are built
    and scaled as the rows of one array, elementwise, so each realization
    (row views) has the bits of its seed alone.
    """
    m_r, m_t, g_br = config.m_r, config.m_t, math.sqrt(config.gain_br)
    sizes = (m_r, m_r, m_t, m_t, 1, 1, m_r * m_t)
    x = np.empty((len(seeds), 2 * sum(sizes)))
    for row, seed in zip(x, seeds):
        np.random.default_rng(seed).standard_normal(out=row)
    h, start = [], 0
    for size, scale in zip(sizes, (None, g_br, None, g_br, math.sqrt(config.sigma2_a),
                                   math.sqrt(config.sigma2_b), math.sqrt(config.sigma2_r))):
        z = (x[:, start:start + size] + 1j * x[:, start + size:start + 2 * size]) / math.sqrt(2.0)
        h.append(z if scale is None else scale * z)
        start += 2 * size
    return [ChannelRealization(*rows) for rows in zip(
        *h[:4], h[4][:, 0].tolist(), h[5][:, 0].tolist(), h[6].reshape(-1, m_r, m_t))]


def sample_channels(config, seed):
    """The realization ``sample_realizations`` draws for one seed."""
    return sample_realizations(config, [seed])[0]


def _combiner_basis(h_ar, h_br):
    """The two unit directions that a receive combiner mixes
    (``rate_region._combiner_table``), for each row of the K x m_r stacks
    h_ar and h_br: (u_par, u_perp, single).

    u_par/u_perp are the unit projections of h_ar onto span{h_br} and its
    complement.  When h_ar is parallel to h_br (always when m_r = 1) the
    complement is empty: ``single`` is True and both rows hold the combiner
    of every alpha, h_br / ||h_br|| phased along h_br^H h_ar.  A row has
    the bits of its one-row call (``abs`` and ``** 2`` are scalar, which
    numpy's array abs and square do not reproduce).  Raises
    DegenerateGeometryError when an h_br is zero.
    """
    nb = _norms(h_br)
    if np.any(nb <= 1e-300):
        raise DegenerateGeometryError("h_br is zero; combiner direction undefined")
    inner = _vdots(h_br, h_ar)[:, None]  # h_br^H h_ar
    par = h_br * (inner / np.array([v ** 2 for v in nb.tolist()])[:, None])
    perp = h_ar - par
    perp_norm, par_norm = _norms(perp)[:, None], _norms(par)[:, None]
    single = perp_norm < 1e-10
    mag, unit_br = np.array([[abs(v)] for v in inner[:, 0].tolist()]), h_br / nb[:, None]
    along = unit_br * np.where(mag > 0, inner / np.where(mag > 0, mag, 1.0), 1.0)
    # orthogonal channels: the span direction is h_br itself
    spans = par_norm > 1e-12 * _norms(h_ar)[:, None]
    u_par = np.where(spans, par / np.where(spans, par_norm, 1.0), unit_br)
    u_perp = perp / np.where(single, 1.0, perp_norm)
    return np.where(single, along, u_par), np.where(single, along, u_perp), single[:, 0]


def sinr_pair(channels, w_t, w_r, p_a, p_b):
    """Post-ZF SINRs at the two sources for the rank-one relay matrix.

    gamma_a = p_b |h_ra^H w_t|^2 |w_r^H h_br|^2
              / (|h_ra^H w_t|^2 + p_a |h_aa|^2 + 1), and symmetrically for B.
    """
    g = effective_gains(channels, w_t, w_r)
    gamma_a = p_b * g.tx_gain_a * g.rx_gain_b / (g.tx_gain_a + p_a * abs(channels.h_aa) ** 2 + 1.0)
    gamma_b = p_a * g.tx_gain_b * g.rx_gain_a / (g.tx_gain_b + p_b * abs(channels.h_bb) ** 2 + 1.0)
    return gamma_a, gamma_b


def receive_gains(channels, w_r):
    """The combiner's receive gains (|w_r^H h_ar|^2, |w_r^H h_br|^2)."""
    return abs(np.vdot(w_r, channels.h_ar)) ** 2, abs(np.vdot(w_r, channels.h_br)) ** 2


def relay_output_power(channels, w_t, w_r, p_a, p_b):
    """Relay transmit power p_a ||w_t||^2 |w_r^H h_ar|^2 + p_b ||w_t||^2 |w_r^H h_br|^2 + ||w_t||^2."""
    nt2 = float(np.vdot(w_t, w_t).real)
    rx_a, rx_b = receive_gains(channels, w_r)
    return nt2 * (p_a * rx_a + p_b * rx_b + 1.0)


def effective_gains(channels, w_t, w_r):
    rx_a, rx_b = receive_gains(channels, w_r)
    return EffectiveGains(
        tx_gain_a=abs(np.vdot(channels.h_ra, w_t)) ** 2,
        rx_gain_b=rx_b,
        tx_gain_b=abs(np.vdot(channels.h_rb, w_t)) ** 2,
        rx_gain_a=rx_a,
    )


def relay_null_basis(channels, w_r):
    """Basis of transmit directions satisfying ZF for the given combiner.

    Null space of the row w_r^H H_rr; when that row (numerically) vanishes,
    e.g. with a zeroed loopback channel, every direction is admissible and
    the identity is returned.
    """
    v = channels.h_rr.conj().T @ w_r  # column v with v^H = w_r^H H_rr
    scale = np.linalg.norm(channels.h_rr)
    if np.linalg.norm(v) <= 1e-12 * max(1.0, scale):
        return np.eye(channels.m_t, dtype=complex)
    return null_space_basis(v)


def make_operating_point(channels, w_t, w_r, alpha, p_a, p_b, trace):
    gamma_a, gamma_b = sinr_pair(channels, w_t, w_r, p_a, p_b)
    p_r = relay_output_power(channels, w_t, w_r, p_a, p_b)
    return OperatingPoint(
        beamformer=RelayBeamformer(w_t=w_t, w_r=w_r, alpha=alpha),
        powers=PowerAllocation(p_a=p_a, p_b=p_b, p_r=p_r),
        gamma_a=gamma_a,
        gamma_b=gamma_b,
        rate_a=math.log2(1.0 + gamma_a),
        rate_b=math.log2(1.0 + gamma_b),
        trace=list(trace),
    )


def _c2pair(z):
    return [float(np.real(z)), float(np.imag(z))]


def _vec2json(v):
    return [_c2pair(z) for z in np.asarray(v).reshape(-1)]


def _mat2json(m):
    return [[_c2pair(z) for z in row] for row in np.asarray(m)]


def channels_to_json(channels):
    """Serialize a realization to a JSON document (complex as [re, im])."""
    doc = {
        "m_r": channels.m_r,
        "m_t": channels.m_t,
        "h_ar": _vec2json(channels.h_ar),
        "h_br": _vec2json(channels.h_br),
        "h_ra": _vec2json(channels.h_ra),
        "h_rb": _vec2json(channels.h_rb),
        "h_aa": _c2pair(channels.h_aa),
        "h_bb": _c2pair(channels.h_bb),
        "h_rr": _mat2json(channels.h_rr),
    }
    return json.dumps(doc)


def channels_from_json(text):
    doc = json.loads(text)
    vec = lambda pairs: np.array([complex(re, im) for re, im in pairs])
    mat = lambda rows: np.array([[complex(re, im) for re, im in row] for row in rows])
    return ChannelRealization(
        h_ar=vec(doc["h_ar"]),
        h_br=vec(doc["h_br"]),
        h_ra=vec(doc["h_ra"]),
        h_rb=vec(doc["h_rb"]),
        h_aa=complex(doc["h_aa"][0], doc["h_aa"][1]),
        h_bb=complex(doc["h_bb"][0], doc["h_bb"][1]),
        h_rr=mat(doc["h_rr"]).reshape(doc["m_r"], doc["m_t"]),
    ).validate()


def zero_loopback(channels):
    """Copy of the realization with the relay loopback channel H_rr set to zero."""
    return replace(channels, h_rr=np.zeros_like(channels.h_rr))
