"""Closed-form constants and thresholds used by the verification checks.

Each formula is written once: every gradient constant is the double-ball bound
`c_gradient` at a radius r times (r/2)^exponent (`_gradient_ucp`).  The bounds
are stated for (1, delta)-equidistributed sequences; only `delta0` takes the
period G.  The absolute constants that the underlying estimates only assert to
exist (exponent scales, the Neumann geometry constants, the eigenvalue-count
density) default to 1 and are plainly labeled as configuration, not derived values.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class ConstantsConfig:
    """Model parameters plus the configurable absolute constants (defaults 1).

    n_exponent / m_exponent scale the exponents of the unique-continuation
    and low-energy constants; neumann_a/b/c and neumann_prefactor enter the
    Neumann estimates; weyl_constant bounds eigenvalue counts per volume.
    None of these five families is pinned by theory - they are configuration.
    Each check sets d, delta, G = 1, t_max, w_sup and w_lip from its grid, sequence
    and lifting direction w (0 without one); a config sets only the other 13 fields.
    Construction (and `dataclasses.replace`) rejects an inconsistent set.
    """

    d: int = 1
    theta_minus: float = 1.0
    theta_plus: float = 1.0
    theta_lip: float = 0.0
    e_min: float = 1.0
    e_max: float = 2.0
    delta: float = 0.25
    G: float = 1.0
    L: float = math.inf
    t_max: float = 0.0
    w_lip: float = 0.0   # Lipschitz bound on the lifting direction w
    w_sup: float = 0.0   # sup bound on w
    n_exponent: float = 1.0
    m_exponent: float = 1.0
    neumann_a: float = 1.0
    neumann_b: float = 1.0
    neumann_c: float = 1.0
    neumann_prefactor: float = 1.0
    weyl_constant: float = 1.0

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be positive")
        if not (0 < self.theta_minus <= self.theta_plus):
            raise ValueError("need 0 < theta_minus <= theta_plus")
        if self.theta_lip < 0:
            raise ValueError("theta_lip must be nonnegative")
        if not (0 < self.e_min <= self.e_max):
            raise ValueError("need 0 < e_min <= e_max")
        if not (0 < self.delta):
            raise ValueError("delta must be positive")
        if self.G <= 0 or self.L <= 0:
            raise ValueError("G and L must be positive")
        if self.t_max < 0 or self.w_lip < 0 or self.w_sup < 0:
            raise ValueError("t_max, w_lip, w_sup must be nonnegative")
        for name in ("n_exponent", "m_exponent", "neumann_a", "neumann_b",
                     "neumann_c", "neumann_prefactor", "weyl_constant"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def snapshot(self) -> dict:
        return asdict(self)


def delta0(cfg: ConstantsConfig, G: float = 1.0) -> float:
    """Largest certified admissible ball radius; shrinks with ellipticity contrast.

    delta0 = 2G / (330 d e^2 te^{11/2} (te+1)^{5/3} (G*theta_lip + 1)),
    te = max(1/theta_minus, theta_plus), for the period G (default 1).
    """
    te = max(1.0 / cfg.theta_minus, cfg.theta_plus)
    denom = 330.0 * cfg.d * math.e**2 * te ** (11.0 / 2.0) * (te + 1.0) ** (5.0 / 3.0) \
        * (G * cfg.theta_lip + 1.0)
    return 2.0 * G / denom


def c_gradient(r: float, e_min: float, theta_plus: float) -> float:
    """Double-ball gradient lower-bound constant r^2 E^2 / (2 t+ (8 t+ + r^2 E))."""
    if r <= 0 or e_min <= 0 or theta_plus <= 0:
        raise ValueError("r, e_min and theta_plus must be positive")
    return r * r * e_min**2 / (2.0 * theta_plus * (8.0 * theta_plus + r * r * e_min))


def _ucp_exponent(cfg: ConstantsConfig) -> float:
    return cfg.n_exponent * (1.0 + cfg.e_max ** (2.0 / 3.0))


def _low_energy_exponent(cfg: ConstantsConfig) -> float:
    return cfg.m_exponent * (1.0 + cfg.theta_minus ** (-2.0 / 3.0))


def _gradient_ucp(r: float, e_min: float, theta_plus: float, exponent: float) -> float:
    """The double-ball bound at radius r times (r/2)^exponent."""
    return c_gradient(r, e_min, theta_plus) * (r / 2.0) ** exponent


@dataclass(frozen=True)
class UcpConstants:
    function_constant: float          # for |H psi| <= |V psi| solutions
    gradient_constant: float          # eigenfunction-gradient version
    delta_effective: float
    delta0: float


def c_sfucp_family(cfg: ConstantsConfig, clamp_delta: bool = False) -> UcpConstants:
    """Unique-continuation constants for the configured window.

    function_constant = de^{N (1 + E_max^{2/3})} with de = delta (or
    min(delta, delta0) when clamp_delta is set), e_max bounding the potential
    |V|; gradient_constant multiplies the double-ball bound at r = de by
    (de/2)^{N (1 + E_max^{2/3})}.
    """
    d0 = delta0(cfg)
    de = min(cfg.delta, d0) if clamp_delta else cfg.delta
    func = de ** _ucp_exponent(cfg)
    grad = _gradient_ucp(de, cfg.e_min, cfg.theta_plus, _ucp_exponent(cfg))
    return UcpConstants(function_constant=func, gradient_constant=grad,
                        delta_effective=de, delta0=d0)


@dataclass(frozen=True)
class LiftingConstants:
    standard: float          # Lipschitz w, window (e_min, e_max)
    bounded_w: float         # merely bounded w, half-radius tent route
    elementary_slope: float  # w >= 1 everywhere: e_min / (theta_plus + T sup w)


def c_evl_family(cfg: ConstantsConfig) -> LiftingConstants:
    """Linear-in-t eigenvalue lifting slopes for each hypothesis set; the window
    below kappa takes `kappa_family`'s gradient_constant_low."""
    tp_t = cfg.theta_plus + cfg.t_max * cfg.w_sup
    exp_e = _ucp_exponent(cfg)
    return LiftingConstants(standard=_gradient_ucp(cfg.delta, cfg.e_min, tp_t, exp_e),
                            bounded_w=_gradient_ucp(cfg.delta / 2.0, cfg.e_min, tp_t, exp_e),
                            elementary_slope=cfg.e_min / tp_t)


@dataclass(frozen=True)
class LowEnergyConstants:
    kappa_prime: float                  # projector uncertainty level and bound
    kappa: float                        # admissible window top for the gradient version
    gradient_constant_low: float        # low-energy eigenfunction-gradient constant and slope
    neumann_supported: bool             # the Neumann family requires d >= 3
    kappa_neumann: float | None
    neumann_function_constant: float | None
    neumann_gradient_constant: float | None


def _kappa_prime(cfg: ConstantsConfig, dl: float) -> float:
    return 0.5 * dl ** _low_energy_exponent(cfg)


def _neumann_function_constant(cfg: ConstantsConfig, dl: float) -> float:
    geom = min(math.sqrt(cfg.d), cfg.L / 2.0)
    bracket = cfg.neumann_b / geom**2 + abs(math.log(cfg.neumann_a * dl ** (cfg.d - 2)))
    return cfg.neumann_c * cfg.theta_minus * dl**cfg.d * bracket ** (-2.0)


def kappa_family(cfg: ConstantsConfig) -> LowEnergyConstants:
    """Low-energy thresholds and constants, Dirichlet and (for d >= 3) Neumann."""
    dl = cfg.delta
    grad_low = 0.5 * _gradient_ucp(dl, cfg.e_min, cfg.theta_plus, _low_energy_exponent(cfg))
    supported = cfg.d >= 3
    if supported:
        kn = cfg.neumann_prefactor * cfg.theta_minus * (dl / 2.0) ** (cfg.d - 2)
        nf = _neumann_function_constant(cfg, dl)
        ng = c_gradient(dl, cfg.e_min, cfg.theta_plus) * _neumann_function_constant(cfg, dl / 2.0)
    else:
        kn = nf = ng = None

    return LowEnergyConstants(kappa_prime=_kappa_prime(cfg, dl), kappa=_kappa_prime(cfg, dl / 2.0),
                              gradient_constant_low=grad_low,
                              neumann_supported=supported, kappa_neumann=kn,
                              neumann_function_constant=nf,
                              neumann_gradient_constant=ng)


def c_wegner(cfg: ConstantsConfig, lifting_constant: float, delta_plus: float) -> float:
    """Averaged eigenvalue-count bound prefactor C_weyl (2 + delta_plus)^d (4 / lifting)."""
    if lifting_constant <= 0:
        raise ValueError("lifting constant must be positive")
    if delta_plus <= 0:
        raise ValueError("delta_plus must be positive")
    return cfg.weyl_constant * (2.0 + delta_plus) ** cfg.d * (4.0 / lifting_constant)
