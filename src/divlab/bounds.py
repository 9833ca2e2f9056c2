"""Closed-form constants and thresholds used by the verification checks.

All formulas are evaluated exactly as configured.  The absolute constants
that the underlying estimates only assert to exist (exponent scales, the
Neumann geometry constants, the eigenvalue-count density) default to 1 and
are plainly labeled as configuration, not derived values.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace


@dataclass(frozen=True)
class ConstantsConfig:
    """Model parameters plus the configurable absolute constants (defaults 1).

    n_exponent / m_exponent scale the exponents of the unique-continuation
    and low-energy constants; neumann_a/b/c and neumann_prefactor enter the
    Neumann estimates; weyl_constant bounds eigenvalue counts per volume.
    None of these five families is pinned by theory - they are configuration.
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

    @property
    def theta_ellip(self) -> float:
        return max(1.0 / self.theta_minus, self.theta_plus)

    def validate(self) -> "ConstantsConfig":
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
        return self

    def snapshot(self) -> dict:
        return asdict(self)


def delta0(cfg: ConstantsConfig, G: float | None = None) -> float:
    """Largest certified admissible ball radius; shrinks with ellipticity contrast.

    delta0 = 2G / (330 d e^2 te^{11/2} (te+1)^{5/3} (G*theta_lip + 1)),
    te = max(1/theta_minus, theta_plus).  G defaults to the configured period.
    """
    g = cfg.G if G is None else float(G)
    te = cfg.theta_ellip
    denom = 330.0 * cfg.d * math.e**2 * te ** (11.0 / 2.0) * (te + 1.0) ** (5.0 / 3.0) \
        * (g * cfg.theta_lip + 1.0)
    return 2.0 * g / denom


@dataclass(frozen=True)
class GradientLowerBound:
    value: float
    upper_cap: float       # the value never exceeds e_min / (2 theta_plus)
    small_r_floor: float   # quadratic-in-r lower bound, valid for r <= 1


def c_gradient(r: float, e_min: float, theta_plus: float) -> GradientLowerBound:
    """Double-ball gradient lower-bound constant r^2 E^2 / (2 t+ (8 t+ + r^2 E))."""
    if r <= 0 or e_min <= 0 or theta_plus <= 0:
        raise ValueError("r, e_min and theta_plus must be positive")
    value = r * r * e_min**2 / (2.0 * theta_plus * (8.0 * theta_plus + r * r * e_min))
    cap = e_min / (2.0 * theta_plus)
    floor = e_min**2 * r * r / (2.0 * theta_plus * (8.0 * theta_plus + e_min))
    return GradientLowerBound(value=value, upper_cap=cap, small_r_floor=floor)


def _ucp_exponent(cfg: ConstantsConfig, v_sup: float) -> float:
    return cfg.n_exponent * (1.0 + v_sup ** (2.0 / 3.0))


@dataclass(frozen=True)
class UcpConstants:
    function_constant: float          # for |H psi| <= |V psi| solutions
    gradient_constant: float          # eigenfunction-gradient version
    gradient_constant_scaled: float   # (G, delta)-equidistributed version
    delta_effective: float
    delta0: float


def c_sfucp_family(cfg: ConstantsConfig, v_sup: float | None = None,
                   clamp_delta: bool = False) -> UcpConstants:
    """Unique-continuation constants for the configured window.

    function_constant = de^{N (1 + |V|^{2/3})} with de = delta (or
    min(delta, delta0) when clamp_delta is set); gradient_constant multiplies
    the double-ball bound at r = de by (de/2)^{N (1 + E_max^{2/3})}; the
    scaled variant uses (de/2G)^{N (1 + G^{4/3} E_max^{2/3})}.
    """
    cfg.validate()
    v = cfg.e_max if v_sup is None else float(v_sup)
    d0 = delta0(cfg, G=1.0)
    de = min(cfg.delta, d0) if clamp_delta else cfg.delta
    func = de ** _ucp_exponent(cfg, v)
    pref = c_gradient(de, cfg.e_min, cfg.theta_plus).value
    grad = pref * (de / 2.0) ** _ucp_exponent(cfg, cfg.e_max)
    grad_scaled = pref * (de / (2.0 * cfg.G)) ** (
        cfg.n_exponent * (1.0 + cfg.G ** (4.0 / 3.0) * cfg.e_max ** (2.0 / 3.0)))
    return UcpConstants(function_constant=func, gradient_constant=grad,
                        gradient_constant_scaled=grad_scaled, delta_effective=de,
                        delta0=d0)


@dataclass(frozen=True)
class LiftingConstants:
    standard: float          # Lipschitz w, window (e_min, e_max)
    bounded_w: float         # merely bounded w, half-radius tent route
    low_energy: float        # window below kappa, no Lipschitz assumption
    elementary_slope: float  # w >= 1 everywhere: e_min / (theta_plus + T sup w)
    scaled: float            # (G, delta)-equidistributed version of `standard`


def c_evl_family(cfg: ConstantsConfig) -> LiftingConstants:
    """Linear-in-t eigenvalue lifting slopes for each hypothesis set."""
    cfg.validate()
    dl, em, ep = cfg.delta, cfg.e_min, cfg.e_max
    tp_t = cfg.theta_plus + cfg.t_max * cfg.w_sup
    exp_e = _ucp_exponent(cfg, ep)

    grad_t = c_gradient(dl, em, tp_t).value
    standard = grad_t * (dl / 2.0) ** exp_e

    dh = dl / 2.0
    bounded = c_gradient(dh, em, tp_t).value * (dh / 2.0) ** exp_e

    low = 0.5 * c_gradient(dl, em, cfg.theta_plus).value \
        * (dl / 2.0) ** (cfg.m_exponent * (1.0 + cfg.theta_minus ** (-2.0 / 3.0)))

    elementary = em / tp_t

    scaled = grad_t * (dl / (2.0 * cfg.G)) ** (
        cfg.n_exponent * (1.0 + cfg.G ** (4.0 / 3.0) * ep ** (2.0 / 3.0)))

    return LiftingConstants(standard=standard, bounded_w=bounded, low_energy=low,
                            elementary_slope=elementary, scaled=scaled)


@dataclass(frozen=True)
class LowEnergyConstants:
    kappa_prime: float                  # projector uncertainty level and bound
    kappa: float                        # admissible window top for the gradient version
    gradient_constant_low: float        # low-energy eigenfunction-gradient constant
    kappa_scaled: float
    gradient_constant_low_scaled: float
    neumann_supported: bool             # the Neumann family requires d >= 3
    kappa_neumann: float | None
    neumann_function_constant: float | None
    neumann_gradient_constant: float | None


def _kappa_prime(cfg: ConstantsConfig, dl: float) -> float:
    return 0.5 * dl ** (cfg.m_exponent * (1.0 + cfg.theta_minus ** (-2.0 / 3.0)))


def _neumann_function_constant(cfg: ConstantsConfig, dl: float) -> float:
    geom = min(math.sqrt(cfg.d), cfg.L / 2.0)
    bracket = cfg.neumann_b / geom**2 + abs(math.log(cfg.neumann_a * dl ** (cfg.d - 2)))
    return cfg.neumann_c * cfg.theta_minus * dl**cfg.d * bracket ** (-2.0)


def kappa_family(cfg: ConstantsConfig) -> LowEnergyConstants:
    """Low-energy thresholds and constants, Dirichlet and (for d >= 3) Neumann."""
    cfg.validate()
    dl = cfg.delta
    kp = _kappa_prime(cfg, dl)
    kap = _kappa_prime(cfg, dl / 2.0)
    m_exp = cfg.m_exponent * (1.0 + cfg.theta_minus ** (-2.0 / 3.0))
    pref = c_gradient(dl, cfg.e_min, cfg.theta_plus).value
    grad_low = 0.5 * pref * (dl / 2.0) ** m_exp

    g = cfg.G
    kap_scaled = (0.5 / g**2) * (dl / (2.0 * g)) ** m_exp
    grad_low_scaled = 0.5 * pref * (dl / (2.0 * g)) ** m_exp

    if cfg.d >= 3:
        kn = cfg.neumann_prefactor * cfg.theta_minus * (dl / 2.0) ** (cfg.d - 2)
        nf = _neumann_function_constant(cfg, dl)
        ng = pref * _neumann_function_constant(cfg, dl / 2.0)
        supported = True
    else:
        kn = nf = ng = None
        supported = False

    return LowEnergyConstants(kappa_prime=kp, kappa=kap, gradient_constant_low=grad_low,
                              kappa_scaled=kap_scaled,
                              gradient_constant_low_scaled=grad_low_scaled,
                              neumann_supported=supported, kappa_neumann=kn,
                              neumann_function_constant=nf,
                              neumann_gradient_constant=ng)


def c_wegner(cfg: ConstantsConfig, lifting_constant: float, delta_plus: float,
             weyl_constant: float | None = None) -> float:
    """Averaged eigenvalue-count bound prefactor C_weyl (2 + delta_plus)^d (4 / lifting)."""
    if lifting_constant <= 0:
        raise ValueError("lifting constant must be positive")
    if delta_plus <= 0:
        raise ValueError("delta_plus must be positive")
    cw = cfg.weyl_constant if weyl_constant is None else float(weyl_constant)
    return cw * (2.0 + delta_plus) ** cfg.d * (4.0 / lifting_constant)


@dataclass(frozen=True)
class ConstantEntry:
    value: float
    formula: str
    provenance: str  # 'formula' | 'configured' | 'empirical'


@dataclass(frozen=True)
class ConstantsReport:
    """Every named constant with its formula string and the config snapshot.

    Re-evaluating from the snapshot reproduces the values bit-identically.
    """

    config: dict
    aux: dict
    entries: dict

    def to_dict(self) -> dict:
        return {"config": dict(self.config), "aux": dict(self.aux),
                "entries": {k: asdict(v) for k, v in self.entries.items()}}

    def recompute(self) -> "ConstantsReport":
        return constants_report(ConstantsConfig(**self.config), **self.aux)


def constants_report(cfg: ConstantsConfig, v_sup: float | None = None,
                     delta_plus: float | None = None) -> ConstantsReport:
    cfg.validate()
    ucp = c_sfucp_family(cfg, v_sup=v_sup)
    evl = c_evl_family(cfg)
    low = kappa_family(cfg)
    grad = c_gradient(cfg.delta, cfg.e_min, cfg.theta_plus)
    entries: dict[str, ConstantEntry] = {
        "delta0": ConstantEntry(delta0(cfg), "2G/(330 d e^2 te^{11/2} (te+1)^{5/3} (G lip+1))", "formula"),
        "gradient_lower_bound": ConstantEntry(grad.value, "r^2 E^2/(2 t+ (8 t+ + r^2 E)), r=delta", "formula"),
        "ucp_function": ConstantEntry(ucp.function_constant, "de^{N(1+|V|^{2/3})}", "formula"),
        "ucp_gradient": ConstantEntry(ucp.gradient_constant, "C_grad(de) (de/2)^{N(1+E+^{2/3})}", "formula"),
        "ucp_gradient_scaled": ConstantEntry(ucp.gradient_constant_scaled,
                                             "C_grad(de) (de/2G)^{N(1+G^{4/3}E+^{2/3})}", "formula"),
        "lifting_standard": ConstantEntry(evl.standard, "C_grad_T(delta) (delta/2)^{N(1+E+^{2/3})}", "formula"),
        "lifting_bounded_w": ConstantEntry(evl.bounded_w, "same at delta/2", "formula"),
        "lifting_low_energy": ConstantEntry(evl.low_energy,
                                            "C_grad(delta)/2 (delta/2)^{M(1+t-^{-2/3})}", "formula"),
        "lifting_elementary": ConstantEntry(evl.elementary_slope, "E-/(t+ + T sup w)", "formula"),
        "lifting_scaled": ConstantEntry(evl.scaled, "C_grad_T(delta) (delta/2G)^{N(1+G^{4/3}E+^{2/3})}", "formula"),
        "kappa_prime": ConstantEntry(low.kappa_prime, "delta^{M(1+t-^{-2/3})}/2", "formula"),
        "kappa": ConstantEntry(low.kappa, "kappa_prime(delta/2)", "formula"),
        "ucp_gradient_low": ConstantEntry(low.gradient_constant_low,
                                          "C_grad(delta) kappa_prime(delta/2)", "formula"),
        "kappa_scaled": ConstantEntry(low.kappa_scaled, "(1/2G^2)(delta/2G)^{M(1+t-^{-2/3})}", "formula"),
        "ucp_gradient_low_scaled": ConstantEntry(low.gradient_constant_low_scaled,
                                                 "C_grad(delta)/2 (delta/2G)^{M(1+t-^{-2/3})}", "formula"),
        "n_exponent": ConstantEntry(cfg.n_exponent, "not theory-specified", "configured"),
        "m_exponent": ConstantEntry(cfg.m_exponent, "not theory-specified", "configured"),
        "weyl_constant": ConstantEntry(cfg.weyl_constant, "not theory-specified", "configured"),
    }
    if low.neumann_supported:
        entries["kappa_neumann"] = ConstantEntry(low.kappa_neumann,
                                                 "C t- (delta/2)^{d-2}", "formula")
        entries["neumann_function"] = ConstantEntry(low.neumann_function_constant,
                                                    "c t- delta^d [b/min(sqrt d, L/2)^2 + |log(a delta^{d-2})|]^{-2}",
                                                    "formula")
        entries["neumann_gradient"] = ConstantEntry(low.neumann_gradient_constant,
                                                    "C_grad(delta) * neumann_function(delta/2)", "formula")
    if delta_plus is not None:
        entries["wegner"] = ConstantEntry(c_wegner(cfg, evl.bounded_w, delta_plus),
                                          "C_weyl (2+d+)^d (4/lifting_bounded)", "formula")
        entries["wegner_lipschitz"] = ConstantEntry(c_wegner(cfg, evl.standard, delta_plus),
                                                    "C_weyl (2+d+)^d (4/lifting_standard)", "formula")
    return ConstantsReport(config=cfg.snapshot(),
                           aux={"v_sup": v_sup, "delta_plus": delta_plus},
                           entries=entries)
