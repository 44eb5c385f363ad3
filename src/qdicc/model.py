"""Static description of the capacitively coupled two-dot system.

The bottom dot (single-particle energy ``eps_b``) exchanges spin-down
electrons with two leads l and r; the upper dot (``eps_u``) exchanges
spin-up electrons with a single lead u.  The dots interact only through the
net coupling ``kappa`` (Coulomb minus spin-spin part), which shifts the
doubly occupied level.  Natural units are used throughout: hbar = k_B = 1
and rates measured against a reference tunneling rate, so every stored
quantity is a plain dimensionless float.

The four many-body eigenstates in fixed order::

    A = |00>   empty               energy 0
    B = |d0>   bottom occupied     energy eps_b
    C = |0u>   upper occupied      energy eps_u
    D = |du>   both occupied       energy eps_b + eps_u + kappa

Allowed transitions are A<->B and C<->D (leads l, r) plus A<->C and B<->D
(lead u); Coulomb blockade with sequential tunneling forbids B<->C and
A<->D.  When kappa < -eps_b the levels of C and D swap, which breaks the
symmetry between particle and energy exchange on the bottom dot: that level
swap is the necessary ingredient for the inverse-current regimes analyzed
in :mod:`qdicc.icc`.
"""
from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field

from . import _kernels
from .errors import ForbiddenTransitionError


class StateIndex(enum.IntEnum):
    """The four eigenstates in their fixed order."""

    A = 0
    B = 1
    C = 2
    D = 3


class Lead(enum.Enum):
    """Reservoir labels: l and r couple to the bottom dot, u to the upper."""

    L = "l"
    R = "r"
    U = "u"


@dataclass(frozen=True)
class SystemParams:
    """Dot energies and inter-dot coupling.

    Either pass ``kappa`` directly or both coupling components
    ``kappa_c`` (Coulomb, >= 0) and ``kappa_s`` (spin-spin, >= 0), in which
    case ``kappa = kappa_c - kappa_s``.  ``eps_b < eps_u`` is a hard
    labeling convention and violating it is a construction error rather
    than a silent reorder, because the downstream regime analysis depends
    on it.
    """

    eps_b: float
    eps_u: float
    kappa: float | None = None
    kappa_c: float | None = field(default=None, repr=False)
    kappa_s: float | None = field(default=None, repr=False)

    def __post_init__(self):
        if not (math.isfinite(self.eps_b) and self.eps_b > 0):
            raise ValueError(f"eps_b must be finite and > 0, got {self.eps_b}")
        if not (math.isfinite(self.eps_u) and self.eps_u > 0):
            raise ValueError(f"eps_u must be finite and > 0, got {self.eps_u}")
        if not self.eps_b < self.eps_u:
            raise ValueError(
                f"label convention requires eps_b < eps_u, got "
                f"eps_b={self.eps_b}, eps_u={self.eps_u}"
            )
        has_parts = self.kappa_c is not None or self.kappa_s is not None
        if has_parts:
            if self.kappa is not None:
                raise ValueError("pass either kappa or (kappa_c, kappa_s), not both")
            if self.kappa_c is None or self.kappa_s is None:
                raise ValueError("kappa_c and kappa_s must be supplied together")
            if self.kappa_c < 0 or self.kappa_s < 0:
                raise ValueError("kappa_c and kappa_s must be non-negative")
            object.__setattr__(self, "kappa", self.kappa_c - self.kappa_s)
        elif self.kappa is None:
            raise ValueError("inter-dot coupling missing: pass kappa or (kappa_c, kappa_s)")
        if not math.isfinite(self.kappa):
            raise ValueError(f"kappa must be finite, got {self.kappa}")
        if self.eps_b + self.kappa == 0.0:
            warnings.warn(
                "eps_b + kappa = 0: the C->D transition energy vanishes and "
                "the sequential-tunneling rate picture is marginal there",
                stacklevel=3,  # past the dataclass __init__, to its caller
            )

    @property
    def theta(self) -> float:
        """Scaled coupling eps_b / kappa; undefined for uncoupled dots."""
        if self.kappa == 0.0:
            raise ValueError("theta is undefined for kappa = 0")
        return self.eps_b / self.kappa

    @property
    def levels_swapped(self) -> bool:
        """True when the doubly occupied level lies below the upper-dot level."""
        return self.eps_b + self.kappa < 0.0


@dataclass(frozen=True)
class Reservoir:
    """A fermionic lead: inverse temperature, chemical potential, bare rate."""

    label: Lead
    beta: float
    mu: float
    gamma: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be finite and > 0, got {self.beta}")
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma}")


@dataclass(frozen=True)
class BathConfig:
    """The three reservoirs, with labels pinned to their field positions."""

    l: Reservoir
    r: Reservoir
    u: Reservoir

    def __post_init__(self):
        for name, res, want in (("l", self.l, Lead.L), ("r", self.r, Lead.R),
                                ("u", self.u, Lead.U)):
            if res.label is not want:
                raise ValueError(f"reservoir in slot '{name}' carries label {res.label}")

    def reservoir(self, lead: Lead) -> Reservoir:
        return {Lead.L: self.l, Lead.R: self.r, Lead.U: self.u}[lead]

    @property
    def triples(self) -> tuple[tuple[float, float, float], ...]:
        """The (l, r, u) triples (beta, mu, gamma) that the engine takes."""
        return tuple(zip(*((r.beta, r.mu, r.gamma) for r in (self.l, self.r, self.u))))


@dataclass(frozen=True)
class TransitionTable:
    """Transition energies omega_ij = eps_j - eps_i for the four allowed pairs."""

    omega_ab: float
    omega_ac: float
    omega_cd: float
    omega_bd: float

    def omega(self, i: StateIndex, j: StateIndex) -> float:
        """Signed transition energy for i -> j; forbidden pairs raise."""
        i, j = StateIndex(i), StateIndex(j)
        if i == j or _kernels._BLOCKED[i, j]:
            raise ForbiddenTransitionError(f"transition {i.name} -> {j.name} is blocked")
        # fields are named by the pair's states in index order, and the
        # energy is positive in the direction of rising index
        value = getattr(self, f"omega_{min(i, j).name}{max(i, j).name}".lower())
        return value if i < j else -value


def eigenenergies(sys: SystemParams) -> dict[StateIndex, float]:
    """Eigenenergies of the four occupation states."""
    return {
        StateIndex.A: 0.0,
        StateIndex.B: sys.eps_b,
        StateIndex.C: sys.eps_u,
        StateIndex.D: sys.eps_b + sys.eps_u + sys.kappa,
    }


def transition_energies(sys: SystemParams) -> TransitionTable:
    """Energies of the four allowed transitions.

    omega_ab = eps_b and omega_ac = eps_u involve the empty partner dot;
    omega_cd = eps_b + kappa and omega_bd = eps_u + kappa are shifted by the
    occupied partner.  No clamping: omega_cd (or omega_bd) goes negative
    exactly when its linear form does.
    """
    ab, _, cd, _, ac, bd = _kernels.channel_energies(sys.eps_b, sys.eps_u, sys.kappa).tolist()
    return TransitionTable(omega_ab=ab, omega_ac=ac, omega_cd=cd, omega_bd=bd)


def fermi_plus(res: Reservoir, omega: float) -> float:
    """Occupation factor for a particle entering the system at energy omega.

    f+ = [1 + exp((omega - mu) * beta)]^-1, evaluated in a branch form that
    never overflows for large |beta * (omega - mu)|.
    """
    if not math.isfinite(omega):
        raise ValueError(f"transition energy must be finite, got {omega}")
    return float(_kernels.occupations(res.beta * (omega - res.mu))[0])


def fermi_minus(res: Reservoir, omega: float) -> float:
    """Hole factor for a particle leaving the system at energy omega.

    Complementary to the entering factor at the reversed energy:
    f-(omega) = 1 - f+(-omega) = [1 + exp((omega + mu) * beta)]^-1.
    """
    if not math.isfinite(omega):
        raise ValueError(f"transition energy must be finite, got {omega}")
    return float(_kernels.occupations(res.beta * (omega + res.mu))[0])
