"""Rotating-frame Hamiltonians and collapse operators.

Two systems are assembled here. The two-mode system couples a nanomechanical
resonator (NAMR) to a qubit on resonance, with coherent drives on both; the
three-mode system adds a readout cavity coupled to the NAMR by a linearized
beam-splitter interaction. Both drives share one frequency, so a single
detuning ``delta`` parameterizes the rotating frame. All rates and couplings
are expected in a common unit (conventionally the qubit damping ``kappa``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Mapping

import numpy as np

from .errors import ParameterError
from .hilbert import HilbertSpace, Operator, lowering, make_space

DEFAULT_MECH_CUTOFF = 8
DEFAULT_MECH_CUTOFF_THREE_MODE = 6
DEFAULT_CAVITY_CUTOFF = 3


def wrap_phase(phi: float) -> float:
    """Wrap an angle to the interval (-pi, pi]; an angle already there is
    returned unchanged, since the modular arithmetic can move it by an ulp."""
    if -math.pi < phi <= math.pi:
        return phi
    w = (phi + math.pi) % (2.0 * math.pi) - math.pi
    if w == -math.pi:
        w = math.pi
    return w


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value}")


def _require_nonneg(name: str, value: float) -> None:
    _require_finite(name, value)
    if value < 0:
        raise ParameterError(f"{name} must be >= 0, got {value}")


def _require_positive(name: str, value: float) -> None:
    _require_finite(name, value)
    if value <= 0:
        raise ParameterError(f"{name} must be > 0, got {value}")


def _param(default: float, help_text: str):
    """A model field whose help text also serves the CLI flag of the same name."""
    return field(default=default, metadata={"help": help_text})


@dataclass(frozen=True)
class MqParams:
    """Rotating-frame parameters of the driven NAMR-qubit system.

    Attributes
    ----------
    delta : float
        Detuning of qubit and NAMR from the shared drive frequency.
    j : float
        NAMR-qubit coupling strength.
    eps : float
        Mechanical drive amplitude.
    omega_drv : float
        Qubit drive amplitude.
    phi : float
        Phase of the qubit drive relative to the mechanical drive,
        wrapped to (-pi, pi] on construction.
    kappa, gamma : float
        Qubit and NAMR energy damping rates.
    n_th : float
        Thermal occupation shared by the qubit and NAMR baths (resonant
        condition makes the two occupations equal).
    """

    delta: float = _param(0.0, "detuning from the shared drive frequency")
    j: float = _param(0.0, "resonator-qubit coupling")
    eps: float = _param(0.0, "mechanical drive amplitude")
    omega_drv: float = _param(0.0, "qubit drive amplitude")
    phi: float = _param(0.0, "qubit drive phase (rad)")
    kappa: float = _param(1.0, "qubit damping rate")
    gamma: float = _param(1.0, "resonator damping rate")
    n_th: float = _param(0.0, "thermal bath occupation")

    def __post_init__(self) -> None:
        _require_finite("delta", self.delta)
        _require_nonneg("j", self.j)
        _require_nonneg("eps", self.eps)
        _require_nonneg("omega_drv", self.omega_drv)
        _require_finite("phi", self.phi)
        _require_positive("kappa", self.kappa)
        _require_positive("gamma", self.gamma)
        _require_nonneg("n_th", self.n_th)
        object.__setattr__(self, "phi", wrap_phase(self.phi))


@dataclass(frozen=True)
class DetectionParams:
    """Two-mode parameters plus the linearized readout cavity.

    ``g_om`` is the effective optomechanical coupling (complex in general);
    ``gamma_cav`` is the cavity damping rate. The cavity detuning equals the
    shared ``delta`` of the base parameters, and its bath is at zero
    temperature.
    """

    base: MqParams = field(default_factory=MqParams)
    g_om: complex = _param(0.1, "readout coupling |G|")
    gamma_cav: float = _param(10.0, "cavity damping rate")

    def __post_init__(self) -> None:
        _require_positive("gamma_cav", self.gamma_cav)
        g = complex(self.g_om)
        if not (math.isfinite(g.real) and math.isfinite(g.imag)):
            raise ParameterError(f"g_om must be finite, got {g}")
        object.__setattr__(self, "g_om", g)


def flat_params(p: MqParams | DetectionParams) -> dict[str, float | complex]:
    """Field -> value map, two-mode fields first, then the readout fields: the
    schema of config files, CLI flags, sweep axes and run metadata."""
    if isinstance(p, DetectionParams):
        readout = {f.name: getattr(p, f.name) for f in fields(p) if f.name != "base"}
        return {**flat_params(p.base), **readout}
    return {f.name: getattr(p, f.name) for f in fields(p)}


def with_flat_updates(
    p: MqParams | DetectionParams, updates: Mapping[str, float | complex]
) -> MqParams | DetectionParams:
    """Apply flat field updates, routing each name to ``base`` or the readout level."""
    if not isinstance(p, DetectionParams):
        return replace(p, **updates)
    base_updates = {k: v for k, v in updates.items() if hasattr(p.base, k)}
    readout_updates = {k: v for k, v in updates.items() if k not in base_updates}
    return replace(p, base=replace(p.base, **base_updates), **readout_updates)


def device_preset() -> MqParams:
    """Parameters of a demonstrated GHz NAMR-phase-qubit device, in units of the
    qubit damping rate: a 6 GHz resonator resonant with the qubit, at 25 mK."""
    from .analytics import thermal_occupation

    kappa_hz = 9e6
    return MqParams(
        delta=0.0,
        j=124e6 / kappa_hz,
        eps=0.01,
        omega_drv=0.0,
        phi=0.0,
        kappa=1.0,
        gamma=26e6 / kappa_hz,
        n_th=thermal_occupation(6e9, 0.025),
    )


# Factor labels in Kronecker order; every builder requires exactly these.
_TWO_MODE_LABELS = ("m", "q")  # NAMR, qubit
_THREE_MODE_LABELS = ("a", "m", "q")  # readout cavity, NAMR, qubit


def two_mode_space(mech_cutoff: int = DEFAULT_MECH_CUTOFF) -> HilbertSpace:
    """Mechanical mode (label ``m``) tensor qubit (label ``q``)."""
    return make_space(zip(_TWO_MODE_LABELS, (mech_cutoff, "qubit")))


def three_mode_space(
    cavity_cutoff: int = DEFAULT_CAVITY_CUTOFF,
    mech_cutoff: int = DEFAULT_MECH_CUTOFF_THREE_MODE,
) -> HilbertSpace:
    """Cavity (``a``) tensor mechanical mode (``m``) tensor qubit (``q``)."""
    return make_space(zip(_THREE_MODE_LABELS, (cavity_cutoff, mech_cutoff, "qubit")))


def _number_sum(o: Mapping[str, Operator]) -> Operator:
    """Summed number operator of every mode, so delta scales each diagonal
    entry by one rounded product."""
    first, *rest = o.values()
    n_total = first.dag() @ first
    for op in rest:
        n_total = n_total + op.dag() @ op
    return n_total


def _drive(f: Mapping[str, float]) -> complex:
    return f["omega_drv"] * np.exp(-1j * f["phi"])


# Term tables: each entry pairs a real coefficient, read from the flat field
# map of flat_params, with a generator built from the lowering operators by
# label. A Hamiltonian term adds coefficient * generator to H; a channel is a
# Lindblad jump operator at rate coefficient. No two H terms of a model share
# a matrix entry (the Re/Im pairs fill the real and imaginary parts), so every
# entry of H is one rounded product; the Liouvillian basis in
# phonoblock.solver relies on this to match the Kronecker builder bit for bit.
#
# H = delta (sigma+ sigma- + b'b) + j (sigma+ b + b' sigma-)
#     + (omega_drv e^{-i phi} sigma+ + eps b' + h.c.)
_TWO_MODE_H = (
    (lambda f: f["delta"], _number_sum),
    (lambda f: f["j"], lambda o: o["q"].dag() @ o["m"] + o["m"].dag() @ o["q"]),
    (lambda f: _drive(f).real, lambda o: o["q"].dag() + o["q"]),
    (lambda f: _drive(f).imag, lambda o: 1j * (o["q"].dag() - o["q"])),
    (lambda f: f["eps"], lambda o: o["m"].dag() + o["m"]),
)
# the shared thermal bath on the NAMR (m) and the qubit (q)
_TWO_MODE_CHANNELS = (
    (lambda f: f["gamma"] * (f["n_th"] + 1.0), lambda o: o["m"]),
    (lambda f: f["gamma"] * f["n_th"], lambda o: o["m"].dag()),
    (lambda f: f["kappa"] * (f["n_th"] + 1.0), lambda o: o["q"]),
    (lambda f: f["kappa"] * f["n_th"], lambda o: o["q"].dag()),
)
# readout: g_om a'b + conj(g_om) a b' (delta a'a comes with the number sum)
# and a zero-temperature cavity (a) decay
_READOUT_H = (
    (lambda f: f["g_om"].real, lambda o: o["a"].dag() @ o["m"] + o["a"] @ o["m"].dag()),
    (lambda f: f["g_om"].imag, lambda o: 1j * (o["a"].dag() @ o["m"] - o["a"] @ o["m"].dag())),
)
_READOUT_CHANNELS = ((lambda f: f["gamma_cav"], lambda o: o["a"]),)

# factor labels -> (Hamiltonian terms, channels)
_MODELS = {
    _TWO_MODE_LABELS: (_TWO_MODE_H, _TWO_MODE_CHANNELS),
    _THREE_MODE_LABELS: (_TWO_MODE_H + _READOUT_H, _TWO_MODE_CHANNELS + _READOUT_CHANNELS),
}


def term_coefficients(
    p: MqParams | DetectionParams, space: HilbertSpace
) -> tuple[list[float], list[float]]:
    """The params' Hamiltonian coefficients and channel rates, in the order of
    :func:`term_generators` on ``space``; a space of another model raises."""
    labels = _THREE_MODE_LABELS if isinstance(p, DetectionParams) else _TWO_MODE_LABELS
    if space.labels != labels:
        raise ParameterError(f"model needs factors labelled {labels}, got {space!r}")
    f = flat_params(p)
    h_terms, channels = _MODELS[labels]
    return [c(f) for c, _ in h_terms], [rate(f) for rate, _ in channels]


def term_generators(space: HilbertSpace) -> tuple[list[Operator], list[Operator]]:
    """Hamiltonian generators and jump operators of the model whose labels
    ``space`` carries, in table order; other labels raise ParameterError."""
    if space.labels not in _MODELS:
        raise ParameterError(f"no model has the factor labels of {space!r}")
    h_terms, channels = _MODELS[space.labels]
    ops = {label: lowering(space, label) for label in space.labels}
    return [g(ops) for _, g in h_terms], [op(ops) for _, op in channels]


def build_h_mq(p: MqParams | DetectionParams, space: HilbertSpace) -> Operator:
    """Rotating-frame Hamiltonian of the params' model: each term coefficient
    times its generator on ``space``, summed in table order. Two-mode:

    H = delta (sigma+ sigma- + b'b) + j (sigma+ b + b' sigma-)
        + (omega_drv e^{-i phi} sigma+ + eps b' + h.c.)
    """
    coefficients, _ = term_coefficients(p, space)
    generators, _ = term_generators(space)
    h, *rest = [c * g for c, g in zip(coefficients, generators)]
    for term in rest:
        h = h + term
    return h


def build_h_total(p: DetectionParams, space: HilbertSpace) -> Operator:
    """Alias of :func:`build_h_mq`, named for the three-mode model.

    :func:`build_h_mq` sums whichever term table the params select; for
    three-mode params that adds delta a'a + (g_om a'b + conj(g_om) a b') to
    the two-mode terms. The cavity detuning is tied to the shared rotating
    frame.
    """
    return build_h_mq(p, space)


def collapse_ops(
    p: MqParams | DetectionParams, space: HilbertSpace
) -> list[tuple[float, Operator]]:
    """Thermal Lindblad channels as (rate, operator) pairs.

    Mechanical and qubit channels carry the shared bath occupation; the
    cavity channel (three-mode only) is a plain decay at rate ``gamma_cav``.
    Zero-rate entries are omitted.
    """
    _, rates = term_coefficients(p, space)
    _, jumps = term_generators(space)
    return [(rate, op) for rate, op in zip(rates, jumps) if rate > 0.0]


def model_cutoffs(
    p: MqParams | DetectionParams,
    mech_cutoff: int | None = None,
    cavity_cutoff: int | None = None,
) -> tuple[int, int | None]:
    """(mech, cavity) truncations of the params' model, cavity None for the
    two-mode model; a cutoff left as None takes its default, and a
    ``cavity_cutoff`` for the two-mode model, which has no cavity, raises."""
    if isinstance(p, DetectionParams):
        return (DEFAULT_MECH_CUTOFF_THREE_MODE if mech_cutoff is None else mech_cutoff,
                DEFAULT_CAVITY_CUTOFF if cavity_cutoff is None else cavity_cutoff)
    if cavity_cutoff is not None:
        raise ParameterError(f"cavity_cutoff = {cavity_cutoff} needs the three-mode model")
    return DEFAULT_MECH_CUTOFF if mech_cutoff is None else mech_cutoff, None


def model_space(
    p: MqParams | DetectionParams,
    mech_cutoff: int | None = None,
    cavity_cutoff: int | None = None,
) -> HilbertSpace:
    """Space of the params' model at the truncations of :func:`model_cutoffs`."""
    mech, cavity = model_cutoffs(p, mech_cutoff, cavity_cutoff)
    return two_mode_space(mech) if cavity is None else three_mode_space(cavity, mech)


def dressed_spectrum(j: float, delta: float, n_max: int) -> list[tuple[int, float, float]]:
    """Eigenvalues of the undriven resonant system per excitation manifold.

    The n-excitation manifold splits into E(n, +/-) = n delta +/- sqrt(n) j;
    the ground state sits at zero.
    """
    if n_max < 1:
        raise ParameterError(f"n_max must be >= 1, got {n_max}")
    return [
        (n, n * delta + math.sqrt(n) * j, n * delta - math.sqrt(n) * j)
        for n in range(1, n_max + 1)
    ]


def with_two_drive_optimum(
    p: MqParams | DetectionParams, delta_opt: float, branch: str = "+"
) -> MqParams | DetectionParams:
    """Replace the qubit-drive settings by the interference optimum.

    The drive ratio and phase are taken from the closed-form roots at
    (delta_opt, j) for the params' damping rates; ``branch`` picks the root.
    The detuning itself is left untouched. Three-mode params get the optimum
    of their two-mode base.
    """
    from .analytics import two_drive_settings

    if isinstance(p, DetectionParams):
        return replace(p, base=with_two_drive_optimum(p.base, delta_opt, branch))
    omega, phi = two_drive_settings(delta_opt, p.j, p.kappa, p.gamma, p.eps, branch)
    return replace(p, omega_drv=omega, phi=phi)


def resolve_params(
    p: MqParams | DetectionParams,
    updates: Mapping[str, float | complex],
    delta_opt: float | None = None,
    branch: str = "+",
) -> MqParams | DetectionParams:
    """The params of one run or sweep point: the flat ``updates`` applied, then,
    when ``delta_opt`` is set, the qubit drive of the interference optimum."""
    p = with_flat_updates(p, updates)
    return p if delta_opt is None else with_two_drive_optimum(p, delta_opt, branch)
