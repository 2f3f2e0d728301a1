"""Phonon blockade in a resonantly coupled resonator-qubit system.

Steady-state Lindblad dynamics, second-order phonon correlations,
closed-form drive optima, and optomechanical readout equivalence, with a
parameter-sweep engine and CLI that regenerate publication-style figure data.
"""

__version__ = "0.1.0"

from .analytics import (
    EffectiveMechParams,
    OptimalRoots,
    PerturbativeAmplitudes,
    device_preset,
    effective_mech_params,
    no_qubit_drive_optimum,
    optimal_coefficients,
    optimal_drive_roots,
    perturbative_amplitudes,
    quadratic_residual,
    thermal_occupation,
    two_drive_settings,
    with_two_drive_optimum,
)
from .correlations import g2_tau, g2_zero, mean_occupation
from .errors import (
    ConfigError,
    EvolutionError,
    NumericalError,
    ParameterError,
    PhonoblockError,
    SingularSystemError,
    SpaceMismatchError,
    StateValidityError,
    SteadyStateError,
    SweepError,
    UnpopulatedModeError,
)
from .hilbert import (
    DensityMatrix,
    HilbertSpace,
    Operator,
    basis_ket,
    check_state,
    expectation,
    fock_dm,
    identity,
    lowering,
    make_space,
    number,
    raising,
)
from .model import (
    DetectionParams,
    MqParams,
    build_h_mq,
    build_h_total,
    collapse_ops,
    dressed_spectrum,
    three_mode_space,
    two_mode_space,
)
from .solver import Liouvillian, evolve, steady_state
from .sweep import (
    SweepResult,
    SweepSpec,
    figure_panels,
    run_sweep,
    solve_point,
)

__all__ = [name for name in dir() if not name.startswith("_")]
