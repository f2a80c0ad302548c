"""Simulator for multiport entangled-state discrimination, qudit
teleportation, and measurement-device-independent QKD key-rate analysis."""

from .discrimination import (
    INCONCLUSIVE,
    POSTSELECT_FAIL,
    DetectionPattern,
    DiscriminationOutcome,
    ParityModel,
    build_classifier,
    derive_rng,
    detect_distribution,
    parity_postselect,
)
from .errors import (
    AmbiguousPattern,
    DomainError,
    IndexOutOfRange,
    InvalidDimension,
    NoRoot,
    OverlappingModes,
    PortMismatch,
)
from .fock import (
    VACUUM,
    FockBasisState,
    ModeLabel,
    PureState,
    apply_creation,
    apply_phases,
    inner_product,
    partial_project,
    phase_aligned_distance,
    state_to_json,
    states_equal_up_to_global_phase,
    superpose,
    tensor,
)
from .keyrate import (
    KeyRateRow,
    SiftedSetup,
    crossover_q,
    eta_threshold,
    keyrate_table,
    r3,
    r_d,
    rate_per_signal,
    shannon_entropy,
    sifted_rate,
)
from .optics import (
    BeamSplitter,
    ElementNetwork,
    ModeUnitary,
    PhaseShifter,
    apply_mode_unitary,
    build_dft,
    decompose_dft,
    recompose,
    unitaries_equal_up_to_global_phase,
)
from .protocols import (
    CorrectionOp,
    NoiseConfig,
    QkdRunResult,
    TeleportTarget,
    apply_correction,
    edp_shared_state,
    mdi_qkd_expectation,
    mdi_qkd_run,
    teleport_analysis,
    teleport_run,
)
from .states import build_alice_pair, build_minor, build_phi, build_psi, mub_state

__version__ = "0.1.0"
