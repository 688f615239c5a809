"""becsim: feedback-based XOR coding over the N-user broadcast erasure channel.

Queue network, coding/movement rules, max-weight scheduling, stability and
capacity region computations, plus a slotted-time simulator with invariant
monitors.
"""

__version__ = "0.1.0"

from .channel import (
    ArrivalModel,
    ErasureModel,
    epsilon_g,
    make_rng,
    sample_arrivals,
    sample_reception,
)
from .coding import (
    FULL,
    TABLE8,
    ControlCatalog,
    ControlSpec,
    enumerate_controls,
)
from .core import (
    ConfigError,
    MonitorViolation,
    NativePacketId,
    NetworkState,
    QueueIndex,
    RealPacket,
    Token,
    UserSet,
    audit_state,
    validate_cc,
)
from .movement import (
    MovementPlan,
    ReceptionOutcome,
    RpmCase,
    apply_rpm,
)
from .regions import (
    DegenerateChannelError,
    FlowCertificate,
    InfeasibleRateError,
    LinearIneq,
    Polyhedron,
    build_flow_polyhedron,
    build_phi_4user,
    capacity_gap,
    feasibility_check,
    fm_eliminate,
    outer_bound_margin,
    simplify_inequalities,
)
from .scheduler import (
    DELIVERED,
    TransitionTable,
    derive_transitions,
)
from .sim import (
    RunResult,
    SimConfig,
    SlotMetrics,
    run,
    stability_probe,
    summarize,
)

__all__ = [
    "ArrivalModel",
    "ConfigError",
    "ControlCatalog",
    "ControlSpec",
    "DELIVERED",
    "DegenerateChannelError",
    "ErasureModel",
    "FULL",
    "FlowCertificate",
    "InfeasibleRateError",
    "LinearIneq",
    "MonitorViolation",
    "MovementPlan",
    "NativePacketId",
    "NetworkState",
    "Polyhedron",
    "QueueIndex",
    "RealPacket",
    "ReceptionOutcome",
    "RpmCase",
    "RunResult",
    "SimConfig",
    "SlotMetrics",
    "TABLE8",
    "Token",
    "TransitionTable",
    "UserSet",
    "apply_rpm",
    "audit_state",
    "build_flow_polyhedron",
    "build_phi_4user",
    "capacity_gap",
    "derive_transitions",
    "enumerate_controls",
    "epsilon_g",
    "feasibility_check",
    "fm_eliminate",
    "make_rng",
    "outer_bound_margin",
    "run",
    "sample_arrivals",
    "sample_reception",
    "simplify_inequalities",
    "stability_probe",
    "summarize",
    "validate_cc",
    "__version__",
]
