"""Static data race detection driven by history digests, with a bounded
concrete-semantics oracle for validating every abstraction."""

from .detector import BESPOKE, GENERIC, RaceReport, ablate, detect
from .digest import (
    ArityMismatch,
    ConfigError,
    Digest,
    MhpVerdict,
    ProductDigest,
    check_access_stability,
    check_admissibility,
    check_mhp_commutativity,
    check_view_exactness,
    generic_mhp,
)
from .digests import CANONICAL_ORDER, MUTANTS, build_digests
from .dsl import DslSyntaxError, parse_program, print_program
from .model import (
    Action,
    Edge,
    Program,
    ThreadPrototype,
    ValidationError,
    access_sites,
    atomicity_mutex,
    instrument_atomicity,
)
from .oracle import (
    LocalTrace,
    RacePair,
    TraceSet,
    bidirectionally_compatible,
    enumerate_traces,
    find_racy_pairs,
    spawn,
    trace_step_local,
    trace_step_observing,
)
from .solver import (
    AccessRecord,
    ConstraintSystem,
    Solution,
    SolverDivergence,
    build_system,
    solve,
    verify_postfixpoint,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
