"""Consensus on directed dynamic networks under stabilizing message adversaries.

Deterministic round-based simulation of a full-information consensus
protocol driven by root-component detection, together with checkers and
generators for the adversary classes it is designed for, and the named
counterexample executions that pin down its termination-time bounds.
"""

from .adversary import (
    CHECKS,
    AdversaryCertificate,
    AdversaryParams,
    Verdict,
    check_alt_estable,
    check_estable,
    check_liveness,
    check_mad,
    check_safety,
    diagnose,
    generate_alt_estable,
    generate_estable,
)
from .approximation import (
    Message,
    NodeState,
    evidence,
    init_states,
    make_message,
    receive_and_merge,
)
from .consensus import CoreStepOutcome, core_step
from .graphs import (
    CommGraph,
    LassoSequence,
    causal_past,
    check_dynamic_diameter,
    lasso,
    lasso_from_json,
    lasso_to_json,
    maximal_root_runs,
    root_components,
    single_rooted_rounds,
    validate_graph,
)
from .harness import (
    OracleReport,
    Run,
    RunConfig,
    fuzz_campaign,
    indistinguishable,
    oracle_check,
    run_execution,
    scenario_eps_pair,
    scenario_hop_fallacy,
    scenario_stab_not_enough,
)

__all__ = [name for name in dir() if not name.startswith("_")]
