"""Bounded compatibility checking for asynchronous message-passing protocols.

Describe each participant of a protocol by a local type, and this
package answers whether the whole ensemble can run over FIFO queues without
anyone deadlocking or any message going unread -- and if so, how much queue
capacity accounts for every behaviour.  See `check_kmc` for the entry point,
`parse_system` for the textual format, and `simulate`/`replay` for running
and validating executions.
"""
import types as _types

from .checker import (
    CheckOutcome,
    CheckStats,
    EventualReceptionViolation,
    Inconclusive,
    ProgressViolation,
    Safe,
    Unsafe,
    Verdict,
    Violation,
    check_exhaustive,
    check_kmc,
    check_kmc_detailed,
    check_safety,
    extract_trace,
)
from .dot import machine_to_dot
from .dsl import (
    DslError,
    ParseError,
    SourceSpan,
    ValidationError,
    parse_system,
)
from .model import (
    Action,
    Branch,
    Choice,
    Diagnostic,
    Direction,
    DuplicateBranch,
    End,
    LocalType,
    LocalTypeError,
    Machine,
    MixedChoice,
    RecBinder,
    RecVar,
    Severity,
    System,
    UnboundVariable,
    UnguardedRecursion,
    local_type_to_machine,
    receive,
    send,
    validate_system,
)
from .semantics import (
    BoundedGraph,
    Configuration,
    HopelessSend,
    ResourceExhausted,
    Step,
    apply_step,
    build_bounded_graph,
    enabled_steps,
    initial_configuration,
)
from .simulator import (
    Outcome,
    ReplayError,
    RunResult,
    format_trace,
    is_terminated,
    parse_trace,
    replay,
    simulate,
)

# importing a name from a submodule binds the submodule too; a star import takes none
__all__ = [name for name, value in sorted(globals().items())
           if not name.startswith("_") and not isinstance(value, _types.ModuleType)]
__version__ = "0.1.0"
