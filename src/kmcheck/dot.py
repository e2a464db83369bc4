"""Graphviz DOT rendering of a system's machines."""
from __future__ import annotations

from .model import Machine

_KEYWORDS = frozenset(("node", "edge", "graph", "digraph", "subgraph", "strict"))


def machine_to_dot(role: str, machine: Machine) -> str:
    """One `digraph` for one role's machine.

    Output is byte-stable: states in numeric order, edges in declaration
    order.  The initial state is pointed at from a point-shaped pseudo-node
    and terminal states are drawn with a double border.
    """
    # DOT reserves its keywords in any case; a role named like one is quoted
    name = f'"{role}"' if role.lower() in _KEYWORDS else role
    lines = [
        f"digraph {name} {{",
        "  rankdir=LR;",
        "  __start [shape=point];",
        f"  __start -> s{machine.initial};",
    ]
    for state in sorted(machine.states):
        shape = "doublecircle" if machine.is_terminal(state) else "circle"
        lines.append(f'  s{state} [shape={shape}, label="{state}"];')
    for src, action, dst in machine.transitions:
        label = str(action).replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  s{src} -> s{dst} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"

