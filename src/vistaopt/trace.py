"""The semantic trace tree: every proposal (accepted and rejected) recorded
with its root-cause label and accuracy gain, plus trajectory extraction,
oscillation detection, and JSON/DOT export.

Rejected proposals are recorded as leaf nodes even though only accepted
rounds grow the optimization path; auditability favours keeping everything,
and the accepted-edge subgraph retains the one-node-per-successful-round
shape.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Annotated, Iterable, Sequence

from .artifacts import json_text
from .domain import Range, read_record, record_dict
from .errors import DuplicateNodeError, UnknownNodeError, UnknownParentError

ACCEPTED = "accepted"
REJECTED = "rejected"


@dataclass(frozen=True)
class TraceNode:
    id: int
    val_accuracy: Annotated[float, Range(minimum=0, maximum=1)] | None = None
    correct_count: Annotated[int, Range(minimum=0)] | None = None
    minibatch_size: Annotated[int, Range(minimum=0)] | None = None

    def __post_init__(self):
        if None not in (self.correct_count, self.minibatch_size) and (
                self.correct_count > self.minibatch_size):
            raise ValueError(f"correct_count {self.correct_count} exceeds "
                             f"minibatch_size {self.minibatch_size}")

    def display_accuracy(self) -> str:
        if self.val_accuracy is not None:
            return f"{round(self.val_accuracy * 100)}%"
        if self.correct_count is not None and self.minibatch_size is not None:
            return f"{self.correct_count}/{self.minibatch_size}"
        return "?"


@dataclass(frozen=True)
class TraceEdge:
    from_id: int | None = field(metadata={"json": "from"})  # None marks a restart root event
    to_id: int = field(metadata={"json": "to"})
    label: str
    delta_minibatch: int
    status: Annotated[str, Range(enum=(ACCEPTED, REJECTED))]
    iteration: int
    origin: str  # heuristic | free | blank | fallback
    delta_val_pp: float | None = None

    def __post_init__(self):
        if self.status == ACCEPTED and self.delta_val_pp is None:
            raise ValueError("accepted edges must carry delta_val_pp")


@dataclass
class SemanticTraceTree:
    """Forest rooted at the seed plus any restart roots; coordinator-only
    mutation, exports operate on immutable snapshots."""

    root: int
    nodes: dict[int, TraceNode] = field(default_factory=dict)
    edges: list[TraceEdge] = field(default_factory=list)
    # to_id -> the first edge into that node, so trajectory walks in O(depth).
    _incoming: dict[int, TraceEdge] = field(init=False, default_factory=dict,
                                            compare=False, repr=False)

    @classmethod
    def with_root(cls, node: TraceNode) -> "SemanticTraceTree":
        tree = cls(root=node.id)
        tree.nodes[node.id] = node
        return tree

    def record_proposal(self, edge: TraceEdge, node: TraceNode) -> None:
        """Append one proposal; the target node is created by the edge, and
        has a ``val_accuracy`` iff the edge is accepted (only winners are gated)."""
        if node.id != edge.to_id:
            raise ValueError("edge target and node id disagree")
        if edge.to_id in self.nodes:
            raise DuplicateNodeError(f"node {edge.to_id} already recorded")
        if edge.from_id is not None:
            if edge.from_id not in self.nodes:
                raise UnknownParentError(f"parent {edge.from_id} not in tree")
            incoming = self._incoming.get(edge.from_id)
            if incoming is not None and incoming.status == REJECTED:
                raise UnknownParentError(
                    f"parent {edge.from_id} is a rejected leaf")
        if (edge.status == ACCEPTED) != (node.val_accuracy is not None):
            raise ValueError("a target has a val_accuracy iff its edge is accepted")
        self.nodes[node.id] = node
        self.edges.append(edge)
        self._incoming.setdefault(edge.to_id, edge)

    def trajectory(self, node_id: int) -> list[TraceEdge]:
        """Edges along the unique path from the node's root; empty for
        roots.  Only the last edge can be rejected, since rejected targets
        stay leaves."""
        if node_id not in self.nodes:
            raise UnknownNodeError(f"node {node_id} not in tree")
        path: list[TraceEdge] = []
        current = node_id
        while True:
            incoming = self._incoming.get(current)
            if incoming is None or incoming.from_id is None:
                break
            path.append(incoming)
            current = incoming.from_id
        path.reverse()
        return path

    def accepted_edges(self) -> list[TraceEdge]:
        return [e for e in self.edges if e.status == ACCEPTED]

    # ------------------------------------------------------------- export

    def to_dict(self) -> dict:
        return {
            "root": self.root,
            "nodes": [record_dict(n) for n in self.nodes.values()],
            "edges": [record_dict(e) for e in self.edges],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SemanticTraceTree":
        """Rebuild the tree as a run builds it, from the root and then each
        edge in order through ``record_proposal``, so an imported tree holds
        the same invariants; each node must be the root or an edge's target.
        Nodes and edges are read through ``read_record``, and an edge's
        rejection is a ValueError naming the edge."""
        listed = [read_record(TraceNode, n) for n in data["nodes"]]
        nodes = {node.id: node for node in listed}
        if data["root"] not in nodes:
            raise ValueError(f"root {data['root']!r} is not among the nodes")
        tree = cls.with_root(nodes[data["root"]])
        for index, e in enumerate(data["edges"]):
            try:
                edge = read_record(TraceEdge, e)
                if edge.to_id not in nodes:
                    raise ValueError(f"target {edge.to_id} is not among the nodes")
                tree.record_proposal(edge, nodes[edge.to_id])
            except (DuplicateNodeError, UnknownParentError, LookupError, TypeError,
                    ValueError) as exc:
                raise ValueError(f"edge {index}: {type(exc).__name__}: {exc}") from exc
        if len(listed) != len(tree.nodes):
            stray = [node.id for node in listed if node.id not in tree.nodes]
            raise ValueError(f"nodes listed twice or created by no edge: {stray}")
        return tree

    def to_dot(self) -> str:
        lines = ["digraph trace {", "  rankdir=TB;", "  node [shape=circle];"]
        rejected_targets = {e.to_id for e in self.edges if e.status == REJECTED}
        for node in self.nodes.values():
            style = ', style=dashed' if node.id in rejected_targets else ""
            lines.append(f'  "{node.id}" [label="{node.id}\\n{node.display_accuracy()}"{style}];')
        for e in self.edges:
            if e.from_id is None:
                continue
            # Taxonomy ids come from outside input; free labels are slugified.
            label = e.label.replace("\\", "\\\\").replace('"', '\\"')
            if e.status == ACCEPTED:
                label = f"{label} {e.delta_val_pp:+g}pp"
                style = ""
            else:
                style = ", style=dashed"
            lines.append(f'  "{e.from_id}" -> "{e.to_id}" [label="{label}"{style}];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def export_tree(tree: SemanticTraceTree, fmt: str) -> str:
    if fmt == "json":
        return json_text(tree.to_dict())
    if fmt == "dot":
        return tree.to_dot()
    raise ValueError(f"unknown export format {fmt!r}")


def import_tree(text: str) -> SemanticTraceTree:
    return SemanticTraceTree.from_dict(json.loads(text))


def _labels(trajectory: Sequence) -> list[str]:
    return [e.label if isinstance(e, TraceEdge) else str(e) for e in trajectory]


def detect_oscillation(trajectory: Sequence, window: int = 4) -> tuple[str, str] | None:
    """Return (A, B) iff the last ``window`` accepted labels alternate
    A,B,A,B,... with A != B and no edge in the window carries the joint
    label A+B.  Pure function of the label sequence."""
    if window < 4 or window % 2 != 0:
        raise ValueError("window must be an even integer >= 4")
    labels = _labels(trajectory)
    if len(labels) < window:
        return None
    tail = labels[-window:]
    a, b = tail[0], tail[1]
    if a == b:
        return None
    expected = [a if i % 2 == 0 else b for i in range(window)]
    if tail != expected:
        return None
    joint = {f"{a}+{b}", f"{b}+{a}"}
    if any(lbl in joint for lbl in tail):
        return None
    return a, b


def trajectory_context_block(trajectory: Iterable[TraceEdge]) -> str:
    """Compact text block handed to the hypothesis agent, one line per
    accepted edge."""
    lines = []
    for e in trajectory:
        if e.status != ACCEPTED:
            continue
        lines.append(f"round {e.iteration}: {e.label} (Δval={e.delta_val_pp:+g}pp)")
    return "\n".join(lines)
