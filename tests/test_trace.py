import json
import random
from collections import deque

import pytest

from vistaopt.errors import DuplicateNodeError, UnknownNodeError, UnknownParentError
from vistaopt.trace import (
    ACCEPTED,
    REJECTED,
    SemanticTraceTree,
    TraceEdge,
    TraceNode,
    detect_oscillation,
    export_tree,
    import_tree,
    trajectory_context_block,
)

LABELS = ["cot_field_ordering", "task_instruction_clarity", "reasoning_strategy"]


def edge(from_id, to_id, label, status=ACCEPTED, iteration=1, delta=1, pp=2.0, origin="heuristic"):
    return TraceEdge(
        from_id=from_id, to_id=to_id, label=label, delta_minibatch=delta,
        status=status, iteration=iteration, origin=origin,
        delta_val_pp=pp if status == ACCEPTED else None)


def node(node_id, val=None, correct=None, size=8):
    return TraceNode(id=node_id, val_accuracy=val, correct_count=correct,
                     minibatch_size=size if correct is not None else None)


def seed_tree():
    return SemanticTraceTree.with_root(node(0, val=0.30))


def test_record_accepted_child():
    tree = seed_tree()
    tree.record_proposal(edge(0, 1, "cot_field_ordering", pp=48.0), node(1, val=0.78))
    assert tree.nodes[1].val_accuracy == 0.78
    assert tree.edges[0].delta_val_pp == 48.0


def test_record_rejected_leaf_stays_leaf():
    tree = seed_tree()
    tree.record_proposal(edge(0, 1, "task_instruction_clarity", status=REJECTED),
                         node(1, correct=2))
    with pytest.raises(UnknownParentError):
        tree.record_proposal(edge(1, 2, "reasoning_strategy"), node(2, val=0.5))


def test_record_needs_val_accuracy_exactly_on_accepted_targets():
    tree = seed_tree()
    with pytest.raises(ValueError, match="val_accuracy iff its edge is accepted"):
        tree.record_proposal(edge(0, 1, "cot_field_ordering"), node(1, correct=2))
    with pytest.raises(ValueError, match="val_accuracy iff its edge is accepted"):
        tree.record_proposal(edge(0, 1, "cot_field_ordering", status=REJECTED),
                             node(1, val=0.5, correct=2))
    assert tree.edges == [] and list(tree.nodes) == [0]


def test_node_correct_count_at_most_minibatch_size():
    assert node(1, correct=8).display_accuracy() == "8/8"
    with pytest.raises(ValueError, match="correct_count 9 exceeds minibatch_size 8"):
        node(1, correct=9)


def test_record_duplicate_node():
    tree = seed_tree()
    tree.record_proposal(edge(0, 1, "cot_field_ordering"), node(1, val=0.78))
    with pytest.raises(DuplicateNodeError):
        tree.record_proposal(edge(0, 1, "reasoning_strategy"), node(1, val=0.5))


def test_record_unknown_parent():
    tree = seed_tree()
    with pytest.raises(UnknownParentError):
        tree.record_proposal(edge(99, 1, "cot_field_ordering"), node(1, val=0.5))


def test_restart_root_edge():
    tree = seed_tree()
    tree.record_proposal(
        edge(None, 1, "none", origin="blank", pp=10.0), node(1, val=0.4))
    assert [e.from_id for e in tree.edges if e.to_id == 1] == [None]
    assert tree.trajectory(1) == []


def test_trajectory_root_empty():
    assert seed_tree().trajectory(0) == []


def test_trajectory_two_step_path():
    tree = seed_tree()
    tree.record_proposal(edge(0, 1, "cot_field_ordering", pp=48.0, iteration=1), node(1, val=0.78))
    tree.record_proposal(edge(1, 2, "reasoning_strategy", pp=6.0, iteration=2), node(2, val=0.84))
    path = tree.trajectory(2)
    assert [(e.label, e.delta_val_pp) for e in path] == [
        ("cot_field_ordering", 48.0), ("reasoning_strategy", 6.0)]


def test_trajectory_unknown_node():
    with pytest.raises(UnknownNodeError):
        seed_tree().trajectory(42)


def bfs_depths(tree):
    children = {}
    roots = [tree.root]
    for e in tree.edges:
        if e.from_id is None:
            roots.append(e.to_id)
        else:
            children.setdefault(e.from_id, []).append(e.to_id)
    depths = {}
    for root in roots:
        queue = deque([(root, 0)])
        while queue:
            nid, d = queue.popleft()
            depths[nid] = d
            for child in children.get(nid, ()):
                queue.append((child, d + 1))
    return depths


def random_tree(rng):
    tree = seed_tree()
    next_id = 1
    acceptable_parents = [0]
    for i in range(rng.randint(0, 20)):
        status = rng.choice([ACCEPTED, REJECTED])
        if rng.random() < 0.1:
            parent = None  # restart root
        else:
            parent = rng.choice(acceptable_parents)
        label = rng.choice(LABELS + ["none", "unlabeled", LABELS[0] + "+" + LABELS[1]])
        new_edge = TraceEdge(
            from_id=parent, to_id=next_id, label=label,
            delta_minibatch=rng.randint(-3, 6), status=status,
            iteration=i + 1, origin=rng.choice(["heuristic", "free", "blank", "fallback"]),
            delta_val_pp=round(rng.uniform(-20, 60), 6) if status == ACCEPTED else None)
        if status == ACCEPTED:
            new_node = node(next_id, val=round(rng.random(), 2))
            acceptable_parents.append(next_id)
        else:
            new_node = node(next_id, correct=rng.randint(0, 8))
        tree.record_proposal(new_edge, new_node)
        next_id += 1
    return tree


def test_trajectory_length_equals_bfs_depth():
    rng = random.Random(11)
    for _ in range(50):
        tree = random_tree(rng)
        depths = bfs_depths(tree)
        for nid in tree.nodes:
            assert len(tree.trajectory(nid)) == depths[nid]


def test_trajectory_prefix_stability():
    rng = random.Random(13)
    for _ in range(20):
        tree = random_tree(rng)
        for e in tree.accepted_edges():
            if e.from_id is None:
                continue
            parent_path = tree.trajectory(e.from_id)
            child_path = tree.trajectory(e.to_id)
            assert child_path[:len(parent_path)] == parent_path


def scan_trajectory(tree, node_id):
    """Reference: walk to the root, scanning every edge at each step."""
    path = []
    current = node_id
    while True:
        incoming = next((e for e in tree.edges if e.to_id == current), None)
        if incoming is None or incoming.from_id is None:
            return path[::-1]
        path.append(incoming)
        current = incoming.from_id


def test_trajectory_on_long_chain_matches_edge_scan():
    tree = seed_tree()
    for i in range(1, 2000):
        tree.record_proposal(edge(i - 1, i, LABELS[i % 3], iteration=i), node(i, val=0.5))
    tree.record_proposal(edge(1999, 2000, LABELS[0], status=REJECTED, iteration=2000),
                         node(2000, correct=3))
    reloaded = import_tree(export_tree(tree, "json"))
    assert reloaded == tree
    for t in (tree, reloaded):
        for nid in (0, 1, 2, 999, 1999, 2000):
            assert t.trajectory(nid) == scan_trajectory(t, nid)
    assert len(reloaded.trajectory(2000)) == 2000


def test_node_count_accounting():
    rng = random.Random(17)
    for _ in range(20):
        tree = random_tree(rng)
        assert len(tree.nodes) == 1 + len(tree.edges)


# ------------------------------------------------------------ oscillation

def test_oscillation_basic():
    assert detect_oscillation(["A", "B", "A", "B"], 4) == ("A", "B")


def test_oscillation_no_alternation():
    assert detect_oscillation(["A", "A", "B", "B"], 4) is None


def test_oscillation_joint_resolution_breaks_pattern():
    assert detect_oscillation(["A", "B", "A+B", "A"], 4) is None


def test_oscillation_window_validation():
    with pytest.raises(ValueError):
        detect_oscillation(["A", "B", "A"], 3)
    with pytest.raises(ValueError):
        detect_oscillation(["A", "B", "A", "B", "A"], 5)


def test_oscillation_short_sequence():
    assert detect_oscillation(["A", "B"], 4) is None


def brute_force_oscillation(labels, window):
    if len(labels) < window:
        return None
    tail = labels[-window:]
    for a in set(tail):
        for b in set(tail):
            if a == b:
                continue
            if tail == [a if i % 2 == 0 else b for i in range(window)]:
                if any(l in (f"{a}+{b}", f"{b}+{a}") for l in tail):
                    return None
                return (a, b)
    return None


def test_oscillation_exhaustive_matches_bruteforce():
    # all label sequences of length <= 6 over 3 labels
    alphabet = ["A", "B", "A+B"]
    sequences = [[]]
    for _ in range(6):
        sequences = [s + [l] for s in sequences for l in alphabet] + sequences
    seen = set()
    for seq in sequences:
        key = tuple(seq)
        if key in seen:
            continue
        seen.add(key)
        assert detect_oscillation(seq, 4) == brute_force_oscillation(seq, 4), seq


def test_oscillation_pure_function_of_labels():
    tree = seed_tree()
    labels = ["A", "B", "A", "B"]
    nid = 0
    for i, lbl in enumerate(labels):
        tree.record_proposal(
            edge(nid, nid + 1, lbl, iteration=i + 1, pp=float(i)), node(nid + 1, val=0.5))
        nid += 1
    assert detect_oscillation(tree.trajectory(nid), 4) == ("A", "B")


# ----------------------------------------------------------------- export

def test_export_import_round_trip_randomized():
    rng = random.Random(23)
    for _ in range(100):
        tree = random_tree(rng)
        assert import_tree(export_tree(tree, "json")) == tree


def edit_edge(index, **change):
    return lambda data: data["edges"][index].update(change)


def edit_node(index, **change):
    return lambda data: data["nodes"][index].update(change)


def add_node_from_rejected(data):
    data["nodes"].append({**data["nodes"][1], "id": 3})
    data["edges"].append({**data["edges"][0], "from": 2, "to": 3, "iteration": 3})


BROKEN_TRACES = {
    "unknown parent": (edit_edge(1, **{"from": 12345}), r"edge 1: UnknownParentError"),
    "rejected parent": (add_node_from_rejected, r"edge 2: UnknownParentError.*rejected"),
    "duplicate node": (edit_edge(1, to=1), r"edge 1: DuplicateNodeError"),
    "edge into the root": (edit_edge(0, to=0), r"edge 0: DuplicateNodeError"),
    "target not a node": (edit_edge(1, to=7), r"edge 1: ValueError: target 7"),
    "missing key": (lambda data: data["edges"][0].pop("label"), r"edge 0: KeyError"),
    "edge not an object": (lambda data: data["edges"].insert(0, 1), r"edge 0: TypeError"),
    "from a string": (edit_edge(0, **{"from": "0"}), r"edge 0: TypeError"),
    "to a float": (edit_edge(0, to=1.0), r"edge 0: TypeError"),
    "iteration a bool": (edit_edge(0, iteration=True), r"edge 0: TypeError"),
    "delta_minibatch a string": (edit_edge(0, delta_minibatch="1"), r"edge 0: TypeError"),
    "label not a string": (edit_edge(0, label=None), r"edge 0: TypeError"),
    "origin not a string": (edit_edge(0, origin=1), r"edge 0: TypeError"),
    "unknown status": (edit_edge(1, status="maybe"), r"edge 1: ValueError: status 'maybe'"),
    "unknown key": (edit_edge(0, weight=1), r"edge 0: ValueError: \['weight'\] are not keys"),
    "no delta_val_pp": (lambda data: data["edges"][1].pop("delta_val_pp"),
                        r"edge 1: KeyError: 'delta_val_pp'"),
    "delta_val_pp a string": (edit_edge(0, delta_val_pp="x"), r"edge 0: TypeError"),
    "delta_val_pp a bool": (edit_edge(0, delta_val_pp=True), r"edge 0: TypeError"),
    "accepted without delta_val_pp": (edit_edge(0, delta_val_pp=None),
                                      r"edge 0: ValueError: accepted edges"),
    "node no edge creates": (lambda data: data["nodes"].append({**data["nodes"][1], "id": 9}),
                             r"created by no edge: \[9\]"),
    "node listed twice": (lambda data: data["nodes"].append(data["nodes"][1]),
                          r"listed twice"),
    # Node values that no run writes.
    "correct_count over minibatch_size": (edit_node(2, correct_count=99),
                                          r"correct_count 99 exceeds minibatch_size 8"),
    "negative correct_count": (edit_node(2, correct_count=-1), r"correct_count -1 is not >= 0"),
    "val_accuracy over 1": (edit_node(1, val_accuracy=5.0), r"val_accuracy 5.0 is not <= 1"),
    "val_accuracy on a rejected target": (edit_node(2, val_accuracy=0.5),
                                          r"edge 1: ValueError: a target has a val_accuracy iff"),
    "accepted target without val_accuracy": (edit_node(1, val_accuracy=None),
                                             r"edge 0: ValueError: a target has a val_accuracy"),
}


@pytest.mark.parametrize("case", BROKEN_TRACES)
def test_import_rejects_what_a_run_cannot_record(case):
    """Import rebuilds the tree through ``record_proposal``, so it enforces the
    invariants of a live run, and checks each edge value's exact type."""
    tree = seed_tree()
    tree.record_proposal(edge(0, 1, "cot_field_ordering", pp=48.0), node(1, val=0.78))
    tree.record_proposal(edge(0, 2, "task_instruction_clarity", status=REJECTED),
                         node(2, correct=2))
    data = json.loads(export_tree(tree, "json"))
    assert SemanticTraceTree.from_dict(data) == tree
    edit, message = BROKEN_TRACES[case]
    edit(data)
    with pytest.raises(ValueError, match=message):
        SemanticTraceTree.from_dict(data)


def test_export_dot_root_only():
    dot = export_tree(seed_tree(), "dot")
    assert dot.count("->") == 0
    assert '"0" [label="0\\n30%"]' in dot


def test_export_dot_edge_labels_and_styles():
    tree = seed_tree()
    tree.record_proposal(edge(0, 1, "cot_field_ordering", pp=48.0), node(1, val=0.78))
    tree.record_proposal(edge(0, 2, "task_instruction_clarity", status=REJECTED),
                         node(2, correct=2))
    dot = export_tree(tree, "dot")
    assert "cot_field_ordering +48pp" in dot
    assert 'style=dashed' in dot
    assert '"2" [label="2\\n2/8", style=dashed]' in dot


def test_trajectory_context_block_format():
    tree = seed_tree()
    tree.record_proposal(edge(0, 1, "cot_field_ordering", pp=48.0, iteration=1), node(1, val=0.78))
    tree.record_proposal(edge(1, 2, "reasoning_strategy", pp=6.0, iteration=3), node(2, val=0.84))
    block = trajectory_context_block(tree.trajectory(2))
    assert block.splitlines() == [
        "round 1: cot_field_ordering (Δval=+48pp)",
        "round 3: reasoning_strategy (Δval=+6pp)",
    ]
