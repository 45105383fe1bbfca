"""Independent reference implementations the tests cross-check against.

These deliberately use different algorithms from the package: fixed-point
iteration for the ancestor closure, memoized top-down recursion for depths,
root-chain splicing for tree paths, central finite differences for
gradients, and per-row scalar loops for the model's forward pass.
"""
from __future__ import annotations

import math

import numpy as np


def closure_ancestors(parents: dict[str, list[str]], node: str) -> set[str]:
    """Reflexive-transitive closure over is_a edges by fixed-point iteration."""
    out = {node}
    changed = True
    while changed:
        changed = False
        for member in list(out):
            for parent in parents.get(member, ()):
                if parent not in out:
                    out.add(parent)
                    changed = True
    return out


def longest_path_to_root(parents: dict[str, list[str]], node: str,
                         _memo: dict[str, int] | None = None) -> int:
    """Length (in edges) of the longest upward path, by memoized recursion."""
    memo = _memo if _memo is not None else {}
    if node in memo:
        return memo[node]
    ps = parents.get(node, ())
    value = 0 if not ps else 1 + max(
        longest_path_to_root(parents, p, memo) for p in ps
    )
    memo[node] = value
    return value


def random_dag(rng: np.random.Generator, n_nodes: int, edge_prob: float = 0.15
               ) -> tuple[list[str], dict[str, list[str]]]:
    """Seeded single-root DAG: node i draws parents among nodes 0..i-1.

    Every non-root node gets one uniformly chosen parent so the graph is
    connected, plus each earlier node independently with `edge_prob`.
    """
    ids = [f"T:{i:07d}" for i in range(n_nodes)]
    parents: dict[str, list[str]] = {ids[0]: []}
    for i in range(1, n_nodes):
        chosen = {int(rng.integers(0, i))}
        for j in range(i):
            if rng.random() < edge_prob:
                chosen.add(j)
        parents[ids[i]] = [ids[j] for j in sorted(chosen)]
    return ids, parents


def dag_to_obo(ids: list[str], parents: dict[str, list[str]]) -> str:
    lines = ["format-version: 1.2", ""]
    for cid in ids:
        lines.append("[Term]")
        lines.append(f"id: {cid}")
        lines.append(f"name: node {cid}")
        for parent in parents[cid]:
            lines.append(f"is_a: {parent}")
        lines.append("")
    return "\n".join(lines)


def random_tree_heads(rng: np.random.Generator, n_tokens: int) -> dict[int, int]:
    """Random dependency tree as a 1-based token -> head map (0 = root)."""
    heads = {1: 0}
    for i in range(2, n_tokens + 1):
        heads[i] = int(rng.integers(1, i))
    return heads


def bfs_distance(heads: dict[int, int], source: int, target: int) -> int:
    """Edge count of the shortest path over undirected (token, head) edges."""
    adjacency: dict[int, set[int]] = {i: set() for i in heads}
    for child, head in heads.items():
        if head != 0:
            adjacency[child].add(head)
            adjacency[head].add(child)
    frontier = [source]
    seen = {source}
    distance = 0
    while frontier:
        if target in frontier:
            return distance
        nxt = []
        for node in frontier:
            for neighbor in adjacency[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    nxt.append(neighbor)
        frontier = nxt
        distance += 1
    raise AssertionError("target unreachable in tree oracle")


def tree_path(heads: dict[int, int], u: int, v: int) -> list[int]:
    """Unique tree path, built by splicing the two root chains at their
    first shared node (no search involved)."""
    def chain(x: int) -> list[int]:
        out = [x]
        while heads[x] != 0:
            x = heads[x]
            out.append(x)
        return out

    cu, cv = chain(u), chain(v)
    members = set(cu)
    junction = next(x for x in cv if x in members)
    return cu[:cu.index(junction) + 1] + list(reversed(cv[:cv.index(junction)]))


def finite_difference_gradients(loss_fn, tensor: np.ndarray, eps: float = 1e-5
                                ) -> np.ndarray:
    """Central differences of a scalar function w.r.t. every tensor element.

    Mutates `tensor` in place during probing and restores it afterwards.
    """
    grad = np.zeros_like(tensor)
    flat = tensor.ravel()
    grad_flat = grad.ravel()
    for i in range(flat.shape[0]):
        original = flat[i]
        flat[i] = original + eps
        up = loss_fn()
        flat[i] = original - eps
        down = loss_fn()
        flat[i] = original
        grad_flat[i] = (up - down) / (2.0 * eps)
    return grad


def dense_gradients(params, grads: dict) -> dict[str, np.ndarray]:
    """`model.gradients` output with each channel's row-sparse embedding
    gradient (rows, row_grads) scattered into a zero tensor of the
    embedding's shape; the other gradients are passed through."""
    dense = dict(grads)
    for spec in params.specs:
        name = f"{spec.name}.embedding"
        rows, row_grads = grads[name]
        dense[name] = np.zeros_like(params.tensors[name])
        dense[name][rows] = row_grads
    return dense


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray,
                       floor: float = 1e-6) -> float:
    """max |a-n| / max(|a|, |n|) over elements large enough to compare.

    Central differences with eps=1e-5 on a float64 loss carry ~1e-11 of
    roundoff noise, so a relative comparison is only meaningful for
    elements above `floor`; smaller ones are skipped.
    """
    worst = 0.0
    a = analytic.ravel()
    n = numeric.ravel()
    for i in range(a.shape[0]):
        scale = max(abs(a[i]), abs(n[i]))
        if scale < floor:
            continue
        worst = max(worst, abs(a[i] - n[i]) / scale)
    return worst


def _sigmoid(value: float) -> float:
    return 1.0 / (1.0 + math.exp(-value))


def _affine(inputs: list[float], weights: list[list[float]], bias: list[float]
            ) -> list[float]:
    """bias[k] + sum_j inputs[j] * weights[j][k], one scalar at a time."""
    return [bias[k] + sum(value * weights[j][k] for j, value in enumerate(inputs))
            for k in range(len(bias))]


def _lstm_final_state(steps: list[list[float]], W: list[list[float]],
                      R: list[list[float]], b: list[float]) -> list[float]:
    """Hidden state after reading `steps` in order from zero h and c: per
    step a = x W + h R + b, gates i, f, o = sigmoid and g = tanh of a's four
    quarters in that order, c = f c + i g and h = o tanh(c)."""
    H = len(R)
    h = [0.0] * H
    c = [0.0] * H
    for x in steps:
        a = _affine(x + h, W + R, b)  # list concatenation: [x h] [W; R] + b
        i = [_sigmoid(v) for v in a[:H]]
        f = [_sigmoid(v) for v in a[H:2 * H]]
        o = [_sigmoid(v) for v in a[2 * H:3 * H]]
        g = [math.tanh(v) for v in a[3 * H:]]
        c = [f[k] * c[k] + i[k] * g[k] for k in range(H)]
        h = [o[k] * math.tanh(c[k]) for k in range(H)]
    return h


def reference_forward(specs, tensors: dict[str, np.ndarray],
                      batch: dict[str, np.ndarray]) -> np.ndarray:
    """Class probabilities of the multichannel BiLSTM, one batch row at a
    time with scalar loops: no batching and no matrix products.

    Each channel embeds its row's ids up to its last non-padding one (id 0
    before it is read like any other id) and runs its forward LSTM over them
    and its backward LSTM over them reversed.  The final forward then backward
    hidden state of every channel, in spec order, form z; the output is
    softmax(tanh(z dense.W + dense.b) out.W + out.b).
    """
    t = {name: tensor.tolist() for name, tensor in tensors.items()}
    rows = len(batch[specs[0].name])
    probs = np.zeros((rows, 2))
    for row in range(rows):
        z: list[float] = []
        for spec in specs:
            ids = batch[spec.name][row].tolist()
            while ids and ids[-1] == 0:  # trailing padding is not read
                ids.pop()
            steps = [t[f"{spec.name}.embedding"][k] for k in ids]
            for direction, order in (("fwd", steps), ("bwd", steps[::-1])):
                weights = (t[f"{spec.name}.{direction}.{k}"] for k in "WRb")
                z += _lstm_final_state(order, *weights)
        dense = [math.tanh(v) for v in _affine(z, t["dense.W"], t["dense.b"])]
        logits = _affine(dense, t["out.W"], t["out.b"])
        exps = [math.exp(v - max(logits)) for v in logits]
        probs[row] = [e / sum(exps) for e in exps]
    return probs
