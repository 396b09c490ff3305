"""Combinatorial stratification of the 2^n orthants into layers and boundary strata.

Orthant signatures are encoded as n-bit masks with bit i set when
sigma_i * b_i > 0 (an acquired entry face), so the layer index is a popcount
and exhaustive enumeration stays cheap up to n ~ 20.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .model import AllocationModel

#: Enumeration is refused beyond this width (bitmask cap).
MAX_N = 24

KIND_EXTREMAL_POS = "extremal-positive"
KIND_EXTREMAL_NEG = "extremal-negative"
KIND_TRANSITIONAL = "transitional"


@dataclass(frozen=True)
class OrthantSignature:
    """A classified orthant: sign vector plus its entry/exit combinatorics."""

    sigma: tuple[int, ...]
    entry_set: frozenset[int]
    exit_set: frozenset[int]
    layer: int
    kind: str

    @property
    def mask(self) -> int:
        """Bitmask with bit i set iff i is an entry index."""
        m = 0
        for i in self.entry_set:
            m |= 1 << i
        return m

    def __str__(self):
        return "(" + ",".join("+" if s > 0 else "-" for s in self.sigma) + ")"


@dataclass(frozen=True)
class StratumDescriptor:
    """A codim-1 face or codim-2 intersection on an orthant boundary."""

    orthants: tuple[OrthantSignature, ...]
    indices: frozenset[int]
    kind: str  # entry-portal-face | exit-portal-face | entry-fold | exit-fold | hinge | reciprocal-hinge
    dimension: int


def classify_orthant(model: AllocationModel, sigma) -> OrthantSignature:
    """Classify a sign vector into its entry/exit sets, layer, and kind."""
    sigma = tuple(int(s) for s in sigma)
    if len(sigma) != model.n or any(s not in (-1, 1) for s in sigma):
        raise ValueError(f"sigma must be a +/-1 vector of length {model.n}")
    entry = frozenset(i for i, s in enumerate(sigma) if s * model.b[i] > 0)
    exit_ = frozenset(range(model.n)) - entry
    l = len(entry)
    if l == model.n:
        kind = KIND_EXTREMAL_POS
    elif l == 0:
        kind = KIND_EXTREMAL_NEG
    else:
        kind = KIND_TRANSITIONAL
    return OrthantSignature(sigma=sigma, entry_set=entry, exit_set=exit_,
                            layer=l, kind=kind)


def signature_from_mask(model: AllocationModel, mask: int) -> OrthantSignature:
    """Build the signature whose entry set is the given bitmask."""
    sb = np.sign(model.b)
    sigma = tuple(int(sb[i]) if (mask >> i) & 1 else -int(sb[i])
                  for i in range(model.n))
    return classify_orthant(model, sigma)


def orthant_masks(V: np.ndarray) -> np.ndarray:
    """One bitmask per row of V, bit i set when v_i > 0.

    int64 for fewer than 64 columns; beyond that an object array of Python
    ints, so that every actuator count is covered.
    """
    pos = V > 0
    n = pos.shape[1]
    if n < 64:
        return pos @ (1 << np.arange(n, dtype=np.int64))
    masks = np.empty(pos.shape[0], dtype=object)
    masks[:] = [int.from_bytes(row.tobytes(), "little")
                for row in np.packbits(pos, axis=1, bitorder="little")]
    return masks


def extremal_signature(model: AllocationModel, branch: str = "positive") -> OrthantSignature:
    """The orthant with sign(v) = +/- sign(b)."""
    sb = np.sign(model.b).astype(int)
    if branch == "positive":
        return classify_orthant(model, tuple(sb))
    if branch == "negative":
        return classify_orthant(model, tuple(-sb))
    raise ValueError(f"branch must be 'positive' or 'negative', got {branch!r}")


def enumerate_layer(model: AllocationModel, l: int) -> list[OrthantSignature]:
    """All C(n, l) signatures with exactly l entry faces."""
    n = model.n
    if n > MAX_N:
        raise ValueError(f"orthant enumeration capped at n = {MAX_N}")
    if not 0 <= l <= n:
        raise ValueError(f"layer must lie in [0, {n}], got {l}")
    out = []
    for entry in combinations(range(n), l):
        mask = 0
        for i in entry:
            mask |= 1 << i
        out.append(signature_from_mask(model, mask))
    return out


def boundary_strata(model: AllocationModel, sig: OrthantSignature,
                    max_codim: int = 2) -> list[StratumDescriptor]:
    """Faces and (by default) codim-2 strata of one orthant boundary.

    Codim-2 strata are hinges when they pair an entry with an exit index and
    folds when both indices come from the same portal.  ``max_codim`` above 2
    additionally reports deeper intersections, classified as hinge when the
    index set mixes both portals.
    """
    n = model.n
    strata = []
    for i in range(n):
        kind = "entry-portal-face" if i in sig.entry_set else "exit-portal-face"
        strata.append(StratumDescriptor((sig,), frozenset({i}), kind, n - 1))
    for codim in range(2, max_codim + 1):
        for idx in combinations(range(n), codim):
            idx = frozenset(idx)
            n_entry = len(idx & sig.entry_set)
            if n_entry == codim:
                kind = "entry-fold"
            elif n_entry == 0:
                kind = "exit-fold"
            else:
                kind = "hinge"
            strata.append(StratumDescriptor((sig,), idx, kind, n - codim))
    return strata


def hinge_count(n: int, l: int) -> int:
    """Closed-form count of reciprocal hinges inside layer l."""
    return comb(n, l) * l * (n - l) // 2


def reciprocal_hinges(model: AllocationModel, l: int) -> list[StratumDescriptor]:
    """All reciprocal hinges of layer l.

    Each hinge joins two same-layer signatures differing in exactly one entry
    index (dropped) and one exit index (acquired).
    """
    n = model.n
    if not 1 <= l <= n - 1:
        raise ValueError(f"reciprocal hinges exist only for 1 <= l <= {n - 1}")
    hinges = []
    for sig in enumerate_layer(model, l):
        for i in sorted(sig.entry_set):
            for j in sorted(sig.exit_set):
                other_mask = sig.mask ^ (1 << i) ^ (1 << j)
                if other_mask < sig.mask:
                    continue  # dedupe: keep the pair from its smaller-mask side
                other = signature_from_mask(model, other_mask)
                hinges.append(StratumDescriptor(
                    (sig, other), frozenset({i, j}), "reciprocal-hinge", n - 2))
    return hinges


def layer_adjacency_graph(model: AllocationModel, l: int) -> dict:
    """Graph of layer-l orthants (nodes) joined by reciprocal hinges (edges).

    Returns ``{"nodes": [...], "edges": [...], "connected": bool}`` with nodes
    as OrthantSignature and edges as StratumDescriptor.
    """
    nodes = enumerate_layer(model, l)
    edges = reciprocal_hinges(model, l)
    adj = {sig.mask: [] for sig in nodes}
    for e in edges:
        a, b = e.orthants
        adj[a.mask].append(b.mask)
        adj[b.mask].append(a.mask)
    # BFS for connectivity
    seen = set()
    stack = [nodes[0].mask]
    while stack:
        u = stack.pop()
        if u in seen:
            continue
        seen.add(u)
        stack.extend(adj[u])
    return {"nodes": nodes, "edges": edges, "connected": len(seen) == len(nodes)}


def graph_to_dot(graph: dict) -> str:
    """Render a layer adjacency graph in DOT format."""
    lines = ["graph layer {"]
    for sig in graph["nodes"]:
        lines.append(f'  "{sig}";')
    for e in graph["edges"]:
        a, b = e.orthants
        label = ",".join(str(i + 1) for i in sorted(e.indices))
        lines.append(f'  "{a}" -- "{b}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)


def graph_to_json(graph: dict) -> str:
    """Render a layer adjacency graph as a JSON document."""
    doc = {
        "nodes": [str(sig) for sig in graph["nodes"]],
        "edges": [
            {"a": str(e.orthants[0]), "b": str(e.orthants[1]),
             "indices": sorted(e.indices)}
            for e in graph["edges"]
        ],
        "connected": graph["connected"],
    }
    return json.dumps(doc, indent=2)
