"""Combinatorial stratification of the 2^n orthants into layers and boundary strata.

An orthant has one bitmask, with bit i set when sigma_i > 0: the mask
:func:`orthant_masks` gives every state in it (bit i set when v_i > 0).  This
module alone turns states into masks and masks into signatures: every
signature is built from its mask by :func:`signature_from_mask`.  The layer
of an orthant is the number of its entry faces, the i with sigma_i * b_i > 0.
A layer has C(n, l) orthants and l (n - l) C(n, l) / 2 hinges: the middle
layer's adjacency graph took 3 ms at n = 10, 16 ms at n = 12 and 83 ms at
n = 14 (timeit minima on a 2-vCPU AMD EPYC), about 5x per two more actuators.
A hinge takes about 0.5 kB, so layers of more than MAX_HINGES hinges are
refused: every layer up to n = 18 (1 969 110 hinges in its middle layer) fits.
A signature takes about 1.8 kB (tracemalloc peak of the middle layer at
n = 16 and 18), so layers of more than MAX_ORTHANTS orthants are not
enumerated: every layer up to n = 21 (352 716 orthants in its middle layers)
fits, and the middle layer at n = 24 (2 704 156 orthants, about 4.8 GB) does
not.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .model import AllocationModel

#: Hinge lists and layer graphs are refused beyond this many hinges (about
#: 1 GiB at 0.5 kB a hinge).
MAX_HINGES = 2_000_000
#: Layers are not enumerated beyond this many orthants (about 1 GiB at 1.8 kB
#: a signature).
MAX_ORTHANTS = 600_000

KIND_EXTREMAL_POS = "extremal-positive"
KIND_EXTREMAL_NEG = "extremal-negative"
KIND_TRANSITIONAL = "transitional"


@dataclass(frozen=True)
class OrthantSignature:
    """A classified orthant: sign vector plus its entry/exit combinatorics."""

    sigma: tuple[int, ...]
    #: bit i set iff sigma_i > 0: the :func:`orthant_masks` of its states
    mask: int
    entry_set: frozenset[int]
    exit_set: frozenset[int]
    layer: int
    kind: str

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
    return signature_from_mask(model, sum(1 << i for i, s in enumerate(sigma) if s > 0))


def signature_from_mask(model: AllocationModel, mask: int) -> OrthantSignature:
    """The signature whose states have the :func:`orthant_masks` ``mask``;
    ValueError for a mask outside [0, 2^n), which would alias another one."""
    n = model.n
    if not 0 <= mask < 1 << n:
        raise ValueError(f"mask must lie in [0, 2^{n}), got {mask}")
    sigma = tuple(1 if mask >> i & 1 else -1 for i in range(n))
    entry = frozenset(i for i, (s, b) in enumerate(zip(sigma, model.b.tolist()))
                      if s * b > 0)
    l = len(entry)
    return OrthantSignature(
        sigma=sigma, mask=mask, entry_set=entry,
        exit_set=frozenset(range(n)) - entry, layer=l,
        kind={n: KIND_EXTREMAL_POS, 0: KIND_EXTREMAL_NEG}.get(l, KIND_TRANSITIONAL))


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
    if branch not in ("positive", "negative"):
        raise ValueError(f"branch must be 'positive' or 'negative', got {branch!r}")
    b = model.b if branch == "positive" else -model.b
    return signature_from_mask(model, int(orthant_masks(b[None, :])[0]))


def enumerate_layer(model: AllocationModel, l: int) -> list[OrthantSignature]:
    """All C(n, l) signatures with exactly l entry faces; a layer of more
    than MAX_ORTHANTS orthants is refused (ValueError) before any is built."""
    n = model.n
    if not 0 <= l <= n:
        raise ValueError(f"layer must lie in [0, {n}], got {l}")
    if comb(n, l) > MAX_ORTHANTS:
        raise ValueError(f"layer {l} of n = {n} has {comb(n, l)} orthants, "
                         f"more than the cap of MAX_ORTHANTS = {MAX_ORTHANTS}")
    layer0 = int(orthant_masks(-model.b[None, :])[0])   # sign(v) = -sign(b)
    return [signature_from_mask(model, layer0 ^ sum(1 << i for i in entry))
            for entry in combinations(range(n), l)]


def boundary_strata(model: AllocationModel,
                    sig: OrthantSignature) -> list[StratumDescriptor]:
    """Faces and codim-2 strata of one orthant boundary.

    Codim-2 strata are hinges when they pair an entry with an exit index and
    folds when both indices come from the same portal.
    """
    n = model.n
    strata = []
    for i in range(n):
        kind = "entry-portal-face" if i in sig.entry_set else "exit-portal-face"
        strata.append(StratumDescriptor((sig,), frozenset({i}), kind, n - 1))
    for idx in map(frozenset, combinations(range(n), 2)):
        kind = ("exit-fold", "hinge", "entry-fold")[len(idx & sig.entry_set)]
        strata.append(StratumDescriptor((sig,), idx, kind, n - 2))
    return strata


def hinge_count(n: int, l: int) -> int:
    """Closed-form count of reciprocal hinges inside layer l."""
    return comb(n, l) * l * (n - l) // 2


def reciprocal_hinges(model: AllocationModel, l: int) -> list[StratumDescriptor]:
    """All reciprocal hinges of layer l.

    Each hinge joins two same-layer signatures differing in exactly one entry
    index (dropped) and one exit index (acquired), listed once, from its side
    that entered i < j.  The extremal layers 0 and n, one orthant each, have
    none.  A layer of more than MAX_HINGES hinges is refused (ValueError).
    """
    _check_hinge_count(model.n, l)
    return _hinges(model.n, enumerate_layer(model, l))


def _check_hinge_count(n: int, l: int) -> None:
    """ValueError when layer l of n actuators has more than MAX_HINGES hinges."""
    if 0 <= l <= n and hinge_count(n, l) > MAX_HINGES:
        raise ValueError(f"layer {l} of n = {n} has {hinge_count(n, l)} "
                         f"reciprocal hinges, more than the cap of "
                         f"MAX_HINGES = {MAX_HINGES}")


def _hinges(n: int, layer: list[OrthantSignature]) -> list[StratumDescriptor]:
    """The reciprocal hinges of an enumerated layer, partners found by mask."""
    by_mask = {sig.mask: sig for sig in layer}
    return [StratumDescriptor((sig, by_mask[sig.mask ^ (1 << i) ^ (1 << j)]),
                              frozenset({i, j}), "reciprocal-hinge", n - 2)
            for sig in layer
            for i in sorted(sig.entry_set)
            for j in sorted(sig.exit_set) if i < j]


def layer_adjacency_graph(model: AllocationModel, l: int) -> dict:
    """Graph of layer-l orthants (nodes) joined by reciprocal hinges (edges).

    Returns ``{"nodes": [...], "edges": [...], "connected": bool}`` with nodes
    as OrthantSignature and edges as StratumDescriptor.  A layer of more than
    MAX_HINGES hinges is refused (ValueError).
    """
    _check_hinge_count(model.n, l)
    nodes = enumerate_layer(model, l)
    edges = _hinges(model.n, nodes)
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
