"""Heterogeneous legal citation network and metapath machinery.

Node types: A (act), C (chapter), T (topic), S (section), F (fact).
Relations:  ct (fact cites section), ctb (its reverse), inc (hierarchy level
            includes the next), po (its reverse).

The graph is immutable once built. Metapath instances are stored in target-
last order: ``nodes[-1]`` is the node being encoded and ``nodes[0]`` its
metapath neighbour.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NODE_TYPES = ("A", "C", "T", "S", "F")
RELATIONS = ("ct", "ctb", "inc", "po")
INVERSE_RELATION = {"ct": "ctb", "ctb": "ct", "inc": "po", "po": "inc"}

# Legal (source type, relation, destination type) steps.
LEGAL_STEPS = {
    ("F", "ct", "S"), ("S", "ctb", "F"),
    ("A", "inc", "C"), ("C", "inc", "T"), ("T", "inc", "S"),
    ("C", "po", "A"), ("T", "po", "C"), ("S", "po", "T"),
}

GRAPH_FORMAT_VERSION = 1


class GraphError(ValueError):
    pass


class UnknownNodeError(KeyError):
    """Raised when a node id absent from the graph is queried; this is the
    inductive-hygiene gate (test facts are never graph nodes)."""


@dataclass(frozen=True)
class MetapathSchema:
    """A declared node-type/relation sequence, written outward from the
    target node: node_types[0] is the target's type."""

    id: str
    node_types: tuple[str, ...]
    relations: tuple[str, ...]
    side: str  # "section" or "fact"

    def __post_init__(self):
        if len(self.node_types) != len(self.relations) + 1:
            raise GraphError(f"schema {self.id}: need one more node type than relations")
        if self.node_types[0] != self.node_types[-1]:
            raise GraphError(f"schema {self.id}: first and last node types must match")
        for a, r, b in zip(self.node_types, self.relations, self.node_types[1:]):
            if (a, r, b) not in LEGAL_STEPS:
                raise GraphError(f"schema {self.id}: illegal step {a}-{r}-{b}")

    @property
    def length(self) -> int:
        return len(self.relations)

    def seed_tag(self) -> int:
        return zlib.crc32(self.id.encode())


@dataclass(frozen=True)
class MetapathInstance:
    """Concrete node path conforming to a schema; nodes[-1] is the target."""

    nodes: tuple[str, ...]
    schema_id: str


def _schema(spec: str, side: str) -> MetapathSchema:
    parts = spec.split("-")
    return MetapathSchema(id=spec, node_types=tuple(parts[0::2]),
                          relations=tuple(parts[1::2]), side=side)


def default_schemas() -> list[MetapathSchema]:
    """The 4 section-side and 4 fact-side metapath schemas."""
    section = [
        "S-ctb-F-ct-S",
        "S-po-T-inc-S",
        "S-po-T-po-C-inc-T-inc-S",
        "S-po-T-po-C-po-A-inc-C-inc-T-inc-S",
    ]
    fact = [
        "F-ct-S-ctb-F",
        "F-ct-S-po-T-inc-S-ctb-F",
        "F-ct-S-po-T-po-C-inc-T-inc-S-ctb-F",
        "F-ct-S-po-T-po-C-po-A-inc-C-inc-T-inc-S-ctb-F",
    ]
    return [_schema(s, "section") for s in section] + [_schema(s, "fact") for s in fact]


class HeteroGraph:
    """Typed nodes + typed adjacency, with an optional access recorder.

    When ``recorder`` is set to a list, every node whose neighbourhood is
    queried gets appended to it; evaluation code uses this to prove that no
    out-of-training fact is ever touched.
    """

    def __init__(self, nodes_by_type: dict[str, list[str]], edges: dict[str, list[tuple[str, str]]]):
        self.node_ids: list[str] = []
        node_type: list[str] = []
        type_index: list[int] = []
        self.nodes_of_type: dict[str, list[int]] = {t: [] for t in NODE_TYPES}
        self._index: dict[str, int] = {}
        for t in NODE_TYPES:
            for nid in nodes_by_type.get(t, []):
                if nid in self._index:
                    raise GraphError(f"duplicate node id {nid!r}")
                g = len(self.node_ids)
                self._index[nid] = g
                self.node_ids.append(nid)
                node_type.append(t)
                type_index.append(len(self.nodes_of_type[t]))
                self.nodes_of_type[t].append(g)
        # per global index: the node's type, and its index among its type
        self.node_type = np.array(node_type, dtype="U1")
        self.type_index = np.array(type_index, dtype=np.int64)

        n = len(self.node_ids)
        src: dict[str, list[int]] = {r: [] for r in RELATIONS}
        dst: dict[str, list[int]] = {r: [] for r in RELATIONS}
        for rel, pairs in edges.items():
            if rel not in RELATIONS:
                raise GraphError(f"unknown relation {rel!r}")
            for u, v in pairs:
                ui, vi = self._require(u), self._require(v)
                step = (self.node_type[ui], rel, self.node_type[vi])
                if step not in LEGAL_STEPS:
                    raise GraphError(f"illegal edge {u}-{rel}-{v} ({step[0]}-{rel}-{step[2]})")
                src[rel].append(ui)
                dst[rel].append(vi)
        # the graph's one edge structure: a CSR pair (indptr, indices) per
        # relation, each row sorted
        self._csr = {rel: _csr(n, src[rel], dst[rel]) for rel in RELATIONS}
        self._validate_symmetry()
        self._viable_cache: dict[str, tuple] = {}
        self._walk_cache: dict = {}
        self._walk_cache_seed: int | None = None
        self.recorder: list[str] | None = None

    # -- construction checks ---------------------------------------------------

    def _require(self, node_id: str) -> int:
        try:
            return self._index[node_id]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    def _validate_symmetry(self):
        for rel, inv in (("ct", "ctb"), ("inc", "po")):
            u, v = (a.tolist() for a in self._edge_arrays(rel))
            bu, bv = (a.tolist() for a in self._edge_arrays(inv))
            if set(zip(u, v)) != set(zip(bv, bu)):
                raise GraphError(f"edge sets {rel}/{inv} are not mutual reverses")

    def _edge_arrays(self, relation: str) -> tuple[np.ndarray, np.ndarray]:
        """(source, destination) index arrays in CSR order."""
        indptr, indices = self._csr[relation]
        return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr)), indices

    # -- queries ---------------------------------------------------------------

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._index

    def global_index(self, node_id: str) -> int:
        return self._require(node_id)

    def phi(self, node_id: str) -> str:
        """The paper's node-type map φ, by id. The sampler reads `node_type`
        by index; the oracles and the inductive-hygiene tests read types
        through this."""
        return self.node_type[self._require(node_id)]

    def neighbors(self, node_id: str, relation: str) -> tuple[str, ...]:
        """Neighbour ids under `relation`; the node is recorded as a walk's
        would be. The sampler walks the CSR by index; the enumeration oracles
        and demo 02 read adjacency through this, which keeps the CSR private."""
        g = self._require(node_id)
        if self.recorder is not None:
            self.recorder.append(node_id)
        indptr, indices = self._csr[relation]
        return tuple(self.node_ids[v] for v in indices[indptr[g]:indptr[g + 1]].tolist())

    def n_nodes(self, node_type: str | None = None) -> int:
        if node_type is None:
            return len(self.node_ids)
        return len(self.nodes_of_type[node_type])

    def n_edges(self, relation: str) -> int:
        return len(self._csr[relation][1])

    def type_ids(self, node_type: str) -> list[str]:
        return [self.node_ids[g] for g in self.nodes_of_type[node_type]]

    def stats(self) -> dict:
        return {
            "nodes": {t: self.n_nodes(t) for t in NODE_TYPES},
            "edges": {r: self.n_edges(r) for r in RELATIONS},
        }

    # -- metapath machinery ------------------------------------------------------

    def _viable(self, schema: MetapathSchema):
        """Walk tables for one schema, computed once and cached.

        Returns (start, steps). start[g] is True iff a walk can be completed
        from node g. steps[j] is the CSR of relation j filtered to the edges
        into nodes from which the rest of the walk can be completed, as an
        (indptr, indices) pair of arrays; each row keeps its sorted order.
        """
        if schema.id not in self._viable_cache:
            viable = self.node_type == schema.node_types[-1]
            steps = []
            for j in range(schema.length - 1, -1, -1):
                indptr, indices = self._csr[schema.relations[j]]
                keep = viable[indices]
                row_ptr = np.concatenate(([0], np.cumsum(keep)))[indptr]
                viable = (self.node_type == schema.node_types[j]) & (np.diff(row_ptr) > 0)
                steps.insert(0, (row_ptr, indices[keep]))
            self._viable_cache[schema.id] = (viable, steps)
        return self._viable_cache[schema.id]

    def sample_instances(self, v: str, schema: MetapathSchema, k: int,
                         seed: int) -> list[MetapathInstance]:
        """Sample k instances of `schema` at node `v`, with replacement, by
        random typed walks; see `_sample_walks_idx`. The result has exactly
        k instances whenever at least one exists, else it is empty."""
        _, walks = self._sample_walks_idx(np.array([self._require(v)]), schema, k, seed)
        return [MetapathInstance(nodes=tuple(self.node_ids[i] for i in w), schema_id=schema.id)
                for w in walks.reshape(-1, schema.length + 1).tolist()]

    def _sample_walks_idx(self, gidx: np.ndarray, schema: MetapathSchema, k: int,
                          seed: int) -> tuple[np.ndarray, np.ndarray]:
        """k walks of `schema` from each node of the index array `gidx`.

        Returns (has, walks): has[i] is True iff a walk can be completed from
        gidx[i], and walks is (has.sum(), k, M+1), the walks of those nodes
        in neighbour-first instance order. Each step picks uniformly among the
        typed neighbours that can still complete the walk, so a walk never
        dead-ends. The draw of walk j at step t is keyed on (seed, node,
        schema, j, t), so a node's walks do not depend on its batch-mates.

        Results are memoized per seed on the schema, k and the node array:
        sections are re-walked with the same seed in every batch of an epoch
        and at every inference. Both arrays are read-only.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        wrong = self.node_type[gidx] != schema.node_types[0]
        if wrong.any():
            g = int(gidx[wrong][0])
            raise GraphError(
                f"node {self.node_ids[g]!r} has type {self.node_type[g]}, "
                f"schema starts at {schema.node_types[0]}")
        if self._walk_cache_seed != seed:
            self._walk_cache_seed = seed
            self._walk_cache = {}
        key = (schema.id, k, gidx.tobytes())
        out = self._walk_cache.get(key)
        if out is None:
            start, steps = self._viable(schema)
            has = start[gidx]
            starts = gidx[has]
            walks = self._draw_walk(starts, steps, _walk_keys(seed, schema.seed_tag(), starts, k))
            out = has, walks[:, :, ::-1].copy()
            for a in out:
                a.flags.writeable = False
            self._walk_cache[key] = out
        if self.recorder is not None:
            # every node a walk passes through counts as a structure query
            self.recorder.extend(self.node_ids[g] for g in gidx.tolist())
            self.recorder.extend(self.node_ids[g] for g in out[1].ravel().tolist())
        return out

    def _draw_walk(self, starts: np.ndarray, steps, keys: np.ndarray) -> np.ndarray:
        """Step the walks keyed by `keys` (n, k) from `starts` (n,) at once,
        over the viability-filtered CSRs of `_viable`; every row they reach is
        non-empty. Returns the (n, k, M+1) walks in target-first order.

        A walk's draw at step t is the top 32 bits of the SplitMix64 output
        for its key and t, mapped onto the row's cnt candidates by
        multiply-shift, lo + (bits * cnt) >> 32 (Lemire 2019)."""
        walks = np.empty(keys.shape + (len(steps) + 1,), dtype=np.int64)
        cur = np.broadcast_to(starts[:, None], keys.shape)
        walks[:, :, 0] = cur
        for t, (indptr, indices) in enumerate(steps, start=1):
            lo = indptr[cur]
            cnt = (indptr[cur + 1] - lo).astype(np.uint64)
            bits = _splitmix(keys + np.uint64(t * _GAMMA & _MASK64)) >> np.uint64(32)
            cur = indices[lo + ((bits * cnt) >> np.uint64(32)).astype(np.int64)]
            walks[:, :, t] = cur
        return walks

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "format_version": GRAPH_FORMAT_VERSION,
            "nodes": {t: self.type_ids(t) for t in NODE_TYPES},
            "edges": {
                rel: [[self.node_ids[u], self.node_ids[v]]
                      for u, v in zip(*(a.tolist() for a in self._edge_arrays(rel)))]
                for rel in RELATIONS
            },
        }

    def save(self, path):
        Path(path).write_text(json.dumps(self.to_json()), encoding="utf-8")

    @classmethod
    def from_json(cls, doc: dict) -> "HeteroGraph":
        if doc.get("format_version") != GRAPH_FORMAT_VERSION:
            raise GraphError(f"unsupported graph format version {doc.get('format_version')!r}")
        return cls(doc["nodes"], {rel: [tuple(p) for p in pairs]
                                  for rel, pairs in doc["edges"].items()})

    @classmethod
    def load(cls, path) -> "HeteroGraph":
        return cls.from_json(json.loads(Path(path).read_text(encoding="utf-8")))


_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's stream increment, 2^64 / golden ratio


def _splitmix(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer (Steele, Lea & Flood 2014) of a uint64 array
    of states: a bijection on 64 bits whose output bits each depend on every
    input bit. Array arithmetic wraps modulo 2^64 without a warning."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _walk_keys(seed: int, tag: int, gidx: np.ndarray, k: int) -> np.ndarray:
    """(n, k) uint64 stream keys of the walks of nodes `gidx`: the seed, the
    schema tag, the node and the walk number folded in one at a time, each
    through the finalizer (a counter-based generator in the manner of Salmon
    et al. 2011's Philox, with SplitMix64 as the bijection)."""
    h = np.full(len(gidx), seed & _MASK64, dtype=np.uint64)
    for word in (np.uint64(tag), gidx.astype(np.uint64)):
        h = _splitmix((h + np.uint64(_GAMMA)) ^ word)
    return _splitmix((h[:, None] + np.uint64(_GAMMA)) ^ np.arange(k, dtype=np.uint64))


def _csr(n: int, src: list[int], dst: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) of an n-node edge list, each row sorted."""
    src_arr = np.array(src, dtype=np.int64)
    dst_arr = np.array(dst, dtype=np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src_arr, minlength=n), out=indptr[1:])
    return indptr, dst_arr[np.lexsort((dst_arr, src_arr))]


def build_citation_graph(train_facts, hierarchy) -> HeteroGraph:
    """Construct the network from training facts and the statute hierarchy.

    Test facts must never be passed here: fact nodes and their citation edges
    become model-visible structure.
    """
    nodes = {
        "A": [hierarchy.act_id],
        "C": list(hierarchy.chapters),
        "T": list(hierarchy.topics),
        "S": list(hierarchy.section_ids),
        "F": [d.id for d in train_facts],
    }
    inc = [(hierarchy.parent[c], c) for c in hierarchy.chapters]
    inc += [(hierarchy.parent[t], t) for t in hierarchy.topics]
    inc += [(hierarchy.parent[s], s) for s in hierarchy.section_ids]
    ct = []
    for doc in train_facts:
        unknown = doc.labels - set(hierarchy.section_index)
        if unknown:
            raise GraphError(f"fact {doc.id!r} cites unknown sections {sorted(unknown)}")
        ct.extend((doc.id, s) for s in sorted(doc.labels, key=hierarchy.section_index.get))
    edges = {
        "inc": inc,
        "po": [(b, a) for a, b in inc],
        "ct": ct,
        "ctb": [(b, a) for a, b in ct],
    }
    return HeteroGraph(nodes, edges)
