"""Communication topologies for the topology-aware execution core.

The server-based architecture of the source paper is a *complete* network:
every agent talks to the coordinator, which is equivalent to a complete
communication graph.  The companion decentralized works (arXiv:2101.12316,
arXiv:2009.14763) study sparse graphs where each agent only hears its
in-neighborhood.  :class:`CommunicationTopology` captures that structure —
compressed sparse rows (CSR) of every agent's closed in-neighborhood, from
which the engines' gather indices and edge lists derive — and a small
registry provides the standard families: complete, ring (with a hop
radius), 2-D torus, random regular and Erdős–Rényi.

Conventions:

* agent ``i`` *receives from* agent ``j`` iff ``j`` is in ``i``'s closed
  in-neighborhood (the dense view: ``adjacency[i, j] is True``);
* there are no self-loops — engines add each agent's own message through
  the *closed* neighborhoods, which list the agent itself;
* all built-in families are undirected (symmetric edges), but the class
  accepts arbitrary digraphs.

The CSR arrays are the only stored graph: generators emit edge lists
straight into them, connectivity is an O(n + E) frontier search, and the
dense ``n × n`` matrix exists only as a lazy view for small-n callers.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

__all__ = [
    "CommunicationTopology",
    "complete_topology",
    "ring_topology",
    "torus_topology",
    "random_regular_topology",
    "erdos_renyi_topology",
    "make_topology",
    "available_topologies",
    "topology_descriptions",
]

#: Uniform variates per Erdős–Rényi draw: the (n, n) matrix arrives in row
#: blocks of about this size, so no n×n temporary ever exists.
_ER_BLOCK_VARIATES = 1 << 18

_Csr = Tuple[np.ndarray, np.ndarray]


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct entries of a non-empty 1-D int array (sorted in place).

    ``np.unique`` without its per-call overhead, which dominates on the
    tiny arrays of small-n graphs.
    """
    values.sort()
    return values[np.concatenate(([True], values[1:] != values[:-1]))]


def _closed_csr(n: int, receivers: np.ndarray, senders: np.ndarray) -> _Csr:
    """Closed in-neighborhood CSR ``(indptr, indices)`` of an edge list.

    One sort over receiver-major keys ``receiver * n + sender``, every
    agent's own key included: rows come out ascending, repeated edges
    collapse, and a self-loop merges into the agent's own entry.
    """
    keys = _sorted_unique(
        np.concatenate([receivers * n + senders, np.arange(0, n * n, n + 1)])
    )
    indptr = keys.searchsorted(np.arange(0, n * n + 1, n))
    indices = keys % n
    indptr.setflags(write=False)
    indices.setflags(write=False)
    return indptr, indices


def _entry_rows(indptr: np.ndarray) -> np.ndarray:
    """The row of every CSR entry, ``(indptr[-1],)``."""
    return np.arange(indptr.size - 1).repeat(indptr[1:] - indptr[:-1])


def _gather_rows(csr: _Csr, rows: np.ndarray) -> np.ndarray:
    """The CSR rows ``rows`` (non-empty), concatenated."""
    indptr, indices = csr
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    ends = counts.cumsum()
    offsets = (starts - ends + counts).repeat(counts)
    return indices[np.arange(ends[-1]) + offsets]


def _frontier_search(
    graphs: Sequence[_Csr], seen: np.ndarray, seed: int, unseen: int
) -> np.ndarray:
    """Every agent reachable from ``seed`` along the rows of ``graphs``.

    Level-synchronous: each level gathers the rows of the current frontier
    and keeps what ``seen`` has not marked yet, so every row is gathered
    at most once — O(n + E) work in total.  Marks ``seen`` in place and
    returns the newly reached ids, unsorted; stops early once it has
    reached ``unseen`` agents (all that ``seen`` had left unmarked).
    """
    seen[seed] = True
    frontier = np.array([seed])
    levels = [frontier]
    reached = 1
    while reached < unseen:
        found = np.concatenate([_gather_rows(g, frontier) for g in graphs])
        found = found[~seen[found]]
        if not found.size:
            break
        frontier = _sorted_unique(found)
        seen[frontier] = True
        levels.append(frontier)
        reached += frontier.size
    return np.concatenate(levels)


class CommunicationTopology:
    """A named communication graph over ``n`` agents.

    ``CommunicationTopology(name, adjacency)`` builds one from a dense
    boolean matrix (``adjacency[i, j]``: agent ``i`` receives agent
    ``j``'s messages); the family generators build theirs from edge lists
    without ever allocating ``n × n``.  Either way the instance stores
    only the closed in-neighborhood CSR arrays (:meth:`neighbor_csr`) and
    is immutable: every derived structure is computed once, cached and
    read-only.
    """

    def __init__(self, name: str, adjacency: np.ndarray):
        arr = np.asarray(adjacency, dtype=bool)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(
                f"adjacency must be square, got shape {arr.shape}"
            )
        if arr.shape[0] < 1:
            raise ValueError("topology needs at least one agent")
        if np.any(np.diag(arr)):
            raise ValueError(
                "adjacency diagonal must be False (self-messages are "
                "implicit through the closed neighborhoods)"
            )
        receivers, senders = np.nonzero(arr)
        object.__setattr__(self, "name", str(name))
        object.__setattr__(
            self, "_csr", _closed_csr(arr.shape[0], receivers, senders)
        )

    @classmethod
    def _undirected(cls, name: str, csr: _Csr) -> "CommunicationTopology":
        """Wrap the :func:`_closed_csr` arrays of an undirected graph.

        Every built-in family is undirected, so its arrays are their own
        transpose and :meth:`_closed_out_csr` starts out cached.
        """
        topology = cls.__new__(cls)
        object.__setattr__(topology, "name", str(name))
        object.__setattr__(topology, "_csr", csr)
        object.__setattr__(topology, "_out_csr_cache", csr)
        return topology

    def __setattr__(self, key, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- basic structure --------------------------------------------------
    @property
    def n(self) -> int:
        """Number of agents."""
        return int(self._csr[0].size - 1)

    @property
    def in_degrees(self) -> np.ndarray:
        """Open in-degree of every agent (self excluded), shape ``(n,)``."""
        return self.closed_in_degrees - 1

    @property
    def closed_in_degrees(self) -> np.ndarray:
        """Closed in-degree (self included) of every agent, shape ``(n,)``."""
        indptr = self._csr[0]
        return indptr[1:] - indptr[:-1]

    @property
    def is_regular(self) -> bool:
        """Whether every agent has the same in-degree."""
        degrees = self.closed_in_degrees
        return bool((degrees == degrees[0]).all())

    @property
    def is_complete(self) -> bool:
        """Whether every agent hears every other agent."""
        return int(self._csr[0][-1]) == self.n * self.n

    def closed_in_neighbors(self, agent: int) -> np.ndarray:
        """Ascending in-neighborhood of ``agent`` including itself."""
        indptr, indices = self._csr
        agent = range(self.n)[agent]
        return indices[indptr[agent] : indptr[agent + 1]].copy()

    def in_neighbors(self, agent: int) -> np.ndarray:
        """Ids whose messages ``agent`` receives (self excluded), ascending."""
        row = self.closed_in_neighbors(agent)
        return row[row != range(self.n)[agent]]

    def out_neighbors(self, agent: int) -> np.ndarray:
        """Ids that receive ``agent``'s messages (self excluded), ascending."""
        indptr, indices = self._closed_out_csr()
        agent = range(self.n)[agent]
        row = indices[indptr[agent] : indptr[agent + 1]]
        return row[row != agent]

    @property
    def adjacency(self) -> np.ndarray:
        """Dense ``(n, n)`` view: ``adjacency[i, j]`` ⇔ ``i`` hears ``j``.

        O(n²) memory, for small-n callers only — the payload of
        :func:`~repro.experiments.decentralized.serialize_topology`, the
        Laplacian spectrum of :meth:`algebraic_connectivity`, tests.
        Nothing between the generators and the engines reads it.  Built
        on first access and cached; read-only.
        """
        cached = self.__dict__.get("_adjacency_cache")
        if cached is None:
            indptr, indices = self._csr
            n = self.n
            flat = np.zeros(n * n, dtype=bool)
            flat[_entry_rows(indptr) * n + indices] = True
            flat[:: n + 1] = False
            cached = flat.reshape(n, n)
            cached.setflags(write=False)
            object.__setattr__(self, "_adjacency_cache", cached)
        return cached

    @property
    def graph_key(self) -> Tuple[bytes, bytes]:
        """Hashable identity of the edge set, whatever the name.

        Two topologies share a key iff they have the same agents and
        edges — the grouping key of engines that batch trials over
        several topologies.
        """
        cached = self.__dict__.get("_graph_key_cache")
        if cached is None:
            indptr, indices = self._csr
            cached = (indptr.tobytes(), indices.tobytes())
            object.__setattr__(self, "_graph_key_cache", cached)
        return cached

    # -- batched gather structure -----------------------------------------
    # The gather/edge structures are pure functions of the (immutable)
    # CSR arrays, and the engines consult them per round — the
    # delay-tolerant engines in particular rebuild nothing: the accessors
    # compute once on first use and cache on the instance.  Cached arrays
    # are read-only; callers needing a mutable copy must copy explicitly.

    def neighbor_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Compressed (CSR) closed in-neighborhood storage.

        Returns ``(indptr, indices)``: agent ``i``'s closed
        in-neighborhood, ascending, is
        ``indices[indptr[i] : indptr[i + 1]]``.  O(n + E) memory — the
        stored form of the graph, and the scalable companion of the
        padded :meth:`neighborhoods` gather at large ``n``, where the
        dense ``(n, k)`` padding wastes ``k - deg(i)`` slots per row on
        irregular graphs.  The returned arrays are read-only.
        """
        return self._csr

    def _closed_out_csr(self) -> _Csr:
        """CSR of the closed *out*-neighborhoods (the transpose), cached."""
        cached = self.__dict__.get("_out_csr_cache")
        if cached is None:
            indptr, indices = self._csr
            # Every entry reversed: senders become receivers.
            cached = _closed_csr(self.n, indices, _entry_rows(indptr))
            object.__setattr__(self, "_out_csr_cache", cached)
        return cached

    def degree_groups(self) -> List[Tuple[int, np.ndarray]]:
        """Agents grouped by closed in-degree, ascending degree.

        Returns ``[(degree, agent_ids), ...]`` with ``agent_ids``
        ascending.  The decentralized engines dispatch their
        neighborhood kernels per group, so a mostly-regular graph with a
        few irregular nodes pays the ragged (masked) path only for those
        nodes.  Computed once and cached; the id arrays are read-only.
        """
        cached = self.__dict__.get("_degree_groups_cache")
        if cached is None:
            degrees = self.closed_in_degrees
            values, inverse = np.unique(degrees, return_inverse=True)
            groups: List[Tuple[int, np.ndarray]] = []
            for g, degree in enumerate(values):
                ids = np.flatnonzero(inverse == g)
                ids.setflags(write=False)
                groups.append((int(degree), ids))
            cached = groups
            object.__setattr__(self, "_degree_groups_cache", cached)
        return cached

    def neighborhoods(self) -> Tuple[np.ndarray, np.ndarray]:
        """Padded closed-neighborhood gather indices for the batch engines.

        Returns ``(index, mask)`` of shape ``(n, k)`` with
        ``k = max closed in-degree``: row ``i`` lists agent ``i``'s closed
        in-neighborhood ascending, padded with ``0`` where ``mask`` is
        ``False``.  Gathering a message tensor ``(S, n, d)`` through
        ``index`` yields the ``(S, n, k, d)`` neighborhood stacks consumed
        by the neighborhood-wise gradient filters.  Built from the CSR
        storage in one scatter (no per-agent Python loop).  Computed once
        and cached; the returned arrays are read-only.
        """
        cached = self.__dict__.get("_neighborhoods_cache")
        if cached is None:
            indptr, indices = self._csr
            rows = _entry_rows(indptr)
            slots = np.arange(indices.size) - indptr[rows]
            k = int(self.closed_in_degrees.max())
            index = np.zeros((self.n, k), dtype=int)
            mask = np.zeros((self.n, k), dtype=bool)
            index[rows, slots] = indices
            mask[rows, slots] = True
            index.setflags(write=False)
            mask.setflags(write=False)
            cached = (index, mask)
            object.__setattr__(self, "_neighborhoods_cache", cached)
        return cached

    def directed_edges(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The graph's directed (sender → receiver) edges, slot-aligned.

        Returns ``(senders, receivers, slots)`` — three ``(E,)`` int arrays
        enumerating every *real* edge (self-messages excluded) in
        :meth:`neighborhoods` order: receiver-major, ascending sender
        within each receiver's closed neighborhood.  ``slots[e]`` is the
        padded-neighborhood slot edge ``e`` occupies in receiver
        ``receivers[e]``'s row of the ``(n, k)`` gather index, so per-edge
        state (delays, drop masks, view-round queues) scatters straight
        into the neighborhood tensors.  This is the canonical edge
        indexing of the delay-tolerant decentralized engines: a
        :class:`~repro.distsys.faults.NetworkCondition` restricted to
        ``agents=[e]`` conditions exactly edge ``e`` of this enumeration
        (see :meth:`edge_index`).  Computed once and cached; the returned
        arrays are read-only.
        """
        cached = self.__dict__.get("_directed_edges_cache")
        if cached is None:
            indptr, indices = self._csr
            rows = _entry_rows(indptr)
            slots = np.arange(indices.size) - indptr[rows]
            real = indices != rows
            cached = (indices[real], rows[real], slots[real])
            for arr in cached:
                arr.setflags(write=False)
            object.__setattr__(self, "_directed_edges_cache", cached)
        return cached

    def edge_index(self, sender: int, receiver: int) -> int:
        """Position of the ``sender → receiver`` edge in :meth:`directed_edges`.

        The handle per-edge :class:`~repro.distsys.faults.NetworkCondition`
        subsets key on — e.g. ``Stragglers({topology.edge_index(2, 3): 4.0})``
        makes only the 2→3 link slow.  Raises for absent edges (including
        self-messages, which are local and never conditioned).  The
        position map is built once, so lookups are O(1).
        """
        positions = self.__dict__.get("_edge_position_cache")
        if positions is None:
            senders, receivers, _ = self.directed_edges()
            positions = {
                (int(s), int(r)): e
                for e, (s, r) in enumerate(zip(senders, receivers))
            }
            object.__setattr__(self, "_edge_position_cache", positions)
        position = positions.get((int(sender), int(receiver)))
        if position is None:
            raise ValueError(
                f"topology {self.name!r} has no edge {sender} -> {receiver}"
            )
        return position

    # -- global structure --------------------------------------------------
    def is_connected(self) -> bool:
        """Strong connectivity (for symmetric graphs: plain connectivity).

        Agent 0 must reach every agent along the edges (a search over the
        out-neighborhoods) and be reached from every agent (a search over
        the in-neighborhoods): O(n + E), exact for any digraph.  The
        built-in families are undirected, their own transpose, so one
        search decides it.
        """
        out = self._closed_out_csr()
        return all(
            _frontier_search([graph], np.zeros(self.n, bool), 0, self.n).size
            == self.n
            for graph in ([out] if out is self._csr else [out, self._csr])
        )

    def connected_components(self) -> List[Tuple[int, ...]]:
        """Connected components of the *undirected skeleton*, as id tuples.

        Components are sorted by smallest member, members ascending — a
        stable enumeration the reporting layer keys per-component metrics
        on.  A connected graph yields one component covering every agent.
        Weak (undirected) connectivity is the right notion here: agents
        bridged in either direction still influence each other's analysis,
        while agents in different weak components evolve fully
        independently.  One frontier search per component over the in-
        and out-neighborhoods together: O(n + E) in total.
        """
        out = self._closed_out_csr()
        graphs = [out] if out is self._csr else [self._csr, out]
        seen = np.zeros(self.n, dtype=bool)
        unseen = self.n
        components: List[Tuple[int, ...]] = []
        for seed in range(self.n):
            if not seen[seed]:
                members = np.sort(_frontier_search(graphs, seen, seed, unseen))
                components.append(tuple(members.tolist()))
                unseen -= members.size
        return components

    def algebraic_connectivity(self) -> float:
        """Second-smallest Laplacian eigenvalue of the undirected skeleton.

        The classic connectivity measure λ₂ (Fiedler value): zero iff the
        graph is disconnected, and growing with how well-knit it is — the
        quantity decentralized convergence rates are usually stated in.
        A dense O(n³) eigensolve over the :attr:`adjacency` view.
        """
        undirected = (self.adjacency | self.adjacency.T).astype(float)
        laplacian = np.diag(undirected.sum(axis=1)) - undirected
        eigenvalues = np.linalg.eigvalsh(laplacian)
        return float(eigenvalues[1]) if self.n > 1 else 0.0

    def __repr__(self) -> str:
        degrees = self.in_degrees
        return (
            f"CommunicationTopology(name={self.name!r}, n={self.n},"
            f" in_degree=[{int(degrees.min())}..{int(degrees.max())}])"
        )


# -- builders ------------------------------------------------------------------

def _check_agents(n: int) -> None:
    """Every family needs at least one agent."""
    if n < 1:
        raise ValueError("topology needs at least one agent")


def _from_undirected_edges(
    name: str, n: int, ends: np.ndarray, other_ends: np.ndarray
) -> CommunicationTopology:
    """A built-in family's graph from its undirected edges, straight to CSR."""
    return CommunicationTopology._undirected(
        name,
        _closed_csr(
            n,
            np.concatenate([ends, other_ends]),
            np.concatenate([other_ends, ends]),
        ),
    )


def complete_topology(n: int) -> CommunicationTopology:
    """Every agent hears every other agent — the server-equivalent graph."""
    _check_agents(n)
    indptr = np.arange(0, n * n + 1, n)
    indices = np.arange(n * n) % n
    indptr.setflags(write=False)
    indices.setflags(write=False)
    return CommunicationTopology._undirected("complete", (indptr, indices))


def ring_topology(n: int, hops: int = 1) -> CommunicationTopology:
    """Circulant ring: each agent hears its ``hops`` nearest on each side."""
    _check_agents(n)
    if hops < 1:
        raise ValueError("hops must be positive")
    # Offsets beyond the ring diameter add no edges; name the topology by
    # the *effective* hop count so identical graphs never carry two labels.
    effective_hops = min(hops, (n - 1) // 2 + (n - 1) % 2)
    # Circulant: i hears j iff the ring distance |i - j| mod n is within
    # the hop radius (in either direction).  At small n the two directions
    # can meet (or wrap onto i itself); _closed_csr drops those repeats.
    ids = np.arange(n)
    ahead = (ids[:, None] + np.arange(1, effective_hops + 1)) % n
    name = "ring" if effective_hops <= 1 else f"ring{effective_hops}"
    return _from_undirected_edges(
        name, n, ids.repeat(effective_hops), ahead.ravel()
    )


def _near_square_factors(n: int) -> Tuple[int, int]:
    """The factor pair ``(rows, cols)`` of ``n`` with minimal aspect ratio."""
    best = (1, n)
    for rows in range(2, int(np.sqrt(n)) + 1):
        if n % rows == 0:
            best = (rows, n // rows)
    return best


def torus_topology(
    n: int, rows: int = 0, cols: int = 0
) -> CommunicationTopology:
    """2-D torus (wrap-around grid) with 4-neighbor connectivity.

    ``rows``/``cols`` default to the most nearly square factorization of
    ``n``; for prime ``n`` that degenerates to a ``1 x n`` torus (a ring).
    Giving only one of the two derives the other from ``n``.
    """
    _check_agents(n)
    if rows or cols:
        if rows < 0 or cols < 0:
            raise ValueError(
                f"torus dimensions must be positive, got rows={rows}, cols={cols}"
            )
        rows = rows or (n // cols if cols else 0)
        cols = cols or (n // rows if rows else 0)
        if rows * cols != n:
            raise ValueError(f"torus {rows}x{cols} does not cover n={n}")
    else:
        rows, cols = _near_square_factors(n)
    ids = np.arange(n)
    r, c = ids // cols, ids % cols
    # Each agent's edges to the next row and the next column; a dimension
    # of length 1 or 2 folds them onto the agent itself or onto one
    # neighbor, and _closed_csr drops those repeats.
    below = ((r + 1) % rows) * cols + c
    right = r * cols + (c + 1) % cols
    return _from_undirected_edges(
        f"torus{rows}x{cols}",
        n,
        np.concatenate([ids, ids]),
        np.concatenate([below, right]),
    )


def random_regular_topology(
    n: int, degree: int = 3, seed: int = 0, max_attempts: int = 200
) -> CommunicationTopology:
    """Uniform-ish random ``degree``-regular graph via the pairing model.

    Draws stub matchings until one is simple (no self-loops, no repeated
    edges); requires ``n * degree`` even and ``degree < n``.
    """
    if not 0 < degree < n:
        raise ValueError(f"need 0 < degree < n, got degree={degree}, n={n}")
    if (n * degree) % 2 != 0:
        raise ValueError(
            f"no {degree}-regular graph on {n} nodes (n * degree is odd)"
        )
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n), degree)
    for _ in range(max_attempts):
        shuffled = rng.permutation(stubs)
        left, right = shuffled[0::2], shuffled[1::2]
        if np.any(left == right):
            continue
        # A matching is simple iff no undirected edge repeats.  The
        # accept/reject decision per draw is unchanged from the old
        # incremental check, so the rng stream — and hence the sampled
        # graph for a given seed — is bit-for-bit stable.
        keys = np.minimum(left, right) * n + np.maximum(left, right)
        if np.unique(keys).size != keys.size:
            continue
        return _from_undirected_edges(f"regular{degree}", n, left, right)
    raise RuntimeError(
        f"failed to sample a simple {degree}-regular graph on {n} nodes "
        f"in {max_attempts} attempts"
    )


def erdos_renyi_topology(
    n: int,
    p: float = 0.5,
    seed: int = 0,
    require_connected: bool = True,
    max_attempts: int = 200,
) -> CommunicationTopology:
    """Erdős–Rényi ``G(n, p)`` (undirected); optionally resampled until
    connected.

    The canonical *irregular* family: in-degrees differ across agents, which
    exercises the masked (ragged-neighborhood) aggregation kernels.
    """
    _check_agents(n)
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    block = max(1, _ER_BLOCK_VARIATES // n)
    for _ in range(max_attempts):
        # Each attempt consumes an (n, n) draw — half of it wasted — to
        # keep the rng stream, and hence the sampled graph per seed,
        # stable; row blocks consume the identical stream, and only the
        # strict upper triangle's hits are kept.
        lows, highs = [], []
        for start in range(0, n, block):
            rows, cols = np.nonzero(rng.random((min(block, n - start), n)) < p)
            rows += start
            upper = cols > rows
            lows.append(rows[upper])
            highs.append(cols[upper])
        topology = _from_undirected_edges(
            f"er{p:g}", n, np.concatenate(lows), np.concatenate(highs)
        )
        if not require_connected or topology.is_connected():
            return topology
    raise RuntimeError(
        f"failed to sample a connected G({n}, {p}) in {max_attempts} "
        "attempts; lower require_connected or raise p"
    )


# -- registry ------------------------------------------------------------------

#: Registry: name -> (description, accepted parameter names, builder).
_TOPOLOGIES: Dict[
    str, Tuple[str, frozenset, Callable[..., CommunicationTopology]]
] = {
    "complete": (
        "every agent hears every other agent (server-equivalent graph)",
        frozenset(),
        lambda n, seed, **kw: complete_topology(n),
    ),
    "ring": (
        "circulant ring; each agent hears its `hops` nearest per side",
        frozenset({"hops"}),
        lambda n, seed, **kw: ring_topology(n, hops=kw.get("hops", 1)),
    ),
    "torus": (
        "2-D wrap-around grid with 4-neighbor connectivity",
        frozenset({"rows", "cols"}),
        lambda n, seed, **kw: torus_topology(
            n, rows=kw.get("rows", 0), cols=kw.get("cols", 0)
        ),
    ),
    "random_regular": (
        "random simple `degree`-regular graph (pairing model)",
        frozenset({"degree"}),
        lambda n, seed, **kw: random_regular_topology(
            n, degree=kw.get("degree", 3), seed=seed
        ),
    ),
    "erdos_renyi": (
        "Erdős–Rényi G(n, p), resampled until connected; irregular degrees",
        frozenset({"p"}),
        lambda n, seed, **kw: erdos_renyi_topology(
            n, p=kw.get("p", 0.5), seed=seed
        ),
    ),
}


def available_topologies() -> List[str]:
    """Sorted registry names."""
    return sorted(_TOPOLOGIES)


def topology_descriptions() -> Dict[str, str]:
    """One-line description per registered topology family."""
    return {name: entry[0] for name, entry in sorted(_TOPOLOGIES.items())}


def make_topology(
    name: str, n: int, seed: int = 0, **params
) -> CommunicationTopology:
    """Build topology family ``name`` on ``n`` agents.

    Family-specific parameters (``hops``, ``degree``, ``p``, ``rows``,
    ``cols``) pass through as keyword arguments.
    """
    try:
        _, accepted, builder = _TOPOLOGIES[name]
    except KeyError:
        raise KeyError(
            f"unknown topology {name!r}; known: {', '.join(available_topologies())}"
        ) from None
    unknown = sorted(set(params) - accepted)
    if unknown:
        raise TypeError(
            f"topology {name!r} does not accept parameter(s) {unknown}; "
            f"accepted: {sorted(accepted) or 'none'}"
        )
    return builder(n, seed, **params)
