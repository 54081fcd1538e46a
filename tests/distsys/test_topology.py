"""Tests for the communication-topology layer."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distsys.topology import (
    CommunicationTopology,
    available_topologies,
    complete_topology,
    erdos_renyi_topology,
    make_topology,
    random_regular_topology,
    ring_topology,
    topology_descriptions,
    torus_topology,
)


class TestInvariants:
    @pytest.mark.parametrize(
        "topology",
        [
            complete_topology(7),
            ring_topology(8),
            ring_topology(9, hops=2),
            torus_topology(6),
            torus_topology(12, rows=3, cols=4),
            random_regular_topology(10, degree=3, seed=1),
            erdos_renyi_topology(9, p=0.5, seed=4),
        ],
    )
    def test_symmetric_no_self_loops_connected(self, topology):
        assert np.array_equal(topology.adjacency, topology.adjacency.T)
        assert not np.any(np.diag(topology.adjacency))
        assert topology.is_connected()
        assert topology.algebraic_connectivity() > 1e-9

    def test_rejects_self_loops(self):
        adjacency = np.ones((3, 3), dtype=bool)
        with pytest.raises(ValueError, match="diagonal"):
            CommunicationTopology("bad", adjacency)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            CommunicationTopology("bad", np.ones((2, 3), dtype=bool))

    def test_disconnected_detected(self):
        adjacency = np.zeros((4, 4), dtype=bool)
        adjacency[0, 1] = adjacency[1, 0] = True
        adjacency[2, 3] = adjacency[3, 2] = True
        topology = CommunicationTopology("two-islands", adjacency)
        assert not topology.is_connected()
        assert topology.algebraic_connectivity() == pytest.approx(0.0, abs=1e-9)


class TestFamilies:
    def test_complete_degrees(self):
        topology = complete_topology(6)
        assert topology.is_complete and topology.is_regular
        assert list(topology.in_degrees) == [5] * 6

    def test_ring_neighbors(self):
        topology = ring_topology(6)
        assert sorted(topology.in_neighbors(0)) == [1, 5]
        assert sorted(topology.closed_in_neighbors(0)) == [0, 1, 5]
        assert topology.is_regular and not topology.is_complete

    def test_ring_two_hops(self):
        topology = ring_topology(7, hops=2)
        assert sorted(topology.in_neighbors(0)) == [1, 2, 5, 6]

    def test_small_ring_is_complete(self):
        assert ring_topology(3).is_complete

    def test_ring_named_by_effective_hops(self):
        # hops beyond the diameter add no edges; the label must not claim
        # otherwise (identical graphs would otherwise carry two names).
        capped = ring_topology(6, hops=10)
        assert capped.name == "ring3"
        assert np.array_equal(capped.adjacency, ring_topology(6, hops=3).adjacency)

    def test_torus_factorization(self):
        topology = torus_topology(6)
        assert topology.name == "torus2x3"
        assert topology.is_regular

    def test_torus_shape_mismatch(self):
        with pytest.raises(ValueError, match="does not cover"):
            torus_topology(6, rows=2, cols=4)

    def test_torus_one_sided_specification(self):
        # Giving only rows (or only cols) derives the other dimension.
        assert torus_topology(12, rows=2).name == "torus2x6"
        assert torus_topology(12, cols=4).name == "torus3x4"
        with pytest.raises(ValueError, match="does not cover"):
            torus_topology(10, rows=3)

    def test_torus_negative_dimensions_rejected(self):
        # -2 x -5 "covers" 10 arithmetically but would build an edgeless
        # graph; dimensions must be positive.
        with pytest.raises(ValueError, match="positive"):
            torus_topology(10, rows=-2)
        with pytest.raises(ValueError, match="positive"):
            torus_topology(10, rows=-2, cols=-5)

    def test_random_regular_is_regular(self):
        topology = random_regular_topology(12, degree=4, seed=7)
        assert topology.is_regular
        assert list(topology.in_degrees) == [4] * 12

    def test_random_regular_parity_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            random_regular_topology(5, degree=3)

    def test_erdos_renyi_is_irregular_often(self):
        topology = erdos_renyi_topology(12, p=0.4, seed=0)
        assert topology.is_connected()
        # not a hard guarantee for any single seed, but this seed is pinned
        assert not topology.is_regular

    def test_erdos_renyi_determinism(self):
        a = erdos_renyi_topology(10, p=0.5, seed=3)
        b = erdos_renyi_topology(10, p=0.5, seed=3)
        assert np.array_equal(a.adjacency, b.adjacency)


class TestNeighborhoods:
    def test_padded_gather_structure(self):
        topology = erdos_renyi_topology(8, p=0.45, seed=2)
        index, mask = topology.neighborhoods()
        assert index.shape == mask.shape
        assert index.shape[1] == int(topology.closed_in_degrees.max())
        for i in range(topology.n):
            valid = index[i, mask[i]]
            assert list(valid) == list(topology.closed_in_neighbors(i))
            assert i in valid  # closed neighborhoods include self

    def test_complete_neighborhoods_are_everyone(self):
        index, mask = complete_topology(5).neighborhoods()
        assert mask.all()
        assert np.array_equal(index, np.tile(np.arange(5), (5, 1)))


def _fingerprint(topology):
    return hashlib.sha256(
        np.packbits(topology.adjacency).tobytes()
    ).hexdigest()[:16]


class TestSeedStability:
    """Pin builder outputs against the pre-vectorization implementations.

    The builders were rewritten from Python loops to vectorized NumPy;
    these digests were recorded from the loop-based code, so a mismatch
    means a seed's graph silently changed (which would invalidate every
    pinned decentralized trajectory downstream).
    """

    @pytest.mark.parametrize(
        "n, hops, digest",
        [
            (2, 1, "8d33f520a3c4cef8"),
            (3, 1, "8c574afa5655a72c"),
            (6, 1, "361744ff5c3e570d"),
            (6, 2, "b3994ce465d659c9"),
            (7, 3, "b9d6beb63114c855"),
            (12, 2, "a2567c38999212c4"),
            (64, 1, "77f0810e973f1c19"),
        ],
    )
    def test_ring_pinned(self, n, hops, digest):
        assert _fingerprint(ring_topology(n, hops=hops)) == digest

    @pytest.mark.parametrize(
        "n, digest",
        [
            (6, "7ac10030e1a80de6"),
            (12, "22f0628ab01570fc"),
            (13, "46a5f96add766f7d"),
            (64, "a0bd4451c954b2e7"),
        ],
    )
    def test_torus_pinned(self, n, digest):
        assert _fingerprint(torus_topology(n)) == digest

    @pytest.mark.parametrize(
        "n, degree, seed, digest",
        [
            (6, 3, 0, "af1eae7d6de9e867"),
            (12, 3, 7, "3d6f7515ef6f00b3"),
            (64, 4, 1, "1f02b06b101008f5"),
        ],
    )
    def test_random_regular_pinned(self, n, degree, seed, digest):
        topology = random_regular_topology(n, degree=degree, seed=seed)
        assert _fingerprint(topology) == digest

    @pytest.mark.parametrize(
        "n, p, seed, digest",
        [
            (6, 0.5, 0, "65bf1a64bf2e589d"),
            (12, 0.4, 2, "ba63e06cb983a3ab"),
            (64, 0.2, 5, "c6eae45c7074df00"),
        ],
    )
    def test_erdos_renyi_pinned(self, n, p, seed, digest):
        topology = erdos_renyi_topology(n, p=p, seed=seed)
        assert _fingerprint(topology) == digest


class TestSparseStorage:
    def test_csr_matches_closed_neighbors(self):
        topology = erdos_renyi_topology(12, p=0.4, seed=2)
        indptr, indices = topology.neighbor_csr()
        assert indptr.shape == (topology.n + 1,)
        assert indptr[0] == 0 and indptr[-1] == indices.size
        for i in range(topology.n):
            row = indices[indptr[i] : indptr[i + 1]]
            assert np.array_equal(row, topology.closed_in_neighbors(i))

    def test_csr_cached_and_read_only(self):
        topology = ring_topology(8)
        indptr, indices = topology.neighbor_csr()
        again = topology.neighbor_csr()
        assert again[0] is indptr and again[1] is indices
        assert not indptr.flags.writeable and not indices.flags.writeable

    def test_csr_agrees_with_padded_neighborhoods(self):
        topology = erdos_renyi_topology(16, p=0.3, seed=9)
        indptr, indices = topology.neighbor_csr()
        index, mask = topology.neighborhoods()
        for i in range(topology.n):
            assert np.array_equal(
                index[i, mask[i]], indices[indptr[i] : indptr[i + 1]]
            )

    def test_degree_groups_partition_agents(self):
        topology = erdos_renyi_topology(14, p=0.35, seed=4)
        groups = topology.degree_groups()
        degrees = [degree for degree, _ in groups]
        assert degrees == sorted(degrees)
        seen = np.concatenate([ids for _, ids in groups])
        assert sorted(seen.tolist()) == list(range(topology.n))
        for degree, ids in groups:
            assert np.all(topology.closed_in_degrees[ids] == degree)
            assert not ids.flags.writeable

    def test_degree_groups_regular_graph_is_one_group(self):
        groups = ring_topology(10).degree_groups()
        assert len(groups) == 1
        degree, ids = groups[0]
        assert degree == 3 and ids.size == 10

    def test_large_ring_neighborhoods_fast_path(self):
        # n = 1024 exercises the vectorized construction; the padded
        # gather must still agree with the per-row definition at spot
        # checks on both ends and the middle.
        topology = ring_topology(1024)
        index, mask = topology.neighborhoods()
        assert index.shape == (1024, 3)
        assert mask.all()
        for i in (0, 511, 1023):
            assert np.array_equal(
                np.sort(index[i]), topology.closed_in_neighbors(i)
            )


class TestRegistry:
    def test_names_and_descriptions_align(self):
        names = available_topologies()
        descriptions = topology_descriptions()
        assert set(names) == set(descriptions)
        assert all(descriptions[name] for name in names)
        assert {"complete", "ring", "torus", "random_regular", "erdos_renyi"} <= set(
            names
        )

    def test_make_topology_params(self):
        assert make_topology("ring", 8, hops=2).name == "ring2"
        assert make_topology("random_regular", 8, seed=1, degree=4).is_regular
        assert make_topology("complete", 4).is_complete

    @pytest.mark.parametrize("name", available_topologies())
    @pytest.mark.parametrize("n", [0, -3])
    def test_no_agents_rejected(self, name, n):
        with pytest.raises(ValueError):
            make_topology(name, n)

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown topology"):
            make_topology("hypercube", 8)

    def test_unknown_parameters_rejected(self):
        # A typo'd or wrong-family option must not silently build the
        # default graph.
        with pytest.raises(TypeError, match="does not accept"):
            make_topology("ring", 10, hop=2)  # typo for hops
        with pytest.raises(TypeError, match="does not accept"):
            make_topology("torus", 12, hops=2)  # wrong family
        with pytest.raises(TypeError, match="does not accept"):
            make_topology("random_regular", 10, degre=5)


class TestConnectedComponents:
    def test_connected_graph_is_one_component(self):
        topology = make_topology("ring", 8)
        assert topology.connected_components() == [tuple(range(8))]

    def test_split_graph_enumerates_stably(self):
        # Two cliques {0,2,4} and {1,3,5}: components sort by smallest
        # member, members ascending.
        n = 6
        adjacency = np.zeros((n, n), dtype=bool)
        for i in range(n):
            for j in range(n):
                if i != j and i % 2 == j % 2:
                    adjacency[i, j] = True
        topology = CommunicationTopology("parity", adjacency)
        assert topology.connected_components() == [(0, 2, 4), (1, 3, 5)]

    def test_directed_bridge_merges_weakly(self):
        # A single one-way edge joins the halves: weak connectivity is the
        # right notion, so this is ONE component.
        n = 4
        adjacency = np.zeros((n, n), dtype=bool)
        adjacency[0, 1] = adjacency[1, 0] = True
        adjacency[2, 3] = adjacency[3, 2] = True
        adjacency[1, 2] = True
        topology = CommunicationTopology("bridged", adjacency)
        assert topology.connected_components() == [(0, 1, 2, 3)]


# -- dense reference ----------------------------------------------------------
# The pre-CSR connectivity code, kept as the oracle: matvec reachability
# (O(diameter * n^2)) and the component loop over the symmetrised matrix.


def _reachable(adjacency):
    """Receivers reachable from agent 0, by repeated dense matvecs."""
    frontier = np.zeros(adjacency.shape[0], dtype=bool)
    frontier[0] = True
    while True:
        # receivers reachable in one more hop: i with an edge from any
        # already-reached j (adjacency[i, j]).
        expanded = frontier | (adjacency @ frontier)
        if np.array_equal(expanded, frontier):
            return frontier
        frontier = expanded


def reference_is_connected(adjacency):
    if adjacency.shape[0] == 1:
        return True
    return bool(_reachable(adjacency).all() and _reachable(adjacency.T).all())


def reference_components(adjacency):
    undirected = adjacency | adjacency.T
    unassigned = np.ones(adjacency.shape[0], dtype=bool)
    components = []
    while unassigned.any():
        member = np.zeros(adjacency.shape[0], dtype=bool)
        member[np.flatnonzero(unassigned)[0]] = True
        while True:
            expanded = member | (undirected @ member)
            if np.array_equal(expanded, member):
                break
            member = expanded
        components.append(tuple(np.flatnonzero(member).tolist()))
        unassigned &= ~member
    return components


@st.composite
def digraphs(draw):
    """Random digraphs on 1..40 agents: sparse to dense, symmetric or not,
    optionally threaded on a directed Hamiltonian cycle (strongly
    connected but asymmetric)."""
    n = draw(st.integers(1, 40))
    p = draw(st.sampled_from([0.0, 0.02, 0.05, 0.1, 0.2, 0.5, 0.9]))
    symmetric = draw(st.booleans())
    cycle = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    adjacency = rng.random((n, n)) < p
    if cycle:
        order = rng.permutation(n)
        adjacency[order, np.roll(order, 1)] = True
    if symmetric:
        adjacency |= adjacency.T
    np.fill_diagonal(adjacency, False)
    return adjacency


class TestConnectivityOracle:
    @given(digraphs())
    @settings(max_examples=300, deadline=None)
    def test_matches_dense_reference(self, adjacency):
        topology = CommunicationTopology("random", adjacency)
        assert topology.is_connected() == reference_is_connected(adjacency)
        assert topology.connected_components() == reference_components(
            adjacency
        )

    @pytest.mark.parametrize(
        "edges, connected, components",
        [
            # directed cycle 0 -> 1 -> 2 -> 0: strongly connected
            ([(1, 0), (2, 1), (0, 2)], True, [(0, 1, 2)]),
            # directed path 0 -> 1 -> 2: one weak component, not strong
            ([(1, 0), (2, 1)], False, [(0, 1, 2)]),
            # everyone hears agent 0, agent 0 hears no one
            ([(1, 0), (2, 0)], False, [(0, 1, 2)]),
            ([(2, 1), (1, 2)], False, [(0,), (1, 2)]),
        ],
    )
    def test_directed_cases(self, edges, connected, components):
        adjacency = np.zeros((3, 3), dtype=bool)
        adjacency[tuple(zip(*edges))] = True
        topology = CommunicationTopology("d", adjacency)
        assert topology.is_connected() == connected
        assert topology.connected_components() == components


class TestCsrStorage:
    def test_edgeless_graph(self):
        topology = CommunicationTopology("isolated", np.zeros((4, 4), bool))
        assert topology.in_degrees.tolist() == [0] * 4
        assert topology.directed_edges()[0].size == 0
        assert topology.connected_components() == [(0,), (1,), (2,), (3,)]
        assert not topology.is_connected()

    def test_adjacency_is_a_cached_read_only_view(self):
        topology = ring_topology(6)
        assert "_adjacency_cache" not in vars(topology)
        view = topology.adjacency
        assert topology.adjacency is view
        assert not view.flags.writeable
        assert view.sum() == topology.in_degrees.sum()

    def test_dense_input_is_not_aliased(self):
        adjacency = np.zeros((3, 3), dtype=bool)
        adjacency[0, 1] = adjacency[1, 0] = True
        topology = CommunicationTopology("g", adjacency)
        adjacency[2, 0] = True
        assert topology.in_neighbors(2).size == 0

    def test_immutable(self):
        topology = ring_topology(5)
        with pytest.raises(AttributeError, match="immutable"):
            topology.name = "other"

    def test_out_neighbors_of_a_digraph(self):
        adjacency = np.zeros((4, 4), dtype=bool)
        adjacency[[1, 2, 3, 0], [0, 0, 1, 3]] = True
        topology = CommunicationTopology("d", adjacency)
        for agent in range(4):
            assert np.array_equal(
                topology.out_neighbors(agent),
                np.flatnonzero(adjacency[:, agent]),
            )
            assert np.array_equal(
                topology.in_neighbors(agent), np.flatnonzero(adjacency[agent])
            )

    def test_directed_edges_match_padded_neighborhoods(self):
        # The enumeration the delay engines index per-edge state by: the
        # non-self slots of the padded gather, receiver-major.
        topology = erdos_renyi_topology(13, p=0.35, seed=6)
        index, mask = topology.neighborhoods()
        real = mask & (index != np.arange(topology.n)[:, None])
        receivers, slots = np.nonzero(real)
        expected = (index[receivers, slots], receivers, slots)
        for got, want in zip(topology.directed_edges(), expected):
            assert np.array_equal(got, want)

    def test_graph_key_ignores_names_only(self):
        a = ring_topology(7, hops=2)
        b = CommunicationTopology("renamed", a.adjacency)
        assert a.graph_key == b.graph_key
        assert a.graph_key != ring_topology(7).graph_key
        assert (
            CommunicationTopology("g", np.zeros((2, 2), bool)).graph_key
            != CommunicationTopology("g", np.zeros((1, 1), bool)).graph_key
        )
