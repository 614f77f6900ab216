import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridres.eigen
import gridres.linsolve
import gridres.resistance
from gridres import (
    DisconnectedGraph,
    Explicit,
    GroundedSolver,
    Hypercube,
    InvalidFamily,
    Overflow,
    Ring,
    SizeExceeded,
    Torus,
    build_laplacian,
    hypercube_ad_direct,
    hypercube_ad_recursive,
    hypercube_spectrum,
    pairwise_reff,
    rave,
    rave_definition_oracle,
    rave_dense_spectral,
    rave_hypercube_binomial,
    rave_hypercube_recursive,
    rave_ring_exact,
    rave_torus,
    spectral_rave,
    torus_spectrum,
)
from gridres.verify import random_connected_graph

K3 = Explicit(3, [(0, 1), (1, 2), (0, 2)])


def test_ring_exact_examples():
    assert rave_ring_exact(1).value == 0.0
    assert abs(rave_ring_exact(3).value - 2.0 / 9.0) <= 1e-16
    assert abs(rave_ring_exact(12).value - 143.0 / 144.0) <= 1e-15
    assert rave_ring_exact(5).method == "closed_form"
    with pytest.raises(InvalidFamily):
        rave_ring_exact(0)


def test_closed_forms_reject_non_integer_arguments():
    with pytest.raises(InvalidFamily, match="integer"):
        rave_ring_exact(2.5)
    with pytest.raises(InvalidFamily, match="integer"):
        rave_hypercube_binomial(2.5)
    assert rave_ring_exact(np.int64(3)).value == rave_ring_exact(3).value


@pytest.mark.parametrize(
    "entry",
    [
        hypercube_spectrum,
        rave_hypercube_binomial,
        rave_hypercube_recursive,
        hypercube_ad_direct,
        hypercube_ad_recursive,
    ],
)
def test_hypercube_dimension_checked_as_family(entry):
    with pytest.raises(InvalidFamily, match="integer"):
        entry(2.5)
    with pytest.raises(InvalidFamily):
        entry(-1)
    entry(np.int64(3))


@pytest.mark.parametrize("m", [3, 10, 100, 1000, 10000])
def test_ring_spectral_cross_check(m):
    exact = rave_ring_exact(m).value
    # rave_torus sums the ring's one axis in closed form; the enumerated
    # spectrum is the route independent of the ring formula.
    for spectral in (rave_torus([m]).value, spectral_rave(torus_spectrum([m])).value):
        assert abs(spectral - exact) <= 1e-10 * exact


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(3, 16), min_size=1, max_size=5))
def test_rave_torus_closed_axis_matches_enumeration(dims):
    closed = rave_torus(dims)
    enumerated = spectral_rave(torus_spectrum(dims))
    gap = abs(closed.value - enumerated.value)
    assert gap <= closed.err_bound + enumerated.err_bound
    assert gap <= 1e-14 * enumerated.value
    assert (closed.method, closed.terms) == ("spectral", enumerated.terms)


def test_rave_torus_thread_invariance_multi_block():
    # 4^10 nodes: 4^9 = 262,144 rows over the closed axis, four base blocks
    values = [rave_torus((4,) * 10, threads=t) for t in (1, 2, 8)]
    assert values[0] == values[1] == values[2]


def test_rave_torus_examples():
    assert abs(rave_torus([3, 3]).value - 2.0 / 9.0) <= 1e-15
    assert abs(rave_torus([4, 4]).value - 103.0 / 384.0) <= 1e-15
    assert abs(rave_torus([4]).value - 5.0 / 16.0) <= 1e-15


def test_rave_torus_term_cap():
    with pytest.raises(SizeExceeded):
        rave_torus([100, 100], max_terms=5000)


def test_hypercube_binomial_examples():
    assert abs(rave_hypercube_binomial(1).value - 0.25) <= 1e-16
    assert abs(rave_hypercube_binomial(2).value - 5.0 / 16.0) <= 1e-16
    assert abs(rave_hypercube_binomial(3).value - 29.0 / 96.0) <= 1e-15
    with pytest.raises(Overflow):
        rave_hypercube_binomial(64)


def test_hypercube_recursive_examples():
    assert rave_hypercube_recursive(0).value == 0.0
    assert abs(rave_hypercube_recursive(2).value - 5.0 / 16.0) <= 1e-15
    assert abs(rave_hypercube_recursive(3).value - 29.0 / 96.0) <= 1e-15
    assert rave_hypercube_recursive(3).method == "recursion"


@pytest.mark.parametrize("d", list(range(1, 31)) + [45, 63])
def test_hypercube_three_way_agreement(d):
    binom = rave_hypercube_binomial(d).value
    rec = rave_hypercube_recursive(d).value
    assert abs(binom - rec) <= 1e-12 * binom
    if d <= 30:
        spect = spectral_rave(hypercube_spectrum(d)).value
        assert abs(binom - spect) <= 1e-12 * binom


def test_pairwise_ring_closed_form():
    # two arcs of l and M - l unit resistors in parallel
    for m in (5, 9, 16):
        for l in range(1, m):
            expected = l * (m - l) / m
            assert abs(pairwise_reff(Ring(m), 0, l) - expected) <= 1e-10


def test_pairwise_examples():
    assert abs(pairwise_reff(Ring(5), 0, 2) - 1.2) <= 1e-12
    assert abs(pairwise_reff(Ring(4), 0, 2) - 1.0) <= 1e-12
    assert abs(pairwise_reff(K3, 1, 2) - 2.0 / 3.0) <= 1e-12


def test_pairwise_validation():
    with pytest.raises(ValueError):
        pairwise_reff(K3, 1, 1)
    with pytest.raises(ValueError):
        pairwise_reff(K3, 0, 5)


def test_pairwise_rejects_non_integer_nodes():
    path = Explicit(3, [(0, 1), (1, 2)])
    with pytest.raises(InvalidFamily, match="integer"):
        pairwise_reff(path, 1.5, 0)
    with pytest.raises(InvalidFamily, match="integer"):
        pairwise_reff(path, 0, 2.0)
    assert pairwise_reff(path, np.int64(0), np.int64(2)) == pairwise_reff(path, 0, 2)


def test_pairwise_disconnected_graph():
    two_edges = Explicit(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraph):
        pairwise_reff(two_edges, 0, 2)  # u and v in different components
    with pytest.raises(DisconnectedGraph):
        pairwise_reff(two_edges, 0, 1)  # same component, another one exists
    with pytest.raises(DisconnectedGraph):
        pairwise_reff(Explicit(3, [(0, 1)]), 1, 0)  # an isolated third node


def test_pairwise_two_nodes():
    assert pairwise_reff(Explicit(2, [(0, 1)]), 0, 1) == 1.0
    assert pairwise_reff(Hypercube(1), 1, 0) == 1.0


def test_pairwise_reads_the_pivot_without_solving(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("pairwise_reff ran a solve or a triangular substitution")

    monkeypatch.setattr(gridres.linsolve.GroundedSolver, "solve", forbidden)
    monkeypatch.setattr(gridres.linsolve, "_solve_lower", forbidden)
    monkeypatch.setattr(gridres.linsolve, "_solve_upper", forbidden)
    assert abs(pairwise_reff(Ring(5), 0, 2) - 1.2) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_pairwise_foster_theorem(seed):
    # Foster: over the edges of a connected graph, sum R_e = n - 1.
    g = random_connected_graph(np.random.Generator(np.random.PCG64(seed)), max_nodes=40)
    total = math.fsum(pairwise_reff(g, u, v) for u, v in g.edges)
    assert abs(total - (g.n - 1)) <= 1e-10 * g.n


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_pairwise_matches_green_matrix(seed):
    # Grounding node 0 and solving for every column shares neither the
    # elimination order nor the pivot read-off with pairwise_reff.
    rng = np.random.Generator(np.random.PCG64(seed))
    g = random_connected_graph(rng, max_nodes=40)
    green = GroundedSolver(build_laplacian(g), 0).green_matrix()
    for _ in range(5):
        u, v = (int(x) for x in rng.choice(g.n, size=2, replace=False))
        expected = green[u, u] + green[v, v] - 2.0 * green[u, v]
        assert abs(pairwise_reff(g, u, v) - expected) <= 1e-12 * expected


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_pairwise_symmetry_and_metric(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    g = random_connected_graph(rng, max_nodes=12)
    if g.n < 3:
        return
    u, v, w = [int(x) for x in rng.choice(g.n, size=3, replace=False)]
    r_uv = pairwise_reff(g, u, v)
    assert r_uv > 0.0
    assert abs(r_uv - pairwise_reff(g, v, u)) <= 1e-10
    r_uw = pairwise_reff(g, u, w)
    r_vw = pairwise_reff(g, v, w)
    assert r_uw <= r_uv + r_vw + 1e-10


def test_oracle_examples():
    assert abs(rave_definition_oracle(K3).value - 2.0 / 9.0) <= 1e-14
    assert abs(rave_definition_oracle(Ring(4)).value - 5.0 / 16.0) <= 1e-14
    assert abs(rave_definition_oracle(Hypercube(3)).value - 29.0 / 96.0) <= 1e-14
    assert rave_definition_oracle(K3).method == "oracle_definition"
    assert rave_definition_oracle(K3).terms == 3


def test_oracle_node_cap():
    with pytest.raises(SizeExceeded):
        rave_definition_oracle(Hypercube(9))


def test_oracle_vs_spectral_sample():
    # the full small-family sweep runs in the acceptance suite
    for family in (Torus((3, 7)), Torus((5, 5)), Hypercube(5)):
        spectral = rave(family).value
        oracle = rave_definition_oracle(family).value
        assert abs(spectral - oracle) <= 1e-8 * oracle


def test_single_node_values_are_zero():
    assert rave_ring_exact(1).value == 0.0
    assert rave_hypercube_binomial(0).value == 0.0
    assert rave_definition_oracle(Hypercube(0)).value == 0.0


def test_rave_dispatch():
    assert rave(Ring(6)).method == "closed_form"
    assert rave(Torus((4, 4))).method == "spectral"
    assert rave(Hypercube(3)).method == "closed_form"
    explicit = rave(K3)
    assert explicit.method == "green_trace"
    assert abs(explicit.value - 2.0 / 9.0) <= 1e-14
    # err_bound covers the rounding of the two compensated sums only
    assert 0.0 <= explicit.err_bound <= 1e-14 * explicit.value
    assert rave_dense_spectral(K3).method == "spectral"


def test_green_trace_matches_jacobi_and_oracle():
    rng = np.random.Generator(np.random.PCG64(2024))
    for _ in range(20):
        g = random_connected_graph(rng, max_nodes=50)
        value = rave(g).value
        for reference in (rave_dense_spectral(g).value, rave_definition_oracle(g).value):
            assert abs(value - reference) <= 1e-10 * reference


def test_green_trace_never_calls_jacobi(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("rave of an explicit graph called the dense eigensolver")

    monkeypatch.setattr(gridres.eigen, "eigenvalues_symmetric", forbidden)
    monkeypatch.setattr(gridres.resistance, "eigenvalues_symmetric", forbidden)
    g = random_connected_graph(np.random.Generator(np.random.PCG64(7)), max_nodes=30)
    assert rave(g).method == "green_trace"
    assert rave(Explicit(1, [])).value == 0.0


def test_rave_disconnected_explicit_graph():
    with pytest.raises(DisconnectedGraph):
        rave(Explicit(4, [(0, 1), (2, 3)]))
    with pytest.raises(DisconnectedGraph):
        rave_dense_spectral(Explicit(4, [(0, 1), (2, 3)]))


def test_growth_coefficient_values():
    assert hypercube_ad_recursive(0) == 0.0
    assert hypercube_ad_direct(0) == 0.0
    assert abs(hypercube_ad_recursive(1) - 0.5) <= 1e-16
    assert abs(hypercube_ad_direct(2) - 1.0) <= 1e-15
    assert abs(hypercube_ad_direct(3) - 1.25) <= 1e-15
    for d in range(0, 41):
        direct = hypercube_ad_direct(d)
        rec = hypercube_ad_recursive(d)
        assert abs(direct - rec) <= 1e-12 * max(direct, 1.0)


def test_growth_coefficient_direct_beyond_float_powers():
    # 2**1100 is outside the float range; the direct sum must still agree.
    direct = hypercube_ad_direct(1100)
    assert abs(direct - hypercube_ad_recursive(1100)) <= 1e-12 * direct


def test_growth_coefficient_shape():
    values = [hypercube_ad_direct(d) for d in range(0, 30)]
    assert all(v > 1.0 for v in values[3:])
    assert all(values[d + 1] < values[d] for d in range(5, 29))
