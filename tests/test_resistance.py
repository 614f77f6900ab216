import math
import sys
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridres.eigen
import gridres.linsolve
import gridres.resistance
import gridres.summation
from gridres import (
    DisconnectedGraph,
    DisconnectedSpectrum,
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
from gridres.verify import hypercube_exact, random_connected_graph, small_family_set

K3 = Explicit(3, [(0, 1), (1, 2), (0, 2)])


def test_ring_exact_examples():
    assert rave_ring_exact(1).value == 0.0
    assert abs(rave_ring_exact(3).value - 2.0 / 9.0) <= 1e-16
    assert abs(rave_ring_exact(12).value - 143.0 / 144.0) <= 1e-15
    assert rave_ring_exact(5).method == "closed_form"
    with pytest.raises(InvalidFamily):
        rave_ring_exact(0)
    assert rave_ring_exact(10**300).value == 10**300 / 12.0
    with pytest.raises(Overflow):
        rave_ring_exact(10**400)


def test_closed_forms_reject_non_integer_arguments():
    with pytest.raises(InvalidFamily, match="integer"):
        rave_ring_exact(2.5)
    with pytest.raises(InvalidFamily, match="integer"):
        rave_hypercube_binomial(2.5)
    assert rave_ring_exact(np.int64(3)).value == rave_ring_exact(3).value


@pytest.mark.parametrize(
    "entry",
    [
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
    # 4^10 nodes: 55 folded rows over the closed axis, one base block;
    # test_spectrum covers a folded sum over several blocks
    values = [rave_torus((4,) * 10, threads=t) for t in (1, 2, 8)]
    assert values[0] == values[1] == values[2]


def test_rave_torus_examples():
    assert abs(rave_torus([3, 3]).value - 2.0 / 9.0) <= 1e-15
    assert abs(rave_torus([4, 4]).value - 103.0 / 384.0) <= 1e-15
    assert abs(rave_torus([4]).value - 5.0 / 16.0) <= 1e-15


@pytest.mark.parametrize("max_terms", [None, 2.5, "51", True, 0, -1])
def test_max_terms_validated(max_terms):
    # the positive-integer rule that threads follows, on every route of rave
    families = (Ring(5), Torus((4, 4)), Hypercube(3), Explicit(3, [(0, 1), (1, 2)]))
    calls = [lambda: rave_torus((4, 4), max_terms=max_terms)]
    calls += [lambda g=g: rave(g, max_terms=max_terms) for g in families]
    for call in calls:
        with pytest.raises(InvalidFamily, match="max_terms"):
            call()
    assert rave_torus((4, 4), max_terms=np.int64(3)) == rave_torus((4, 4))  # its 3 folded rows


def test_rave_torus_term_cap():
    # max_terms caps folded rows: the other side of 100 x 100 keeps its 51
    # half-table entries, while N = 10,000.
    with pytest.raises(SizeExceeded):
        rave_torus([100, 100], max_terms=50)
    assert rave_torus([100, 100], max_terms=51) == rave_torus([100, 100])


def test_rave_torus_reaches_large_dimensions():
    # 32^8 has 2^40 nodes and folds to 245,157 rows, inside the default cap.
    result = rave_torus((32,) * 8)
    assert result.terms == 2**40 - 1
    assert 0.0 < result.value < rave_torus((32,) * 7).value


@pytest.mark.parametrize("d", [3, 14, 32, 40, 100])
def test_torus_of_fours_is_a_hypercube(d):
    # C_4 is Q_2, so the torus (4,)^d is the hypercube Q_{2d}, summed by a
    # route that shares nothing with the hypercube recursion or binomial sum.
    expected = rave_hypercube_recursive(2 * d).value
    value = rave_torus((4,) * d).value
    assert abs(value - expected) <= 1e-14 * expected
    assert abs(rave_hypercube_binomial(2 * d).value - value) <= 1e-14 * expected


@pytest.mark.parametrize("dims", [(4,) * 513, (3,) * 700, (10**200,)], ids=["4^513", "3^700", "1e200"])
def test_rave_torus_refuses_float_overflow(dims):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Overflow):
            rave_torus(dims)


def test_hypercube_binomial_examples():
    assert abs(rave_hypercube_binomial(1).value - 0.25) <= 1e-16
    assert abs(rave_hypercube_binomial(2).value - 5.0 / 16.0) <= 1e-16
    assert abs(rave_hypercube_binomial(3).value - 29.0 / 96.0) <= 1e-15
    # The binomials are exact Python ints, so d = 64 computes; 2^1024 leaves the float range.
    expected = rave_hypercube_recursive(64).value
    assert abs(rave_hypercube_binomial(64).value - expected) <= 1e-14 * expected
    with pytest.raises(Overflow):
        rave_hypercube_binomial(1024)


@pytest.mark.parametrize("d", [0, 1, 2, 3, 50, 300, 1023])
def test_hypercube_binomial_running_product_is_the_comb_sum(d):
    # the running product yields the same exact integers as math.comb, so
    # every term, and so the value and its bound, are bit for bit the same
    terms = np.array([math.comb(d, m) / (2.0 * m) for m in range(d, 0, -1)], dtype=np.float64)
    acc = gridres.summation.block_sum(terms)
    result = rave_hypercube_binomial(d)
    assert (result.value, result.err_bound) == (acc.value / float(2**d), acc.err_bound / float(2**d))


def test_hypercube_recursive_examples():
    assert rave_hypercube_recursive(0).value == 0.0
    assert abs(rave_hypercube_recursive(2).value - 5.0 / 16.0) <= 1e-15
    assert abs(rave_hypercube_recursive(3).value - 29.0 / 96.0) <= 1e-15
    assert rave_hypercube_recursive(3).method == "recursion"


@pytest.mark.parametrize("d", list(range(1, 31)) + [45, 63, 200, 1023])
def test_hypercube_three_way_agreement(d):
    # The third side is exact: 2^-d sum C(d, m) / (2m) as a rational, which
    # the recursion r(k) = r(k-1)/2 + (1 - 2^-k)/(2k) reproduces exactly.
    exact = hypercube_exact(d)
    recursion = Fraction(0)
    for k in range(1, d + 1):
        recursion = recursion / 2 + (1 - Fraction(1, 2**k)) / (2 * k)
    assert recursion == exact
    for route in (rave_hypercube_binomial, rave_hypercube_recursive):
        result = route(d)
        assert abs(Fraction(result.value) - exact) <= Fraction(result.err_bound)


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
    with pytest.raises(InvalidFamily, match="integer"):
        pairwise_reff(path, True, 0)
    with pytest.raises(InvalidFamily, match="integer"):
        pairwise_reff(path, 0, True)
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
        raise AssertionError("pairwise_reff built a GroundedSolver or an inverse factor")

    monkeypatch.setattr(gridres.linsolve.GroundedSolver, "__init__", forbidden)
    monkeypatch.setattr(gridres.linsolve, "_inverse_factor", forbidden)
    assert abs(pairwise_reff(Ring(5), 0, 2) - 1.2) <= 1e-12


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info < (3, 11),
    reason="a called Python function owns its argument references from CPython 3.11",
)
def test_factorization_runs_without_the_laplacian(monkeypatch):
    # rave's Green trace and the oracle hand their Laplacian to the solver,
    # which drops it once the stacked system holds it: nothing keeps the
    # n x n array alive through the column loop.
    build, left_looking = gridres.resistance.build_laplacian, gridres.linsolve._left_looking
    laplacians, alive = [], []

    def recording(g, **kwargs):
        lap = build(g, **kwargs)
        laplacians.append(weakref.ref(lap))
        return lap

    def checking(c):
        alive.append(laplacians[-1]() is not None)
        return left_looking(c)

    monkeypatch.setattr(gridres.resistance, "build_laplacian", recording)
    monkeypatch.setattr(gridres.linsolve, "_left_looking", checking)
    g = Explicit(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3)])
    assert rave(g).value == gridres.resistance._rave_green_trace(g).value
    rave_definition_oracle(g)
    assert alive == [False, False, False]


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_pairwise_foster_theorem(seed):
    # Foster: over the edges of a connected graph, sum R_e = n - 1.
    g = random_connected_graph(np.random.Generator(np.random.PCG64(seed)), max_nodes=40)
    total = math.fsum(pairwise_reff(g, u, v) for u, v in g.edges)
    assert abs(total - (g.n - 1)) <= 1e-10 * g.n


@pytest.mark.parametrize("m", range(3, 15))
def test_pairwise_torus_edge_is_exact(m):
    # Edge-transitive: each of the 2 M^2 edges has R_e = (n - 1) / E.
    expected = (m * m - 1) / (2 * m * m)
    assert abs(pairwise_reff(Torus((m, m)), 0, 1) - expected) <= 1e-13 * expected


@pytest.mark.parametrize("d", range(1, 8))
def test_pairwise_hypercube_edge_is_exact(d):
    # Edge-transitive: each of the d 2^(d-1) edges has R_e = (2^d - 1) / E.
    expected = (2**d - 1) / (d * 2 ** (d - 1))
    assert abs(pairwise_reff(Hypercube(d), 0, 1) - expected) <= 1e-13 * expected


def test_pairwise_foster_theorem_at_100_nodes():
    # The benchmark's pairwise graphs have 100 nodes; the hypothesis test stops at 40.
    g = random_connected_graph(np.random.Generator(np.random.PCG64(292)), max_nodes=100)
    assert g.n == 100
    total = math.fsum(pairwise_reff(g, u, v) for u, v in g.edges)
    assert abs(total - (g.n - 1)) <= 1e-10 * g.n


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_pairwise_matches_green_matrix(seed):
    # Grounding node 0 and solving for every column shares neither the
    # elimination order nor the pivot read-off with pairwise_reff. The fixed
    # pairs are the end cases of its order, v first and u last: (n - 1, 0)
    # keeps the node order, and (0, n - 1) and (0, 1) move both ends.
    rng = np.random.Generator(np.random.PCG64(seed))
    g = random_connected_graph(rng, max_nodes=40)
    green = GroundedSolver(build_laplacian(g)).green_matrix()
    drawn = [tuple(int(x) for x in rng.choice(g.n, size=2, replace=False)) for _ in range(5)]
    for u, v in [(0, g.n - 1), (g.n - 1, 0), (0, 1), *drawn]:
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


def test_oracle_band_holds_against_its_exact_pair_sum():
    # The band covers the pair sum: rebuild the oracle's own pair resistances
    # from the Green matrix and sum them exactly. The set opens with the
    # 3 x 3 torus, whose 36 pairs a plain float sum leaves 1.045 bands off.
    for family in small_family_set(42):
        n = family.node_count()
        green = GroundedSolver(build_laplacian(family)).green_matrix()
        diag = np.diag(green)
        pair_reff = diag[:, None] + diag[None, :] - green - green.T
        pairs = pair_reff[np.triu_indices(n, k=1)].tolist()
        exact = sum(map(Fraction, pairs), Fraction(0)) / (n * n)
        result = rave_definition_oracle(family)
        assert abs(Fraction(result.value) - exact) <= Fraction(result.err_bound), family


def test_pair_resistances_bit_identical_to_the_transposed_expression():
    # green_matrix mirrors exactly, so subtracting G twice in place and
    # gathering by a mask gives, bit for bit, the pair vector of
    # diag[:, None] + diag[None, :] - G - G^T gathered by np.triu_indices.
    for family in small_family_set(42):
        green = GroundedSolver(build_laplacian(family)).green_matrix()
        diag = np.diag(green)
        previous = diag[:, None] + diag[None, :] - green - green.T
        previous = previous[np.triu_indices(green.shape[0], k=1)]
        assert np.array_equal(gridres.resistance._pair_resistances(green), previous), family


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


def test_green_trace_matches_dense_spectral_and_oracle():
    rng = np.random.Generator(np.random.PCG64(2024))
    for _ in range(20):
        g = random_connected_graph(rng, max_nodes=50)
        value = rave(g).value
        for reference in (rave_dense_spectral(g).value, rave_definition_oracle(g).value):
            assert abs(value - reference) <= 1e-10 * reference


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_green_trace_matches_dense_spectral(seed):
    g = random_connected_graph(np.random.Generator(np.random.PCG64(seed)), max_nodes=100)
    value = rave(g).value
    reference = rave_dense_spectral(g).value
    assert abs(value - reference) <= 1e-12 * reference


def test_green_trace_smallest_graphs():
    assert rave(Explicit(1, [])).value == 0.0
    assert rave(Explicit(2, [(0, 1)])).value == 0.25


def test_green_trace_never_calls_the_eigensolver(monkeypatch):
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
    with pytest.raises(DisconnectedSpectrum, match="^2 zero eigenvalues in the stream; expected 1$"):
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
