import math

import numpy as np
import pytest

from gridres import (
    DisconnectedSpectrum,
    Explicit,
    Hypercube,
    Overflow,
    Torus,
    build_laplacian,
    eigenvalues_symmetric,
    hypercube_spectrum,
    spectral_rave,
    stream_from_eigenvalues,
    torus_spectrum,
)
from gridres.spectrum import side_contribution_table, table_sums


def multiset(stream):
    out = []
    for lam, mult in stream.pairs():
        out.extend([lam] * int(mult))
    return np.sort(np.array(out))


def test_ring3_spectrum():
    assert np.allclose(multiset(torus_spectrum([3])), [0.0, 3.0, 3.0], atol=1e-12)


def test_ring4_spectrum():
    assert np.allclose(multiset(torus_spectrum([4])), [0.0, 2.0, 2.0, 4.0], atol=1e-12)


def test_torus33_spectrum():
    expected = np.sort([0.0] + [3.0] * 4 + [6.0] * 4)
    assert np.allclose(multiset(torus_spectrum([3, 3])), expected, atol=1e-12)


def test_row_major_enumeration():
    dims = (3, 4)
    stream = torus_spectrum(dims)
    expected = [
        4.0 - 2.0 * math.cos(2.0 * math.pi * h1 / 3) - 2.0 * math.cos(2.0 * math.pi * h2 / 4)
        for h1 in range(3)
        for h2 in range(4)
    ]
    got = [lam for lam, _ in stream.pairs()]
    assert np.allclose(got, expected, atol=1e-12)


@pytest.mark.parametrize(
    "d,expected",
    [
        (1, [(0.0, 1), (2.0, 1)]),
        (2, [(0.0, 1), (2.0, 2), (4.0, 1)]),
        (3, [(0.0, 1), (2.0, 3), (4.0, 3), (6.0, 1)]),
    ],
)
def test_hypercube_spectrum_examples(d, expected):
    assert list(hypercube_spectrum(d).pairs()) == expected


def test_hypercube_overflow():
    hypercube_spectrum(63)  # largest exact dimension
    with pytest.raises(Overflow):
        hypercube_spectrum(64)


def test_spectrum_invariants():
    for stream, dims in [
        (torus_spectrum([5]), 1),
        (torus_spectrum([3, 4]), 2),
        (torus_spectrum([3, 3, 3]), 3),
    ]:
        mults = sum(m for _, m in stream.pairs())
        assert mults == stream.count
        values = multiset(stream)
        assert values[0] == 0.0
        assert np.all(values[1:] > 0.0)
        assert np.all(values <= 4.0 * dims)
    hyp = hypercube_spectrum(6)
    assert sum(m for _, m in hyp.pairs()) == 64
    assert all(lam == 2.0 * m for m, (lam, _) in enumerate(hyp.pairs()))


def eigenvalue_total(stream):
    """Sum of multiplicity * eigenvalue over every flat index."""
    weights = 1 if stream.multiplicity is None else stream.multiplicity
    return math.fsum(weights * stream.lambda_block(0, stream.term_count()))


def test_eigenvalue_sum_is_twice_edge_count():
    for dims in ([7], [3, 5], [4, 4, 4]):
        stream = torus_spectrum(dims)
        n, d = stream.count, len(dims)
        assert abs(eigenvalue_total(stream) - 2.0 * n * d) <= 1e-9 * 2.0 * n * d
    for d in (1, 4, 9):
        stream = hypercube_spectrum(d)
        expected = 2.0 ** d * d
        assert abs(eigenvalue_total(stream) - expected) <= 1e-9 * max(expected, 1.0)


@pytest.mark.parametrize("dims", [[3], [4], [12], [3, 3], [4, 5], [3, 3, 3], [12, 16]])
def test_torus_spectrum_matches_dense_eigensolve(dims):
    stream = torus_spectrum(dims)
    dense = eigenvalues_symmetric(build_laplacian(Torus(tuple(dims))))
    assert np.max(np.abs(multiset(stream) - dense)) <= 1e-8


def test_torus_spectrum_matches_dense_eigensolve_big():
    dims = [21, 24]
    stream = torus_spectrum(dims)
    dense = eigenvalues_symmetric(build_laplacian(Torus(tuple(dims))))
    assert np.max(np.abs(multiset(stream) - dense)) <= 1e-8


@pytest.mark.parametrize("d", range(1, 8))
def test_hypercube_spectrum_matches_dense_eigensolve(d):
    dense = eigenvalues_symmetric(build_laplacian(Hypercube(d)))
    assert np.max(np.abs(multiset(hypercube_spectrum(d)) - dense)) <= 1e-8


@pytest.mark.parametrize("d", [8, 10])
def test_hypercube_spectrum_matches_dense_eigensolve_big(d):
    dense = eigenvalues_symmetric(build_laplacian(Hypercube(d)))
    assert np.max(np.abs(multiset(hypercube_spectrum(d)) - dense)) <= 1e-8


def test_spectral_rave_examples():
    assert abs(spectral_rave(torus_spectrum([3])).value - 2.0 / 9.0) <= 1e-15
    # triangle spectrum fed back through the generic stream path
    k3 = stream_from_eigenvalues(np.array([0.0, 3.0, 3.0]))
    assert abs(spectral_rave(k3).value - 2.0 / 9.0) <= 1e-15
    assert abs(spectral_rave(hypercube_spectrum(2)).value - 5.0 / 16.0) <= 1e-15


def test_spectral_rave_metadata():
    res = spectral_rave(torus_spectrum([4, 4]))
    assert res.method == "spectral"
    assert res.terms == 15
    assert res.err_bound >= 0.0
    assert abs(res.value - 103.0 / 384.0) <= 1e-15


def test_spectral_rave_thread_invariance():
    values = [spectral_rave(torus_spectrum([37, 41]), threads=t).value for t in (1, 2, 3, 8)]
    assert all(v == values[0] for v in values)


def test_disconnected_spectrum_rejected():
    eigs = eigenvalues_symmetric(build_laplacian(Explicit(4, [(0, 1), (2, 3)])))
    stream = stream_from_eigenvalues(eigs)
    assert stream.zero_multiplicity == 2
    with pytest.raises(DisconnectedSpectrum):
        spectral_rave(stream)


def test_single_node_stream():
    stream = hypercube_spectrum(0)
    assert spectral_rave(stream).value == 0.0


def test_contribution_table_symmetry():
    for m in (3, 4, 5, 12, 101):
        table = side_contribution_table(m)
        assert table[0] == 0.0
        for k in range(1, m):
            assert table[k] == table[m - k]  # exact mirror
        if m % 2 == 0:
            assert table[m // 2] == 4.0
        direct = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(m) / m)
        assert np.max(np.abs(table - direct)) <= 1e-14


def test_midpoint_table_symmetry():
    for m in (1, 2, 3, 4, 5, 12, 101):
        table = side_contribution_table(m, midpoint=True)
        for k in range(m):
            assert table[k] == table[m - 1 - k]  # exact mirror
        direct = 4.0 * np.sin(np.pi * (np.arange(m) + 0.5) / m) ** 2
        assert np.max(np.abs(table - direct)) <= 1e-14
        assert np.all(table > 0.0)


def test_table_sums_row_major_three_axes():
    tables = [np.array([0.0, 1.0, 2.0]), np.array([0.0, 10.0]), np.array([0.0, 100.0, 200.0, 300.0])]
    expected = [a + b + c for a in tables[0] for b in tables[1] for c in tables[2]]
    assert table_sums(tables, 0, 24).tolist() == expected
    assert table_sums(tables, 5, 17).tolist() == expected[5:17]


def test_hypercube_spectrum_63_multiplicities_exact():
    pairs = list(hypercube_spectrum(63).pairs())
    mults = [mult for _, mult in pairs]
    assert all(type(mult) is int for mult in mults)
    assert mults == [math.comb(63, m) for m in range(64)]
    assert sum(mults) == 2**63
    assert hypercube_spectrum(63).count == 2**63


def test_streams_count_flat_indices():
    k4 = eigenvalues_symmetric(build_laplacian(Explicit(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])))
    cases = [
        (torus_spectrum([3, 4, 5]), 60, 60),
        (hypercube_spectrum(5), 6, 32),
        (stream_from_eigenvalues(k4), 4, 4),
    ]
    for stream, flat, n in cases:
        assert stream.term_count() == flat
        assert stream.count == n
        assert len(list(stream.pairs())) == flat
        assert spectral_rave(stream).terms == n - 1
