import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from gridres import (
    DisconnectedSpectrum,
    Explicit,
    Hypercube,
    Overflow,
    SizeExceeded,
    SpectrumStream,
    Torus,
    build_laplacian,
    eigenvalues_symmetric,
    rave_hypercube_binomial,
    rave_torus,
    spectral_rave,
    spectrum,
    stream_from_eigenvalues,
    summation,
    torus_spectrum,
)
from gridres.spectrum import (
    check_lattice,
    closed_axis_sum,
    folded_row_count,
    folded_rows,
    half_table,
    side_contribution_table,
)


def point_table(m, lattice="cycle"):
    """4 sin^2(pi x) at one side's lattice points x, in plain Python floats.

    x is k/m at cycle points (from k = 1 at interior points) and (k + 1/2)/m
    at midpoints. Each angle is reduced to pi times the distance from x to
    the nearer of 0 and 1, so mirror points give bit-identical entries.
    """
    shift = 0.5 if lattice == "midpoint" else 0.0
    points = [k + shift for k in range(int(lattice == "interior"), m)]
    return [4.0 * math.sin(math.pi * (min(p, m - p) / m)) ** 2 for p in points]


def multiset(stream):
    return np.sort(stream.values)


def hypercube_eigenvalues(d):
    """Laplacian eigenvalues of Q_d from the closed form: 2m, C(d, m) times, for m = 0 .. d."""
    return np.repeat(2.0 * np.arange(d + 1), [math.comb(d, m) for m in range(d + 1)])


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
    assert np.allclose(stream.values, expected, atol=1e-12)


def test_hypercube_overflow():
    # The binomial route's top dimension: 2^1024 leaves the float range.
    assert 0.0 < rave_hypercube_binomial(1023).value < rave_hypercube_binomial(1022).value
    with pytest.raises(Overflow):
        rave_hypercube_binomial(1024)


def test_spectrum_invariants():
    for sides in ([5], [3, 4], [3, 3, 3]):
        stream = torus_spectrum(sides)
        assert stream.values.size == math.prod(sides)
        values = multiset(stream)
        assert values[0] == 0.0
        assert np.all(values[1:] > 0.0)
        assert np.all(values <= 4.0 * len(sides))


def eigenvalue_total(stream):
    """Sum of the eigenvalues over every entry."""
    return math.fsum(stream.lambda_block(0, stream.values.size))


def test_eigenvalue_sum_is_twice_edge_count():
    for dims in ([7], [3, 5], [4, 4, 4]):
        stream = torus_spectrum(dims)
        n, d = stream.values.size, len(dims)
        assert abs(eigenvalue_total(stream) - 2.0 * n * d) <= 1e-9 * 2.0 * n * d
    for d in (1, 4, 9):
        stream = stream_from_eigenvalues(hypercube_eigenvalues(d))
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
    assert np.max(np.abs(hypercube_eigenvalues(d) - dense)) <= 1e-8


@pytest.mark.parametrize("d", [8, 10])
def test_hypercube_spectrum_matches_dense_eigensolve_big(d):
    dense = eigenvalues_symmetric(build_laplacian(Hypercube(d)))
    assert np.max(np.abs(hypercube_eigenvalues(d) - dense)) <= 1e-8


def test_spectral_rave_examples():
    assert abs(spectral_rave(torus_spectrum([3])).value - 2.0 / 9.0) <= 1e-15
    # triangle spectrum fed back through the generic stream path
    k3 = stream_from_eigenvalues(np.array([0.0, 3.0, 3.0]))
    assert abs(spectral_rave(k3).value - 2.0 / 9.0) <= 1e-15
    q2 = stream_from_eigenvalues(hypercube_eigenvalues(2))
    assert abs(spectral_rave(q2).value - 5.0 / 16.0) <= 1e-15


def test_spectral_rave_metadata():
    res = spectral_rave(torus_spectrum([4, 4]))
    assert res.method == "spectral"
    assert res.terms == 15
    assert res.err_bound >= 0.0
    assert abs(res.value - 103.0 / 384.0) <= 1e-15


def test_spectral_rave_multi_block():
    # 257 x 300: 77,100 eigenvalues, two base blocks folded in block order
    stream = torus_spectrum([257, 300])
    total = stream.values.size
    assert len(summation.block_ranges(total)) == 2
    res = spectral_rave(stream)
    exact = math.fsum(stream.inverse_terms(0, total).tolist()) / total
    assert abs(res.value - exact) <= res.err_bound
    assert abs(res.value - rave_torus([257, 300]).value) <= 1e-13 * res.value


def test_disconnected_spectrum_rejected():
    # two edges on four nodes have two null modes; the stream is refused when made
    eigs = eigenvalues_symmetric(build_laplacian(Explicit(4, [(0, 1), (2, 3)])))
    with pytest.raises(DisconnectedSpectrum, match="^2 zero eigenvalues in the stream; expected 1$"):
        stream_from_eigenvalues(eigs)
    with pytest.raises(DisconnectedSpectrum, match="^0 zero eigenvalues in the stream; expected 1$"):
        stream_from_eigenvalues(np.array([1.0, 2.0]))


def test_single_node_stream():
    # one node: its one eigenvalue is the null mode, and no terms remain
    stream = stream_from_eigenvalues(np.zeros(1))
    assert stream.values.tolist() == [0.0]
    assert spectral_rave(stream).value == 0.0


def test_spectral_rave_leaves_out_entry_zero_by_index():
    # entry 0 is the null mode by contract, whatever its value
    res = spectral_rave(SpectrumStream(np.array([0.5, 2.0, 4.0, 8.0])))
    assert res.value == (0.5 + 0.25 + 0.125) / 4
    assert res.terms == 3


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
        table = point_table(m, "midpoint")
        for k in range(m):
            assert table[k] == table[m - 1 - k]  # exact mirror
        values, _ = half_table(m, "midpoint")
        assert values.size == (m + 1) // 2  # the lower half, the middle point of an odd m included
        direct = 4.0 * np.sin(np.pi * (np.arange(m) + 0.5) / m) ** 2
        assert np.max(np.abs(values - direct[: values.size])) <= 1e-14
        assert np.max(np.abs(np.array(table) - direct)) <= 1e-14
        assert np.all(values > 0.0)


def test_cycle_table_matches_the_mirrored_half_table():
    # The cycle table is built directly, not mirrored from the folded route's half
    # table, and every bit still agrees: the torus eigenvalues did not move.
    for m in range(1, 401):
        lower, _ = half_table(m)
        mirrored = np.concatenate((lower, lower[1:][: m - lower.size][::-1]))
        assert side_contribution_table(m).tobytes() == mirrored.tobytes()


def test_torus_spectrum_reads_no_half_table(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("torus_spectrum read the folded route's half table")

    monkeypatch.setattr(spectrum, "half_table", forbidden)
    assert np.allclose(multiset(torus_spectrum([3, 4])), sorted(
        a + b for a in point_table(3) for b in point_table(4)), rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("dims", [(3, 4, 5), (3, 5, 7)], ids=["3x4x5", "3x5x7"])
def test_torus_spectrum_row_major_addition_order(dims):
    # The last axis's entry is added first; c1's enumerated tori rely on these exact bits.
    # On (3, 5, 7), 24 of the 105 eigenvalues round differently if the first axis goes first.
    t0, t1, t2 = (side_contribution_table(m).tolist() for m in dims)
    expected = [
        (t2[h2] + t1[h1]) + t0[h0]
        for h0 in range(dims[0])
        for h1 in range(dims[1])
        for h2 in range(dims[2])
    ]
    stream = torus_spectrum(dims)
    assert stream.values.tolist() == expected
    assert stream.lambda_block(7, 41).tolist() == expected[7:41]


def test_torus_spectrum_size_cap():
    with pytest.raises(SizeExceeded):
        torus_spectrum((4097, 4097))


def test_streams_count_entries_and_nodes():
    # One entry per eigenvalue: a stream's N is its entry count.
    k4 = eigenvalues_symmetric(build_laplacian(Explicit(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])))
    cases = [
        (torus_spectrum([3, 4, 5]), 60),
        (stream_from_eigenvalues(hypercube_eigenvalues(5)), 32),
        (stream_from_eigenvalues(k4), 4),
    ]
    for stream, n in cases:
        assert stream.values.size == n
        assert stream.inverse_terms(0, n).size == n - 1
        assert spectral_rave(stream).terms == n - 1


FOLDED_TORI = [(5, 6, 6, 8), (3, 3, 7, 7, 9), (7,) * 5, (4, 4, 9)]
LATTICES = [pytest.param(kind, id=kind) for kind in spectrum.LATTICES]


def _groups(sides):
    return sorted(Counter(sides).items())


def _plain_lattice_mean(dims, lattice):
    tables = [point_table(m, lattice) for m in dims]
    terms = []
    for entries in itertools.product(*tables):
        total = math.fsum(entries)
        if total:
            terms.append(1.0 / total)
    return math.fsum(terms) / math.prod(dims)


@pytest.mark.parametrize("dims", FOLDED_TORI)
@pytest.mark.parametrize("lattice", LATTICES)
def test_closed_axis_sum_matches_plain_enumeration(dims, lattice):
    value, err = closed_axis_sum(_groups(dims), lattice)
    assert abs(value - _plain_lattice_mean(dims, lattice)) <= err


@pytest.mark.parametrize("dims", FOLDED_TORI)
@pytest.mark.parametrize("lattice", LATTICES)
def test_folded_weights_count_every_index_vector(dims, lattice):
    sides = sorted(dims)[:-1]
    weights = folded_rows(_groups(sides), lattice)[1].tolist()
    assert all(w.is_integer() for w in weights)
    shrink = int(lattice == "interior")
    assert sum(int(w) for w in weights) == math.prod(m - shrink for m in sides)


def test_half_table_multiplicities():
    for lattice in spectrum.LATTICES:
        for m in (1, 2, 3, 4, 5, 12, 101):
            values, mult = half_table(m, lattice)
            table = point_table(m, lattice)
            lower = table[: values.size]
            assert all(abs(v - t) <= 1e-14 * t for v, t in zip(values.tolist(), lower))
            assert mult.tolist() == [table.count(t) for t in lower]
            if lattice == "interior":  # the cycle half table from k = 1, bit for bit
                assert values.tolist() == half_table(m)[0][1:].tolist()


@pytest.mark.parametrize(("dims", "rows"), [((6,) * 8, 120), ((4,) * 10, 55), ((16,) * 5, 495), ((128,) * 3, 2145)])
def test_folded_row_counts(dims, rows):
    m, d = dims[0], len(dims)
    assert rows == math.comb(m // 2 + d - 1, d - 1)
    assert folded_rows([(m, d - 1)])[0].size == rows


@pytest.mark.parametrize("sides", [(), (5,), (3, 4, 4, 9), (7,) * 5, (1, 2, 6, 6, 6), (12, 12, 13)])
@pytest.mark.parametrize("lattice", [*LATTICES, pytest.param("both", id="both")])
def test_folded_row_count_matches_folded_rows(sides, lattice):
    groups = _groups(sides)
    if lattice == "both":  # midpoint and interior at once is no lattice, even with no sides
        for fn in (folded_row_count, folded_rows):
            with pytest.raises(ValueError, match="unknown lattice kind"):
                fn(groups, lattice)
        return
    assert folded_row_count(groups, lattice) == folded_rows(groups, lattice)[0].size


def test_unknown_lattice_kind_raises():
    groups = [(5, 1), (6, 2)]
    for call in (
        lambda: half_table(5, "both"),
        lambda: check_lattice(groups, "both"),
        lambda: closed_axis_sum(groups, "both"),
        lambda: closed_axis_sum([(5, 1)], "midpoint interior"),
    ):
        with pytest.raises(ValueError, match="unknown lattice kind"):
            call()


def test_check_lattice_splits_off_the_longest_side():
    assert check_lattice([(3, 1), (5, 2)]) == ([(3, 1), (5, 1)], 5, 75)
    assert check_lattice([(2, 1), (7, 1)], "interior") == ([(2, 1)], 7, 14)
    assert check_lattice([(4, 3)], "midpoint") == ([(4, 2)], 4, 64)
    assert check_lattice([(9, 1)]) == ([], 9, 9)


def test_lattice_gate_refuses_before_building_rows(monkeypatch):
    # The 16^100 lattice folds its 99 other sides to C(107, 99) = 3.3e11
    # rows and (4,) * 513 has 2^1026 points: neither may reach folded_rows.
    # 3^(10^9) is refused before the power is built.
    def forbidden(*args, **kwargs):
        raise AssertionError("folded_rows ran before the gate")

    monkeypatch.setattr(spectrum, "folded_rows", forbidden)
    assert folded_row_count([(16, 99)]) == math.comb(107, 99)
    tracemalloc.start()
    try:
        for groups, error in (([(16, 100)], SizeExceeded), ([(4, 513)], Overflow), ([(3, 10**9)], Overflow)):
            with pytest.raises(error):
                closed_axis_sum(groups)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_closed_axis_sum_multi_block(monkeypatch):
    # 245,157 folded rows of 32^8; all but the null row reach reduce_blocks,
    # four base blocks folded in block order
    assert folded_rows([(32, 7)])[0].size == 245157
    summed = []

    def recording(total, term_fn):
        summed.append(term_fn(0, total))
        return summation.reduce_blocks(total, term_fn)

    monkeypatch.setattr(spectrum, "reduce_blocks", recording)
    value, err = closed_axis_sum([(32, 8)])
    (rows,) = summed
    assert rows.size == 245156
    assert len(summation.block_ranges(rows.size)) == 4
    exact = math.fsum([*rows.tolist(), (32 * 32 - 1) / 12.0])
    assert abs(value - exact / 32**8) <= err


@pytest.mark.parametrize("dims", [(64, 3, 5), (5, 64, 3)])
def test_closed_axis_sum_closes_the_longest_side(monkeypatch, dims):
    # err_bound assumes M theta / 2 > 2.3 on cycle rows, which needs M to be
    # the longest side wherever it stands in dims: only 3 and 5 may fold.
    folded = []

    def recording(groups, *args):
        folded.append(list(groups))
        return folded_rows(groups, *args)

    monkeypatch.setattr(spectrum, "folded_rows", recording)
    rave_torus(dims)
    for lattice in spectrum.LATTICES:
        closed_axis_sum(_groups(dims), lattice)
    assert folded == [[(3, 1), (5, 1)]] * 4


def test_closed_axis_sum_rounded_weights_inside_bound():
    # 4^40: the weights sum to 4^39 > 2^53, so some round. Reference: the
    # multisets of the half table {0, 1, 2} (index 1 twice) with exact
    # integer weights, each row summed over the longest side in rationals.
    t = side_contribution_table(4)
    reference = Fraction(0)
    for combo in itertools.combinations_with_replacement(range(3), 39):
        counts = [combo.count(i) for i in range(3)]
        weight = math.factorial(39) // math.prod(math.factorial(c) for c in counts) * 2 ** counts[1]
        a = Fraction(math.fsum(t[i] for i in combo))
        reference += weight * sum(1 / (a + Fraction(tk)) for tk in t if a + Fraction(tk))
    value, err = closed_axis_sum([(4, 40)])
    assert abs(Fraction(value) - reference / 4**40) <= Fraction(err)
