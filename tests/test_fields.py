"""Half-layout fields: transforms, projection, norms; the field dumps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wicknlw import (
    grid_from_half,
    half_from_grid,
    project,
    sobolev_norm,
)
from wicknlw.fields import (_cutoff, _dft_factors, alias_free_grid,
                            full_from_half, mode_norms_sq)
from wicknlw.reporting import read_field_csv, write_field_csv

from conftest import half_from_full, half_modes, random_field, zeros_half


cutoffs = st.integers(min_value=0, max_value=6)


def write_rows(path, rows, header="n1,n2,re,im"):
    path.write_text("\n".join([header] + [",".join(map(str, r)) for r in rows]) + "\n")


def square_rows(c):
    """Dump rows of a full (K, K) coefficient square, n1-major."""
    n = (c.shape[0] - 1) // 2
    return [[i - n, j - n, c[i, j].real, c[i, j].imag]
            for i in range(2 * n + 1) for j in range(2 * n + 1)]


class TestFieldDump:
    def test_hermitian_violation_rejected(self, tmp_path):
        c = np.zeros((3, 3), dtype=complex)
        c[2, 1] = 1.0 + 1.0j  # mode (1,0) without its mirror
        write_rows(tmp_path / "f.csv", square_rows(c))
        with pytest.raises(ValueError, match="Hermitian"):
            read_field_csv(tmp_path / "f.csv")

    def test_ball_violation_rejected(self, tmp_path):
        c = np.zeros((3, 3), dtype=complex)
        c[2, 2] = 1.0  # mode (1,1), |n|^2 = 2 > 1
        c[0, 0] = 1.0
        write_rows(tmp_path / "f.csv", square_rows(c))
        with pytest.raises(ValueError, match="ball"):
            read_field_csv(tmp_path / "f.csv")

    def test_zero_mode_real(self, tmp_path):
        h = half_modes(2, {(0, 0): 1.5})
        assert h[2, 0] == 1.5 + 0j
        write_field_csv(h, tmp_path / "f.csv")
        assert read_field_csv(tmp_path / "f.csv")[2, 0] == 1.5 + 0j

    def test_dump_mirrors_the_half_layout(self, tmp_path):
        h = half_modes(2, {(1, 0): 0.5 + 0.25j, (1, 1): -0.5j})
        assert h[1, 0] == np.conj(h[3, 0]) == 0.5 - 0.25j
        write_field_csv(h, tmp_path / "f.csv")
        modes = {(int(r[0]), int(r[1])): complex(float(r[2]), float(r[3]))
                 for r in (line.split(",") for line in
                           (tmp_path / "f.csv").read_text().splitlines()[1:])}
        assert modes[(1, 1)] == -0.5j and modes[(-1, -1)] == 0.5j
        assert modes[(-1, 0)] == np.conj(modes[(1, 0)]) == 0.5 - 0.25j

    def test_csv_round_trip(self, tmp_path):
        f = random_field(3, 5)
        write_field_csv(half_from_full(f), tmp_path / "f.csv")
        g = read_field_csv(tmp_path / "f.csv")
        assert g.shape == (7, 4)
        np.testing.assert_array_equal(g, half_from_full(f))

    def test_near_hermitian_zero_column_is_symmetrized_exactly(self, tmp_path):
        # (-1, 0) is off its mirror by less than the tolerance: the kept
        # n2 = 0 column is averaged with its mirror into an exact pair
        c = np.zeros((3, 3), dtype=complex)
        c[2, 1], c[0, 1] = 1.0, 1.0 + 1e-13
        write_rows(tmp_path / "f.csv", square_rows(c))
        g = read_field_csv(tmp_path / "f.csv")
        assert g[0, 0] == g[2, 0] == 0.5 * (c[2, 1] + c[0, 1])
        assert g[0, 0] != 1.0

    @pytest.mark.parametrize("header, rows, match", [
        ("n1,n2,re,im",
         square_rows(np.zeros((3, 3), dtype=complex)) + [[0, 0, 2.0, 0.0]],
         "exactly once"),
        ("n1,n2,re,im", square_rows(np.zeros((3, 3), dtype=complex))[:-1],
         "exactly once"),
        ("n1,n2,re,im", [], "exactly once"),
        ("a,b,c,d", [[0, 0, 1.0, 0.0]], "header"),
    ], ids=["repeated-mode", "missing-mode", "header-only", "wrong-header"])
    def test_malformed_dump_rejected(self, tmp_path, header, rows, match):
        write_rows(tmp_path / "f.csv", rows, header)
        with pytest.raises(ValueError, match=match):
            read_field_csv(tmp_path / "f.csv")


class TestCutoff:
    @pytest.mark.parametrize("shape, n_max", [((1, 1), 0), ((17, 9), 8),
                                              ((3, 2, 5, 3), 2)])
    def test_reads_the_cutoff_from_the_shape(self, shape, n_max):
        assert _cutoff(np.zeros(shape, dtype=complex)) == n_max

    @pytest.mark.parametrize("shape", [(), (5,), (0, 0), (4, 3), (5, 5),
                                       (2, 17, 17)])
    def test_rejects_any_other_shape(self, shape):
        with pytest.raises(ValueError, match="not a half spectrum"):
            _cutoff(np.zeros(shape, dtype=complex))

    def test_project_rejects_a_full_square(self):
        # the full square's first columns are the n2 < 0 modes, not a
        # half spectrum of any cutoff
        with pytest.raises(ValueError, match="not a half spectrum"):
            project(random_field(4, 0), 2)


class TestProject:
    def test_identity_at_own_cutoff(self):
        h = half_from_full(random_field(4, 2))
        p = project(h, 4)
        np.testing.assert_array_equal(p, h)
        assert not np.shares_memory(p, h)
        with pytest.raises(ValueError, match="outside"):
            project(h, 7)

    def test_rejects_cutoffs_outside_stored_range(self):
        h = half_from_full(random_field(3, 1))
        for n_cut in (-1, 4):
            with pytest.raises(ValueError, match="outside 0..3"):
                project(h, n_cut)

    def test_batched_rows_equal_per_row_calls(self):
        batch = np.stack([[half_from_full(random_field(5, 10 * i + j)) for j in range(2)]
                          for i in range(3)])
        got = project(batch, 3)
        assert got.shape == (3, 2, 7, 4)
        for i in range(3):
            for j in range(2):
                np.testing.assert_array_equal(got[i, j], project(batch[i, j], 3))

    def test_idempotent(self):
        p1 = project(half_from_full(random_field(5, 3)), 3)
        p2 = project(p1, 3)
        np.testing.assert_array_equal(p1, p2)

    def test_all_modes_above_cutoff(self):
        p = project(half_modes(3, {(3, 0): 1.0}), 2)
        assert p.shape == (5, 3)
        assert np.all(p == 0)

    def test_euclidean_ball(self):
        # (2,2) has |n| = sqrt(8) > 2, so projecting to 2 drops it
        p = project(half_modes(3, {(2, 2): 1.0, (1, 1): 2.0}), 2)
        assert p[2 + 2, 2] == 0
        assert p[1 + 2, 1] == 2.0

    @given(cutoffs, st.integers(min_value=0, max_value=6), st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_self_adjoint(self, n_max, n_cut, seed):
        f = random_field(n_max, seed)
        h = random_field(n_max, seed + 1)
        k = min(n_cut, n_max)
        pf, ph = (full_from_half(project(half_from_full(g), k)) for g in (f, h))
        lo, hi = n_max - k, n_max + k + 1
        lhs = np.sum(pf * np.conj(h[lo:hi, lo:hi]))
        rhs = np.sum(f[lo:hi, lo:hi] * np.conj(ph))
        assert abs(lhs - rhs) < 1e-12 * (1 + abs(lhs))


class TestTransforms:
    def test_zero_field(self):
        g = grid_from_half(zeros_half(2), 8)
        assert np.all(g == 0)

    def test_constant_mode(self):
        g = grid_from_half(half_modes(2, {(0, 0): 2.5}), 8)
        np.testing.assert_allclose(g, 2.5)
        assert half_from_grid(g, 0)[0, 0] == pytest.approx(2.5)

    def test_matches_direct_summation(self):
        # independent oracle: evaluate the Fourier sum termwise
        f = random_field(2, 7)
        m = 7
        x = 2 * np.pi * np.arange(m) / m
        direct = np.zeros((m, m), dtype=complex)
        for n1 in range(-2, 3):
            for n2 in range(-2, 3):
                phase = np.exp(1j * (n1 * x[:, None] + n2 * x[None, :]))
                direct += f[n1 + 2, n2 + 2] * phase
        assert np.max(np.abs(direct.imag)) < 1e-13
        np.testing.assert_allclose(grid_from_half(half_from_full(f), m), direct.real,
                                   atol=1e-12)

    def test_single_cosine(self):
        g = grid_from_half(half_modes(1, {(1, 0): 0.5}), 8)
        x = 2 * np.pi * np.arange(8) / 8
        expected = np.broadcast_to(np.cos(x)[:, None], (8, 8))
        np.testing.assert_allclose(g, expected, atol=1e-14)
        back = half_from_grid(g, 1)
        assert back[1 + 1, 0] == pytest.approx(0.5)
        assert back[-1 + 1, 0] == pytest.approx(0.5)

    @given(cutoffs, st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_round_trip(self, n_max, seed):
        f = random_field(n_max, seed)
        back = full_from_half(half_from_grid(grid_from_half(half_from_full(f), 2 * n_max + 1),
                                             n_max))
        scale = max(np.max(np.abs(f)), 1e-30)
        assert np.max(np.abs(back - f)) < 1e-12 * scale

    @given(cutoffs, st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_parseval(self, n_max, seed):
        f = random_field(n_max, seed)
        g = grid_from_half(half_from_full(f), 2 * n_max + 1)
        coeff_side = np.sum(np.abs(f) ** 2)
        grid_side = np.mean(g**2)
        assert grid_side == pytest.approx(coeff_side, rel=1e-12, abs=1e-12)

    def test_alias_guards(self):
        h = half_from_full(random_field(4, 0))
        with pytest.raises(ValueError, match="alias"):
            grid_from_half(h, 8)
        g = grid_from_half(h, 16)
        with pytest.raises(ValueError):
            half_from_grid(g, 8)

    def test_alias_free_grid_rule(self):
        m = alias_free_grid(8, 3)
        assert m > 4 * 8
        # products of degree 3 at cutoff 8 are exact on this grid
        h = half_from_full(random_field(8, 1))
        cube = half_from_grid(grid_from_half(h, m) ** 3, 8)
        cube_ref = half_from_grid(grid_from_half(h, 64) ** 3, 8)
        np.testing.assert_allclose(cube, cube_ref, atol=1e-12)

    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
    def test_alias_free_grid_is_smallest(self, degree):
        # the bound M > (p + 1) N is tight, with a floor of 4 nodes
        for n_max in range(65):
            assert alias_free_grid(n_max, degree) == max((degree + 1) * n_max + 1, 4)

    def test_dft_table_cache_is_bounded(self):
        # a sweep over 40 (N, M) pairs evicts the first tables, and a
        # rebuilt table is bit-equal to the evicted one
        first = _dft_factors(2, 7)
        saved = [t.tobytes() for t in first]
        for n_max in range(4):
            for m_grid in range(9, 19):
                _dft_factors(n_max, m_grid)
        assert _dft_factors.cache_info().currsize <= 32
        rebuilt = _dft_factors(2, 7)
        assert rebuilt is not first
        assert [t.tobytes() for t in rebuilt] == saved


class TestSobolevNorm:
    def test_zero(self):
        assert sobolev_norm(zeros_half(3), -0.5) == 0.0

    def test_constant(self):
        assert sobolev_norm(half_modes(2, {(0, 0): 3.0}), 4.2) == pytest.approx(3.0)

    def test_pair_of_modes_weighted(self):
        # independent summation oracle for the s = -1 case: the mode (1, 0)
        # and its mirror (-1, 0), each of coefficient 0.5
        expected = np.sqrt(sum((1 + n1 * n1) ** (-1.0) * 0.5 ** 2 for n1 in (-1, 1)))
        got = sobolev_norm(half_modes(1, {(1, 0): 0.5}), -1.0)
        assert got == pytest.approx(expected)
        assert got == pytest.approx(0.5)

    def test_brute_force_oracle_random(self):
        f = random_field(3, 9)
        s = -0.7
        acc = 0.0
        for n1 in range(-3, 4):
            for n2 in range(-3, 4):
                acc += (1 + n1 * n1 + n2 * n2) ** s * abs(f[n1 + 3, n2 + 3]) ** 2
        assert sobolev_norm(half_from_full(f), s) == pytest.approx(np.sqrt(acc))

    @pytest.mark.parametrize("s", [-1.0, -0.1, 0.0, 1.0])
    def test_batched_matches_full_square_sum(self, s):
        # reference: sum <n>^{2s} |c_n|^2 over the full square of each field
        fields = [random_field(5, 60 + i) for i in range(4)]
        got = sobolev_norm(np.stack([half_from_full(f) for f in fields]), s)
        bracket = (1.0 + mode_norms_sq(5)) ** s
        want = [np.sqrt(np.sum(bracket * np.abs(f) ** 2)) for f in fields]
        assert got.shape == (4,)
        np.testing.assert_allclose(got, want, rtol=1e-12)
