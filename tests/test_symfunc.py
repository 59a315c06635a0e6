"""Symmetric function calculus against enumeration oracles and identities."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessquot import symfunc as sf
from hessquot.errors import DomainError, InputError


def oracle_elementary_sym(k, vals):
    """Direct subset enumeration; trusted reference for n <= 8."""
    n = len(vals)
    if k < 0 or k > n:
        return 0.0
    if k == 0:
        return 1.0
    total = 0.0
    for combo in itertools.combinations(range(n), k):
        prod = 1.0
        for i in combo:
            prod *= vals[i]
        total += prod
    return total


def oracle_excluding(k, vals, excluded):
    vals = np.asarray(vals, dtype=float).copy()
    vals[list(excluded)] = 0.0
    return oracle_elementary_sym(k, vals)


finite_entries = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
spectra = st.integers(min_value=2, max_value=6).flatmap(
    lambda n: st.lists(finite_entries, min_size=n, max_size=n)
)
positive_spectra = st.integers(min_value=2, max_value=6).flatmap(
    lambda n: st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=n, max_size=n)
)


class TestElementarySym:
    def test_pinned_values(self):
        assert sf.elementary_sym(2, [1.0, 2.0, 3.0]) == 11.0
        assert sf.elementary_sym(0, [5.0, 7.0]) == 1.0
        assert sf.elementary_sym(3, [1.0, 2.0]) == 0.0
        assert sf.elementary_sym(-1, [1.0, 2.0]) == 0.0

    def test_oracle_small_integers_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = rng.integers(2, 9)
            vals = rng.integers(-6, 7, size=n).astype(float)
            for k in range(-1, n + 2):
                assert sf.elementary_sym(k, vals) == oracle_elementary_sym(k, vals)

    def test_oracle_floats(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            vals = rng.uniform(-10, 10, size=n)
            for k in range(n + 1):
                got = sf.elementary_sym(k, vals)
                want = oracle_elementary_sym(k, vals)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_batched_matches_scalar(self):
        rng = np.random.default_rng(3)
        vals = rng.uniform(-5, 5, size=(4, 6, 3))
        got = sf.elementary_sym(2, vals)
        for idx in np.ndindex(4, 6):
            assert got[idx] == pytest.approx(sf.elementary_sym(2, vals[idx]))

    def test_all_orders(self):
        vals = np.array([1.0, 2.0, 3.0])
        e = [sf.elementary_sym(k, vals) for k in range(4)]
        assert e == [1.0, 6.0, 11.0, 6.0]

    @given(spectra)
    @settings(max_examples=150, deadline=None)
    def test_permutation_invariance(self, vals):
        vals = np.asarray(vals)
        perm = np.random.default_rng(1).permutation(len(vals))
        for k in range(len(vals) + 1):
            a = sf.elementary_sym(k, vals)
            b = sf.elementary_sym(k, vals[perm])
            assert a == pytest.approx(b, rel=1e-12, abs=1e-9)

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            sf.elementary_sym(1, [1.0])
        with pytest.raises(InputError):
            sf.elementary_sym(1, [np.nan, 1.0])


class TestExcluding:
    def test_pinned(self):
        assert np.array_equal(sf.elementary_sym_excluding_each(2, [1.0, 2.0, 3.0]), [6.0, 3.0, 2.0])
        assert np.array_equal(sf.elementary_sym_excluding_each(-1, [1.0, 2.0, 3.0]), [0.0] * 3)
        assert np.array_equal(sf.elementary_sym_excluding_each(0, [1.0, 2.0]), [1.0, 1.0])
        assert sf.elementary_sym_excluding_pairs(1, [1.0, 2.0, 3.0])[0, 1] == 3.0

    def test_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(150):
            n = int(rng.integers(2, 8))
            vals = rng.uniform(-8, 8, size=n)
            for k in range(n):
                each = sf.elementary_sym_excluding_each(k, vals)
                for i in range(n):
                    want = oracle_excluding(k, vals, [i])
                    assert each[i] == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_each_matches_zeroed_entry_rows_exactly(self):
        # reference: elementary_sym over the (n, n) block whose row i is vals
        # with entry i zeroed; skipping the entry adds the same values
        rng = np.random.default_rng(19)
        for n in range(2, 8):
            vals = rng.uniform(-8, 8, size=(5, 3, n))
            block = np.broadcast_to(vals[..., None, :], vals.shape[:-1] + (n, n)).copy()
            block[..., np.arange(n), np.arange(n)] = 0.0
            for k in range(1, n + 1):
                want = sf.elementary_sym(k, block)
                assert np.array_equal(sf.elementary_sym_excluding_each(k, vals), want)

    def test_each_and_pairs_match_single(self):
        rng = np.random.default_rng(17)
        vals = rng.uniform(0.2, 5.0, size=(10, 4))
        each = sf.elementary_sym_excluding_each(2, vals)
        pairs = sf.elementary_sym_excluding_pairs(1, vals)
        for b in range(10):
            for i in range(4):
                assert each[b, i] == pytest.approx(oracle_excluding(2, vals[b], [i]), rel=1e-13)
                for j in range(4):
                    excl = [i, j] if i != j else [i]
                    assert pairs[b, i, j] == pytest.approx(
                        oracle_excluding(1, vals[b], excl), rel=1e-13
                    )

    @given(spectra, st.integers(min_value=0, max_value=6))
    @settings(max_examples=150, deadline=None)
    def test_recursion_identity(self, vals, k):
        # S_k = S_{k;i} + lam_i S_{k-1;i} for every i
        vals = np.asarray(vals)
        n = len(vals)
        if k > n:
            k = n
        sk = sf.elementary_sym(k, vals)
        scale = 1.0 + abs(sk) + np.max(np.abs(vals)) ** max(k, 1)
        lhs = sf.elementary_sym_excluding_each(k, vals) + vals * sf.elementary_sym_excluding_each(
            k - 1, vals
        )
        assert np.all(np.abs(lhs - sk) <= 1e-12 * scale)


class TestWeightedIdentities:
    # sum_i lam_i S_{k;i} = (k+1) S_{k+1} and
    # sum_i lam_i^2 S_{k;i} = S_1 S_{k+1} - (k+2) S_{k+2}
    @given(spectra, st.integers(min_value=0, max_value=5))
    @settings(max_examples=150, deadline=None)
    def test_first_and_second_moment(self, vals, k):
        vals = np.asarray(vals)
        n = len(vals)
        k = min(k, n - 1)
        ski = sf.elementary_sym_excluding_each(k, vals)
        s1 = sf.elementary_sym(1, vals)
        sk1 = sf.elementary_sym(k + 1, vals)
        sk2 = sf.elementary_sym(k + 2, vals)
        scale = 1.0 + np.max(np.abs(vals)) ** (k + 2) * math.comb(n, min(k + 2, n))
        first = np.sum(vals * ski)
        second = np.sum(vals * vals * ski)
        assert abs(first - (k + 1) * sk1) <= 1e-12 * scale
        assert abs(second - (s1 * sk1 - (k + 2) * sk2)) <= 1e-11 * scale


class TestConesAndMeans:
    def test_maclaurin(self):
        assert sf.maclaurin_normalized(1, [1.0, 2.0, 3.0]) == 2.0
        assert sf.maclaurin_normalized(2, [1.0, 2.0, 3.0]) == pytest.approx(11.0 / 3.0)
        with pytest.raises(InputError):
            sf.maclaurin_normalized(4, [1.0, 2.0, 3.0])

    def test_newton_gap_pinned(self):
        assert sf.newton_maclaurin_gap(1, [1.0, 2.0, 3.0]) == pytest.approx(1.0 / 3.0)
        with pytest.raises(InputError):
            sf.newton_maclaurin_gap(0, [1.0, 2.0])

    @given(spectra)
    @settings(max_examples=200, deadline=None)
    def test_newton_gap_nonnegative_all_reals(self, vals):
        vals = np.asarray(vals)
        for k in range(1, len(vals)):
            gap = sf.newton_maclaurin_gap(k, vals)
            scale = 1.0 + np.max(np.abs(vals)) ** (2 * k)
            assert gap >= -1e-12 * scale

    @given(positive_spectra)
    @settings(max_examples=200, deadline=None)
    def test_maclaurin_chain_monotone(self, vals):
        vals = np.asarray(vals)
        n = len(vals)
        ratios = [sf.maclaurin_normalized(k, vals) ** (1.0 / k) for k in range(1, n + 1)]
        for a, b in zip(ratios, ratios[1:]):
            assert b <= a * (1 + 1e-12)


class TestQuotientLog:
    def test_pinned(self):
        assert sf.quotient_log([1.0, 1.0], 1) == pytest.approx(-math.log(2.0))
        assert sf.quotient_log([2.0, 2.0], 0) == pytest.approx(math.log(4.0))
        assert sf.quotient_log([1.0, 1.0], 1, shift=2.0) == pytest.approx(-math.log(4.0))

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.quotient_log([1.0, -1.0], 1)
        with pytest.raises(InputError):
            sf.quotient_log([1.0, 2.0], 2)
        with pytest.raises(InputError):
            sf.quotient_log([1.0, 2.0], 1, shift=-1.0)

    @given(
        st.integers(min_value=2, max_value=5),
        st.floats(min_value=0.0, max_value=3.0),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=200, deadline=None)
    def test_midpoint_concavity(self, n, shift, m, seed):
        m = min(m, n - 1)
        rng = np.random.default_rng(seed)
        lam1 = rng.uniform(0.1, 10.0, size=n)
        lam2 = rng.uniform(0.1, 10.0, size=n)
        mid = sf.quotient_log(0.5 * (lam1 + lam2), m, shift)
        avg = 0.5 * (sf.quotient_log(lam1, m, shift) + sf.quotient_log(lam2, m, shift))
        assert mid >= avg - 1e-12


class TestStrongConcavity:
    def test_pinned(self):
        got = sf.strong_concavity_gap([1.0, 1.0, 1.0], [1.0, 0.0, 0.0], 1)
        assert got == pytest.approx(2.0 / 3.0)

    def test_m_equals_n_is_tight(self):
        rng = np.random.default_rng(23)
        lam = rng.uniform(0.1, 10.0, size=(500, 3))
        xi = rng.normal(size=(500, 3)) + 1j * rng.normal(size=(500, 3))
        gap = sf.strong_concavity_gap(lam, xi, 3)
        scale = np.max(lam, axis=-1) ** 3 * np.sum(np.abs(xi) ** 2, axis=-1)
        assert np.max(np.abs(gap) / scale) < 1e-12

    def test_nonnegative_random(self):
        rng = np.random.default_rng(29)
        for n in range(2, 6):
            for m in range(1, n + 1):
                lam = rng.uniform(0.1, 10.0, size=(2000, n))
                xi = rng.normal(size=(2000, n)) + 1j * rng.normal(size=(2000, n))
                xi /= np.linalg.norm(xi, axis=-1, keepdims=True)
                gap = sf.strong_concavity_gap(lam, xi, m)
                scale = 1.0 + np.max(lam, axis=-1) ** m
                assert np.min(gap / scale) >= -1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.strong_concavity_gap([1.0, -2.0], [1.0, 0.0], 1)
        with pytest.raises(InputError):
            sf.strong_concavity_gap([1.0, 2.0], [1.0, 0.0], 3)
