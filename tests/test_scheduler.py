import math

import numpy as np
import pytest

from conftest import gen
from kvlatent import scheduler
from kvlatent.errors import ValidationError
from kvlatent.scheduler import (
    build_profile,
    uniform_profile,
    waterfill,
    waterfill_trace,
    whitened_spectrum,
)


def random_spectra(rng, n_layers=None) -> dict[int, np.ndarray]:
    """One kind's spectra, layer -> descending singular values, of random
    lengths and values."""
    n_layers = n_layers or int(rng.integers(2, 6))
    spectra = {}
    for layer in range(n_layers):
        full = int(rng.integers(3, 12))
        spectra[layer] = np.sort(rng.uniform(0.1, 2.0, full))[::-1]
    return spectra


def naive_waterfill(spectra: dict[int, list[float]], budget: int, min_rank: int):
    """Independent reference: recompute every priority from scratch each step."""
    ranks = {l: min_rank for l in spectra}
    spent = sum(ranks.values())
    steps = []
    while spent < budget:
        best, best_p = None, None
        for layer in sorted(spectra):
            sigma = spectra[layer]
            r = ranks[layer]
            if r >= len(sigma):
                continue
            tail = sum(v * v for v in sigma[r:])
            if tail <= 1e-12 * sum(v * v for v in sigma):
                continue
            p = sigma[r] ** 2 / tail
            if best is None or p > best_p:
                best, best_p = layer, p
        if best is None:
            break
        steps.append((best, ranks[best], best_p))
        ranks[best] += 1
        spent += 1
    return ranks, steps


class TestWhitenedSpectrum:
    def test_identity_whitening(self):
        sigma = whitened_spectrum(np.eye(2), np.diag([3.0, 2.0]))
        assert np.allclose(sigma, [3.0, 2.0])

    def test_diagonal_product(self):
        sigma = whitened_spectrum(np.diag([2.0, 1.0]), np.eye(2))
        assert np.allclose(sigma, [2.0, 1.0])

    def test_zero_weight(self):
        sigma = whitened_spectrum(np.eye(3), np.zeros((3, 4)))
        assert np.allclose(sigma, 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            whitened_spectrum(np.eye(3), np.zeros((4, 2)))

    def test_any_factor_of_s_squared_gives_the_spectrum(self):
        # L^T L = S^2, so L @ w has the singular values of S @ w.
        rng = gen(58)
        q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        s = (q * np.geomspace(1.0, 1e-2, 6)) @ q.T
        s = (s + s.T) / 2.0
        factor = np.linalg.cholesky(s @ s).T
        w = rng.standard_normal((6, 4))
        sigma = whitened_spectrum(s, w)
        assert np.max(np.abs(whitened_spectrum(factor, w) - sigma)) <= 1e-12 * sigma[0]
        assert np.max(np.abs(sigma - np.linalg.svd(s @ w, compute_uv=False))) <= 1e-12 * sigma[0]


class TestPriority:
    """Step priorities in waterfill_trace: sigma_{r+1}^2 / sum_{m>r} sigma_m^2."""

    @staticmethod
    def steps(sigma, budget, min_rank):
        _, trace = waterfill_trace({0: sigma}, budget, min_rank)
        return trace

    def test_hand_value(self):
        (step,) = self.steps([2.0, 1.0, 1.0], budget=2, min_rank=1)
        assert step.rank_before == 1
        assert step.priority == 0.5

    def test_last_component_takes_whole_tail(self):
        (step,) = self.steps([5.0, 4.0, 3.0], budget=3, min_rank=2)
        assert step.priority == 1.0

    def test_flat_spectrum_closed_form(self):
        # equal energies: priority at r is 1 / (R - r)
        sigma = [0.7] * 9
        trace = self.steps(sigma, budget=len(sigma), min_rank=1)
        assert [s.rank_before for s in trace] == list(range(1, len(sigma)))
        for step in trace:
            assert math.isclose(step.priority, 1.0 / (len(sigma) - step.rank_before))

    def test_zero_tail_is_excluded(self):
        ranks, trace = waterfill_trace({0: [1.0, 0.0, 0.0]}, 3, 1)
        assert ranks == {0: 1}
        assert trace == []


class TestWaterfill:
    def test_hand_traced_example(self):
        spectra = {1: [2.0, 1.0, 0.1], 2: [1.0, 1.0, 1.0]}
        ranks, trace = waterfill_trace(spectra, budget=4, min_rank=1)
        assert ranks == {1: 3, 2: 1}
        assert [s.layer for s in trace] == [1, 1]
        assert math.isclose(trace[0].priority, 1.0 / 1.01)
        assert math.isclose(trace[1].priority, 1.0)

    def test_no_headroom(self):
        spectra = {0: [2.0, 1.0], 1: [3.0, 1.0]}
        assert waterfill(spectra, budget=4, min_rank=2) == {0: 2, 1: 2}

    def test_saturation_leaves_surplus_unspent(self):
        spectra = {0: [2.0, 1.0], 1: [3.0, 1.0]}
        assert waterfill(spectra, budget=100, min_rank=1) == {0: 2, 1: 2}

    def test_infeasible_budget(self):
        spectra = {0: [2.0, 1.0], 1: [3.0, 1.0]}
        with pytest.raises(ValidationError, match="infeasible"):
            waterfill(spectra, budget=3, min_rank=2)

    def test_min_rank_above_full_rank(self):
        with pytest.raises(ValidationError):
            waterfill({0: [2.0]}, budget=10, min_rank=2)

    def test_budget_conservation_and_bounds(self):
        rng = gen(201)
        for trial in range(20):
            spectra = random_spectra(rng)
            layers = sorted(spectra)
            full = {l: len(spectra[l]) for l in layers}
            min_rank = 1
            max_budget = sum(full.values())
            budget = int(rng.integers(len(layers), max_budget + 3))
            if budget < len(layers) * min_rank:
                continue
            ranks = waterfill(spectra, budget, min_rank)
            assert sum(ranks.values()) == min(budget, max_budget)
            for l, r in ranks.items():
                assert min_rank <= r <= full[l]

    def test_matches_naive_oracle(self):
        rng = gen(202)
        for trial in range(20):
            spectra = random_spectra(rng)
            budget = int(rng.integers(len(spectra), sum(len(s) for s in spectra.values()) + 2))
            ranks, trace = waterfill_trace(spectra, budget, 1)
            naive_ranks, naive_steps = naive_waterfill(
                {l: list(s) for l, s in spectra.items()}, budget, 1)
            assert ranks == naive_ranks
            assert [s.layer for s in trace] == [s[0] for s in naive_steps]
            for ours, theirs in zip(trace, naive_steps):
                assert math.isclose(ours.priority, theirs[2], rel_tol=1e-9)

    def test_monotone_in_budget(self):
        rng = gen(203)
        spectra = random_spectra(rng)
        lo = waterfill(spectra, len(spectra) + 2, 1)
        hi = waterfill(spectra, len(spectra) + 6, 1)
        assert all(hi[l] >= lo[l] for l in spectra)

    def test_scale_invariance(self):
        rng = gen(204)
        spectra = random_spectra(rng)
        first = min(spectra)
        scaled = {l: (37.5 if l == first else 1.0) * s for l, s in spectra.items()}
        budget = len(spectra) + 4
        assert waterfill(spectra, budget, 1) == waterfill(scaled, budget, 1)

    def test_heterogeneity_flat_beats_fast_decay(self):
        # Equal-energy fast-decay vs flat spectra of equal full rank. At
        # min_rank 24 the geometric tail is already below the exclusion
        # threshold, so the flat spectrum absorbs the entire surplus.
        full = 48
        min_rank = 24
        fast = 0.5 ** np.arange(full)
        flat_level = math.sqrt(float(np.sum(fast**2)) / full)
        flat = np.full(full, flat_level)
        assert math.isclose(float(np.sum(fast**2)), float(np.sum(flat**2)))
        spectra = {0: fast, 1: flat}
        for surplus in (2, 5, 11):
            ranks = waterfill(spectra, 2 * min_rank + surplus, min_rank)
            assert ranks[1] > ranks[0]
            assert ranks[0] == min_rank
        # uniform mode hands both the same rank
        uni = uniform_profile({l: len(s) for l, s in spectra.items()}, min_rank + 3)
        assert uni[0] == uni[1]

    def test_k_and_v_scheduled_independently(self):
        spectra = {"K": {0: [2.0, 1.0]}, "V": {0: [5.0, 4.0, 3.0]}}
        k = waterfill(spectra["K"], 2, 1)
        v = waterfill(spectra["V"], 3, 1)
        assert k == {0: 2}
        assert v == {0: 3}


class TestUniformProfile:
    def test_uniform(self):
        assert uniform_profile({0: 128, 1: 128, 2: 128}, 64) == {0: 64, 1: 64, 2: 64}

    def test_clamps_to_full_rank(self):
        assert uniform_profile({0: 3}, 64) == {0: 3}

    def test_total_is_layer_count_times_rank(self):
        alloc = uniform_profile(dict.fromkeys(range(5), 10), 7)
        assert sum(alloc.values()) == 5 * 7


class TestRankProfile:
    def test_build_and_validate(self):
        profile = build_profile({"K": {0: 2}, "V": {0: 3}}, {"K": 2, "V": 3}, min_rank=1)
        assert profile.rank(0, "K") == 2
        assert profile.rank(0, "V") == 3

    def test_validate_rejects_rank_below_min(self):
        with pytest.raises(ValidationError):
            build_profile({"K": {0: 1}, "V": {0: 2}}, {"K": 2, "V": 2}, min_rank=2)

    def test_missing_entry(self):
        profile = build_profile({"K": {0: 1}, "V": {0: 1}}, {"K": 1, "V": 1}, 1)
        with pytest.raises(ValidationError):
            profile.rank(1, "K")


class TestSpectrumChecks:
    def test_rejects_increasing_spectrum(self):
        with pytest.raises(ValidationError):
            waterfill({0: [1.0, 2.0]}, 2, 1)

    def test_rejects_negative_values(self):
        with pytest.raises(ValidationError):
            waterfill({0: [1.0, -0.5]}, 2, 1)

    @pytest.mark.parametrize("sigma", ([], [1.0, np.nan], [np.inf, 1.0], [[1.0]]))
    def test_rejects_empty_or_non_finite(self, sigma):
        with pytest.raises(ValidationError, match="layer 3"):
            waterfill({0: [1.0], 3: sigma}, 2, 1)

    def test_rejects_no_layers(self):
        with pytest.raises(ValidationError):
            waterfill({}, 2, 1)
