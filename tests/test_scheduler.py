import math

import numpy as np
import pytest

from conftest import gen
from kvlatent import scheduler
from kvlatent.errors import ValidationError
from kvlatent.scheduler import (
    SpectrumTable,
    build_profile,
    uniform_profile,
    waterfill,
    waterfill_trace,
    whitened_spectrum,
)


def table_of(spectra: dict[int, list[float]], kind="K") -> SpectrumTable:
    t = SpectrumTable()
    for layer, sigma in spectra.items():
        t.add(layer, kind, sigma)
    return t


def random_table(rng, kind="K", n_layers=None) -> SpectrumTable:
    t = SpectrumTable()
    n_layers = n_layers or int(rng.integers(2, 6))
    for layer in range(n_layers):
        full = int(rng.integers(3, 12))
        sigma = np.sort(rng.uniform(0.1, 2.0, full))[::-1]
        t.add(layer, kind, sigma)
    return t


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


class TestPriority:
    """Step priorities in waterfill_trace: sigma_{r+1}^2 / sum_{m>r} sigma_m^2."""

    @staticmethod
    def steps(sigma, budget, min_rank):
        _, trace = waterfill_trace(table_of({0: sigma}), "K", budget, min_rank)
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
        ranks, trace = waterfill_trace(table_of({0: [1.0, 0.0, 0.0]}), "K", 3, 1)
        assert ranks == {0: 1}
        assert trace == []


class TestWaterfill:
    def test_hand_traced_example(self):
        t = table_of({1: [2.0, 1.0, 0.1], 2: [1.0, 1.0, 1.0]})
        ranks, trace = waterfill_trace(t, "K", budget=4, min_rank=1)
        assert ranks == {1: 3, 2: 1}
        assert [s.layer for s in trace] == [1, 1]
        assert math.isclose(trace[0].priority, 1.0 / 1.01)
        assert math.isclose(trace[1].priority, 1.0)

    def test_no_headroom(self):
        t = table_of({0: [2.0, 1.0], 1: [3.0, 1.0]})
        assert waterfill(t, "K", budget=4, min_rank=2) == {0: 2, 1: 2}

    def test_saturation_leaves_surplus_unspent(self):
        t = table_of({0: [2.0, 1.0], 1: [3.0, 1.0]})
        assert waterfill(t, "K", budget=100, min_rank=1) == {0: 2, 1: 2}

    def test_infeasible_budget(self):
        t = table_of({0: [2.0, 1.0], 1: [3.0, 1.0]})
        with pytest.raises(ValidationError, match="infeasible"):
            waterfill(t, "K", budget=3, min_rank=2)

    def test_min_rank_above_full_rank(self):
        t = table_of({0: [2.0]})
        with pytest.raises(ValidationError):
            waterfill(t, "K", budget=10, min_rank=2)

    def test_budget_conservation_and_bounds(self):
        rng = gen(201)
        for trial in range(20):
            t = random_table(rng)
            layers = t.layers("K")
            full = {l: t.full_rank(l, "K") for l in layers}
            min_rank = 1
            max_budget = sum(full.values())
            budget = int(rng.integers(len(layers), max_budget + 3))
            if budget < len(layers) * min_rank:
                continue
            ranks = waterfill(t, "K", budget, min_rank)
            assert sum(ranks.values()) == min(budget, max_budget)
            for l, r in ranks.items():
                assert min_rank <= r <= full[l]

    def test_matches_naive_oracle(self):
        rng = gen(202)
        for trial in range(20):
            t = random_table(rng)
            spectra = {l: list(t.get(l, "K")) for l in t.layers("K")}
            budget = int(rng.integers(len(spectra), sum(len(s) for s in spectra.values()) + 2))
            ranks, trace = waterfill_trace(t, "K", budget, 1)
            naive_ranks, naive_steps = naive_waterfill(spectra, budget, 1)
            assert ranks == naive_ranks
            assert [s.layer for s in trace] == [s[0] for s in naive_steps]
            for ours, theirs in zip(trace, naive_steps):
                assert math.isclose(ours.priority, theirs[2], rel_tol=1e-9)

    def test_monotone_in_budget(self):
        rng = gen(203)
        t = random_table(rng)
        layers = t.layers("K")
        lo = waterfill(t, "K", len(layers) + 2, 1)
        hi = waterfill(t, "K", len(layers) + 6, 1)
        assert all(hi[l] >= lo[l] for l in layers)

    def test_scale_invariance(self):
        rng = gen(204)
        t = random_table(rng)
        scaled = SpectrumTable()
        layers = t.layers("K")
        for l in layers:
            factor = 37.5 if l == layers[0] else 1.0
            scaled.add(l, "K", factor * t.get(l, "K"))
        budget = len(layers) + 4
        assert waterfill(t, "K", budget, 1) == waterfill(scaled, "K", budget, 1)

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
        t = SpectrumTable()
        t.add(0, "K", fast)
        t.add(1, "K", flat)
        for surplus in (2, 5, 11):
            ranks = waterfill(t, "K", 2 * min_rank + surplus, min_rank)
            assert ranks[1] > ranks[0]
            assert ranks[0] == min_rank
        # uniform mode hands both the same rank
        uni = uniform_profile(t.full_ranks("K"), min_rank + 3)
        assert uni[0] == uni[1]

    def test_k_and_v_scheduled_independently(self):
        t = SpectrumTable()
        t.add(0, "K", [2.0, 1.0])
        t.add(0, "V", [5.0, 4.0, 3.0])
        k = waterfill(t, "K", 2, 1)
        v = waterfill(t, "V", 3, 1)
        assert k == {0: 2}
        assert v == {0: 3}


class TestUniformProfile:
    def test_uniform(self):
        t = table_of({0: np.linspace(2, 1, 128), 1: np.linspace(2, 1, 128),
                      2: np.linspace(2, 1, 128)})
        assert uniform_profile(t.full_ranks("K"), 64) == {0: 64, 1: 64, 2: 64}

    def test_clamps_to_full_rank(self):
        t = table_of({0: [3.0, 2.0, 1.0]})
        assert uniform_profile(t.full_ranks("K"), 64) == {0: 3}

    def test_total_is_layer_count_times_rank(self):
        t = table_of({i: np.linspace(2, 1, 10) for i in range(5)})
        alloc = uniform_profile(t.full_ranks("K"), 7)
        assert sum(alloc.values()) == 5 * 7


class TestRankProfile:
    def test_build_and_validate(self):
        t = SpectrumTable()
        t.add(0, "K", [2.0, 1.0])
        t.add(0, "V", [2.0, 1.0, 0.5])
        profile = build_profile(t, {"K": {0: 2}, "V": {0: 3}}, {"K": 2, "V": 3}, min_rank=1)
        assert profile.rank(0, "K") == 2
        assert profile.rank(0, "V") == 3
        assert profile.full_ranks[(0, "V")] == 3

    def test_validate_rejects_rank_above_full(self):
        t = SpectrumTable()
        t.add(0, "K", [2.0, 1.0])
        t.add(0, "V", [2.0, 1.0])
        with pytest.raises(ValidationError):
            build_profile(t, {"K": {0: 3}, "V": {0: 1}}, {"K": 3, "V": 1}, min_rank=1)

    def test_validate_rejects_rank_below_min(self):
        t = SpectrumTable()
        t.add(0, "K", [2.0, 1.0])
        t.add(0, "V", [2.0, 1.0])
        with pytest.raises(ValidationError):
            build_profile(t, {"K": {0: 1}, "V": {0: 2}}, {"K": 2, "V": 2}, min_rank=2)

    def test_missing_entry(self):
        t = SpectrumTable()
        t.add(0, "K", [1.0])
        t.add(0, "V", [1.0])
        profile = build_profile(t, {"K": {0: 1}, "V": {0: 1}}, {"K": 1, "V": 1}, 1)
        with pytest.raises(ValidationError):
            profile.rank(1, "K")


class TestSpectrumTable:
    def test_rejects_increasing_spectrum(self):
        t = SpectrumTable()
        with pytest.raises(ValidationError):
            t.add(0, "K", [1.0, 2.0])

    def test_rejects_negative_values(self):
        t = SpectrumTable()
        with pytest.raises(ValidationError):
            t.add(0, "K", [1.0, -0.5])

    def test_rejects_bad_kind(self):
        t = SpectrumTable()
        with pytest.raises(ValidationError):
            t.add(0, "Q", [1.0])
