"""Whitened singular spectra and budgeted rank allocation.

Each (layer, kind) entry holds the descending singular values of the
whitened weight. A global per-kind rank budget is spent greedily: every
entry starts at the minimum rank and the next unit always goes to the entry
whose next singular value removes the largest fraction of its remaining
residual energy, sigma_{r+1}^2 / sum_{m>r} sigma_m^2. Normalizing by the
remaining residual makes entries with different spectral scales comparable,
so the allocation is invariant to rescaling any single spectrum.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ValidationError

KIND_K = "K"
KIND_V = "V"
KINDS = (KIND_K, KIND_V)

# Entries whose remaining tail drops below this fraction of their initial
# energy are numerically captured and leave the eligible set.
TAIL_EXCLUDE_REL = 1e-12


def _check_kind(kind: str) -> str:
    if kind not in KINDS:
        raise ValidationError(f"kind must be one of {KINDS}, got {kind!r}")
    return kind


def _check_spectrum(sigma, name: str = "spectrum") -> np.ndarray:
    arr = np.asarray(sigma, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError(f"{name} must be a non-empty 1-D array")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite values")
    if np.any(arr < 0.0):
        raise ValidationError(f"{name} contains negative values")
    if np.any(np.diff(arr) > 0.0):
        raise ValidationError(f"{name} is not non-increasing")
    return arr.copy()


class SpectrumTable:
    """Descending whitened singular values keyed by (layer, kind)."""

    def __init__(self):
        self._entries: dict[tuple[int, str], np.ndarray] = {}

    def add(self, layer: int, kind: str, sigma) -> None:
        key = (int(layer), _check_kind(kind))
        self._entries[key] = _check_spectrum(sigma, f"spectrum {key}")

    def get(self, layer: int, kind: str) -> np.ndarray:
        try:
            return self._entries[(layer, kind)]
        except KeyError:
            raise ValidationError(f"no spectrum stored for layer {layer} kind {kind}")

    def layers(self, kind: str) -> list[int]:
        _check_kind(kind)
        return sorted(l for (l, k) in self._entries if k == kind)


def whitened_spectrum(sqrt_c, w) -> np.ndarray:
    """Descending singular values of the whitened weight S @ w.

    `sqrt_c` may be S itself or any square L with L^T L = S^2, such as
    calibration.Whitener.factor: L @ w has the same singular values.
    """
    sqrt_c = linalg.as_matrix(sqrt_c, "sqrt_c")
    w = linalg.as_matrix(w, "w")
    if sqrt_c.shape[0] != sqrt_c.shape[1]:
        raise ValidationError(f"whitener must be square, got {sqrt_c.shape}")
    if sqrt_c.shape[1] != w.shape[0]:
        raise ValidationError(
            f"dimension mismatch: whitener {sqrt_c.shape} vs weight {w.shape}"
        )
    return linalg.singular_values(sqrt_c @ w)


@dataclass(frozen=True)
class AllocationStep:
    """One greedy increment: which layer won, at what rank, with what priority."""

    layer: int
    rank_before: int
    priority: float


@dataclass(frozen=True)
class RankProfile:
    """Allocated ranks per (layer, kind) plus the budgets that produced them;
    an entry's full rank is its layer's grouped width, not recorded here."""

    ranks: dict[tuple[int, str], int]
    budget_k: int
    budget_v: int
    min_rank: int

    def rank(self, layer: int, kind: str) -> int:
        try:
            return self.ranks[(layer, kind)]
        except KeyError:
            raise ValidationError(f"profile has no entry for layer {layer} kind {kind}")

    def validate(self) -> None:
        """Check rank bounds and per-kind budget totals.

        Totals are checked as <= budget: entries excluded at zero tail can
        legitimately stop an allocation below the requested budget.
        """
        if self.min_rank < 1:
            raise ValidationError("min_rank must be at least 1")
        totals = {KIND_K: 0, KIND_V: 0}
        for (layer, kind), r in self.ranks.items():
            _check_kind(kind)
            if r < self.min_rank:
                raise ValidationError(
                    f"layer {layer} kind {kind}: rank {r} below min_rank {self.min_rank}"
                )
            totals[kind] += r
        if totals[KIND_K] > self.budget_k or totals[KIND_V] > self.budget_v:
            raise ValidationError(
                f"allocated totals {totals} exceed budgets "
                f"K={self.budget_k} V={self.budget_v}"
            )


def budget_refusal(full_ranks: list[int], budget: int, min_rank: int) -> str | None:
    """Why water-filling `budget` units over entries of these full ranks
    cannot start every entry at `min_rank`, or None when it can."""
    if min_rank < 1:
        return "min_rank must be at least 1"
    if min_rank > min(full_ranks):
        return f"min_rank {min_rank} exceeds the smallest full rank {min(full_ranks)}"
    if budget < len(full_ranks) * min_rank:
        return f"infeasible budget: {budget} < {len(full_ranks)} layers x min_rank {min_rank}"
    return None


def waterfill_trace(
    table: SpectrumTable, kind: str, budget: int, min_rank: int
) -> tuple[dict[int, int], list[AllocationStep]]:
    """Greedy allocation for one kind, returning ranks and the step trace."""
    _check_kind(kind)
    layers = table.layers(kind)
    if not layers:
        raise ValidationError(f"spectrum table has no entries of kind {kind}")
    sq = {l: table.get(l, kind) ** 2 for l in layers}
    full = {l: len(sq[l]) for l in layers}
    reason = budget_refusal(list(full.values()), budget, min_rank)
    if reason is not None:
        raise ValidationError(reason)

    # suffix[l][r] = tail energy after keeping r components; trailing zero so
    # suffix[full] is exactly 0.
    suffix = {
        l: np.concatenate([np.cumsum(sq[l][::-1])[::-1], [0.0]]) for l in layers
    }
    initial = {l: float(suffix[l][0]) for l in layers}
    ranks = {l: min_rank for l in layers}
    spent = len(layers) * min_rank
    trace: list[AllocationStep] = []

    while spent < budget:
        best_layer = None
        best_priority = 0.0
        for l in layers:
            r = ranks[l]
            if r >= full[l]:
                continue
            tail = float(suffix[l][r])
            if tail <= TAIL_EXCLUDE_REL * initial[l]:
                continue
            p = float(sq[l][r]) / tail
            if best_layer is None or p > best_priority:
                best_layer = l
                best_priority = p
        if best_layer is None:
            break
        trace.append(AllocationStep(best_layer, ranks[best_layer], best_priority))
        ranks[best_layer] += 1
        spent += 1
    return ranks, trace


def waterfill(table: SpectrumTable, kind: str, budget: int, min_rank: int) -> dict[int, int]:
    """Greedy water-filling of `budget` rank units over one kind's spectra."""
    ranks, _ = waterfill_trace(table, kind, budget, min_rank)
    return ranks


def uniform_profile(full_ranks: dict[int, int], rank: int) -> dict[int, int]:
    """Give every layer the same rank, clamped to its full rank; the map is
    layer -> full rank, such as each layer's grouped width."""
    if rank < 1:
        raise ValidationError("rank must be at least 1")
    return {l: min(rank, full) for l, full in full_ranks.items()}


def build_profile(ranks: dict[str, dict[int, int]], budgets: dict[str, int],
                  min_rank: int) -> RankProfile:
    """Assemble the allocations, kind -> layer -> rank, and the per-kind
    budgets into a validated RankProfile."""
    entries = {(l, kind): int(r) for kind in KINDS for l, r in ranks[kind].items()}
    profile = RankProfile(entries, budgets[KIND_K], budgets[KIND_V], min_rank)
    profile.validate()
    return profile
