"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion with its runtime.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

from conftest import (
    covariance_of, gen, identity_whitener, random_orthogonal, reconstruct, truncate_svd,
    whitened_error_sq,
)
from kvlatent import calibration, ctf, linalg, manifest, scheduler
from kvlatent.attention import gqa_forward, logit_drift, mla_forward
from kvlatent.calibration import CalibrationBatch, ShrinkageParams
from kvlatent.cli import main as cli_main
from kvlatent.factorizer import (
    GqaLayer,
    activation_residual,
    care_factorize,
    convert_layer,
    layer_spectra,
    replicate_groups,
)
from kvlatent.metrics import LogitSequence, LossParams, cross_entropy, kd_loss, total_loss
from test_scheduler import naive_waterfill, random_table


class _Timer:
    def __init__(self, number: int, name: str, budget_s: float):
        self.number, self.name, self.budget_s = number, name, budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} exceeded its {self.budget_s}s budget"
            )
            print(f"[criterion {self.number:02d}] PASS {self.name} ({elapsed:.2f}s)")
        else:
            print(f"[criterion {self.number:02d}] FAIL {self.name} ({elapsed:.2f}s)")
        return False


def test_criterion_01_activation_error_identity():
    rng = gen(1001)
    with _Timer(1, "activation-error identity on 200 random instances", 5.0):
        for _ in range(200):
            d = int(rng.integers(2, 33))
            n_batches = int(rng.integers(1, 9))
            cols = int(rng.integers(1, 13))
            batches = [
                CalibrationBatch(0, rng.standard_normal((int(rng.integers(1, 17)), d)))
                for _ in range(n_batches)
            ]
            w = rng.standard_normal((d, cols))
            w_hat = rng.standard_normal((d, cols))
            c = covariance_of(batches)
            whitened = whitened_error_sq(linalg.sqrt_psd(c), w, w_hat)
            empirical = activation_residual(batches, w, np.eye(d), w_hat)
            assert abs(empirical - whitened) <= 1e-9 * whitened


def test_criterion_02_eckart_young_tail_energy():
    rng = gen(1002)
    with _Timer(2, "rank-truncation residual equals tail energy, all ranks", 5.0):
        for _ in range(200):
            m = int(rng.integers(1, 33))
            n = int(rng.integers(1, 49))
            a = rng.standard_normal((m, n))
            res = linalg.svd(a)
            total = linalg.frobenius_norm_sq(a)
            for r in range(1, res.singular_values.size + 1):
                approx = reconstruct(truncate_svd(res, r))
                residual = linalg.frobenius_norm_sq(a - approx)
                tail = float(np.sum(res.singular_values[r:] ** 2))
                # 1e-12 * total floors the tolerance for the zero-tail full-rank case
                assert abs(residual - tail) <= 1e-9 * tail + 1e-12 * total


def test_criterion_03_kv_parity_exactness():
    rng = gen(1003)
    with _Timer(3, "KV-parity conversion is exact (residual and logit drift)", 10.0):
        shapes = [(4, 4), (4, 8), (8, 8), (8, 4), (16, 4)]  # (n_heads, head_dim)
        for n_heads, head_dim in shapes:
            d = n_heads * head_dim
            if d > 64:
                continue
            for n_groups in (1, 2, 4):
                if n_heads % n_groups:
                    continue
                scale = 1.0 / math.sqrt(d)
                layer = GqaLayer(
                    d, n_heads, head_dim, n_groups,
                    w_q=rng.standard_normal((d, d)) * scale,
                    w_k_g=rng.standard_normal((d, n_groups * head_dim)) * scale,
                    w_v_g=rng.standard_normal((d, n_groups * head_dim)) * scale,
                )
                batches = [
                    CalibrationBatch(0, rng.standard_normal((12, d)))
                    for _ in range(4)
                ]
                whitener = calibration.build_whitener(covariance_of(batches), ShrinkageParams())
                r = n_groups * head_dim
                spectra = layer_spectra(layer, whitener)
                factors, report_k, report_v = convert_layer(layer, spectra, r, r)
                for report, w_g in ((report_k, layer.w_k_g), (report_v, layer.w_v_g)):
                    w = replicate_groups(w_g, layer)
                    energy = float(np.sum(
                        np.linalg.svd(whitener.matrix @ w, compute_uv=False) ** 2))
                    assert report.whitened_residual_sq <= 1e-12 * energy
                t = int(rng.integers(2, 17))
                x = rng.standard_normal((t, d))
                drift = logit_drift(
                    gqa_forward(layer, x),
                    mla_forward(factors, layer.w_q, layer, x),
                )
                assert drift.max_abs <= 1e-8


def test_criterion_04_whitened_optimality():
    rng = gen(1004)
    with _Timer(4, "whitened factorization beats plain SVD on anisotropic data", 10.0):
        activation_wins = 0
        trials = 100
        for _ in range(trials):
            d = int(rng.integers(4, 17))
            cols = int(rng.integers(d, 25))
            r = int(rng.integers(2, max(3, d // 2)))
            # anisotropic population: eigenvalue spread ~900 in the covariance
            mix = random_orthogonal(rng, d) * np.geomspace(1.0, 1.0 / 30.0, d)
            batches = [
                CalibrationBatch(0, rng.standard_normal((24, d)) @ mix.T)
                for _ in range(4)
            ]
            c = covariance_of(batches)
            eigs = np.linalg.eigvalsh(c)
            assert eigs[-1] / max(eigs[0], 1e-300) >= 100.0, "instance not anisotropic"
            w = rng.standard_normal((d, cols))
            s = calibration.build_whitener(c, ShrinkageParams(alpha=0.01))
            care_pair, care_report = care_factorize(w, s, r)
            plain_pair, _ = care_factorize(w, identity_whitener(d), r)
            plain_hat = plain_pair.w_a @ plain_pair.w_b
            # whitened residual: must win every single time
            assert care_report.whitened_residual_sq <= (
                whitened_error_sq(s.matrix, w, plain_hat) * (1 + 1e-12)
            )
            care_act = activation_residual(batches, w, *care_pair)
            plain_act = activation_residual(batches, w, *plain_pair)
            activation_wins += care_act <= plain_act
        assert activation_wins >= 0.95 * trials


def test_criterion_05_waterfill_matches_naive_oracle():
    rng = gen(1005)
    with _Timer(5, "greedy allocation replays an independent oracle", 2.0):
        # the hand-traced example reproduces exactly
        t = scheduler.SpectrumTable()
        t.add(1, "K", [2.0, 1.0, 0.1])
        t.add(2, "K", [1.0, 1.0, 1.0])
        ranks, trace = scheduler.waterfill_trace(t, "K", 4, 1)
        assert ranks == {1: 3, 2: 1}
        assert [s.layer for s in trace] == [1, 1]

        for _ in range(50):
            table = random_table(rng)
            layers = table.layers("K")
            full = {l: len(table.get(l, "K")) for l in layers}
            budget = int(rng.integers(len(layers), sum(full.values()) + 2))
            ranks, trace = scheduler.waterfill_trace(table, "K", budget, 1)
            spectra = {l: list(table.get(l, "K")) for l in layers}
            naive_ranks, naive_steps = naive_waterfill(spectra, budget, 1)
            assert ranks == naive_ranks
            assert [s.layer for s in trace] == [s[0] for s in naive_steps]
            for ours, theirs in zip(trace, naive_steps):
                assert math.isclose(ours.priority, theirs[2], rel_tol=1e-9)
            assert sum(ranks.values()) == min(budget, sum(full.values()))
            assert all(1 <= ranks[l] <= full[l] for l in layers)


def test_criterion_06_heterogeneity():
    with _Timer(6, "flat spectrum out-ranks an equal-energy fast-decay one", 1.0):
        full, min_rank = 48, 24
        fast = 0.5 ** np.arange(full)
        flat = np.full(full, math.sqrt(float(np.sum(fast**2)) / full))
        table = scheduler.SpectrumTable()
        table.add(0, "K", fast)
        table.add(1, "K", flat)
        for budget in range(2 * min_rank + 2, 2 * min_rank + 16, 3):
            adjusted = scheduler.waterfill(table, "K", budget, min_rank)
            assert adjusted[1] > adjusted[0]
        uniform = scheduler.uniform_profile({l: len(table.get(l, "K")) for l in (0, 1)},
                                            min_rank + 5)
        assert not uniform[1] > uniform[0]


def test_criterion_07_kv_memory_table(tmp_path, capsys):
    with _Timer(7, "cache footprint table reproduces the published numbers", 1.0):
        code = cli_main([
            "kv-report", "--layers", "32", "--seq-len", "32768", "--batch", "1",
            "--widths", "448,512", "--baseline-widths", "1024,1024",
            "--bytes-per-elem", "2", "--out", str(tmp_path / "kv.json"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "4294.97 MB" in out
        assert "53.13%" in out
        doc = json.loads((tmp_path / "kv.json").read_text())
        assert doc["megabytes"] == "2013.27"
        assert abs(float(doc["megabytes"]) - 2013.24) / 2013.24 < 1e-3


def test_criterion_08_loss_formulas():
    with _Timer(8, "loss closed forms", 1.0):
        uniform = LogitSequence(np.zeros((6, 11)), np.arange(6) % 11)
        assert abs(cross_entropy(uniform, 1.0) - math.log(11.0)) <= 1e-12
        logits = gen(1008).standard_normal((5, 7))
        assert kd_loss(LogitSequence(logits), LogitSequence(logits.copy()), 2.0) == 0.0
        assert total_loss(1.0, 0.5, LossParams(tau=3.0, beta=2.0)) == 10.0


def test_criterion_09_pipeline_determinism(tmp_path):
    def run_pipeline(root: Path) -> dict[str, bytes]:
        model = root / "model/model.json"
        steps = [
            ["gen", "--out", str(root / "model"), "--seed", "11", "--layers", "2",
             "--d-model", "16", "--n-heads", "4", "--head-dim", "4",
             "--n-groups", "2", "--seq-len", "8", "--batches", "4"],
            ["cov", "--manifest", str(model), "--out", str(root / "cov")],
            ["schedule", "--manifest", str(model), "--cov-dir", str(root / "cov"),
             "--parity", "--out", str(root / "profile.json")],
            ["convert", "--manifest", str(model), "--cov-dir", str(root / "cov"),
             "--profile", str(root / "profile.json"), "--out", str(root / "converted")],
            ["eval", "--source", str(model),
             "--converted", str(root / "converted/converted.json"),
             "--seed", "3", "--rope-dim", "4", "--out", str(root / "eval")],
        ]
        for step in steps:
            assert cli_main(step) == 0, f"step failed: {step[0]}"
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()
        }

    with _Timer(9, "full pipeline is byte-identical across reruns", 30.0):
        first = run_pipeline(tmp_path / "run1")
        second = run_pipeline(tmp_path / "run2")
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], f"artifact differs: {name}"
        # parity run: the eval report's drift check holds
        report = json.loads((tmp_path / "run1/eval/eval_report.json").read_text())
        assert report["max_logit_drift"] <= 1e-8


def test_criterion_10_shrinkage_robustness():
    rng = gen(1010)
    with _Timer(10, "whitened residuals stable across shrinkage strengths", 10.0):
        for _ in range(8):
            d = 16
            # near-isotropic activations: well-conditioned covariance
            scales = rng.uniform(0.95, 1.05, d)
            batches = [
                CalibrationBatch(0, rng.standard_normal((32, d)) * scales)
                for _ in range(6)
            ]
            c = covariance_of(batches)
            w = rng.standard_normal((d, d)) / math.sqrt(d)
            r = 4
            residuals = []
            for alpha in (1e-3, 1e-2, 1e-1):
                s = calibration.build_whitener(c, ShrinkageParams(alpha=alpha))
                _, report = care_factorize(w, s, r)
                residuals.append(report.whitened_residual_sq)
            spread = (max(residuals) - min(residuals)) / min(residuals)
            assert spread < 0.05, f"residual spread {spread:.4f} across alphas"
