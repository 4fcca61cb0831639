import math

import numpy as np
import pytest

from conftest import gen
from kvlatent.errors import ValidationError
from kvlatent.metrics import (
    LogitSequence,
    LossParams,
    cross_entropy,
    kd_loss,
    total_loss,
)


class TestSoftmax:
    """The temperature softmax inside the losses, read back through
    cross_entropy: on one position, exp(-CE) is the target's probability."""

    @staticmethod
    def probs(row, tau):
        logits = np.asarray(row, dtype=np.float64)[None, :]
        return np.array([
            math.exp(-cross_entropy(LogitSequence(logits, np.array([v])), tau))
            for v in range(logits.shape[1])
        ])

    def test_uniform_row(self):
        for tau in (0.5, 1.0, 7.0):
            assert np.allclose(self.probs(np.full(5, 3.2), tau), 0.2)

    def test_closed_form(self):
        probs = self.probs([math.log(2.0), 0.0], 1.0)
        assert np.allclose(probs, [2.0 / 3.0, 1.0 / 3.0])

    def test_high_temperature_approaches_uniform(self):
        rng = gen(501)
        probs = self.probs(rng.standard_normal(9), 1e6)
        assert np.max(np.abs(probs - 1.0 / 9.0)) < 1e-3

    def test_sums_to_one(self):
        rng = gen(502)
        for _ in range(10):
            probs = self.probs(rng.standard_normal(6) * 50, 1.0)
            assert math.isclose(probs.sum(), 1.0, rel_tol=1e-12)

    def test_rejects_nonpositive_tau(self):
        seq = LogitSequence(np.ones((1, 3)), np.array([0]))
        with pytest.raises(ValidationError):
            cross_entropy(seq, 0.0)
        with pytest.raises(ValidationError):
            kd_loss(seq, seq, -1.0)
        for tau in (math.inf, math.nan):
            with pytest.raises(ValidationError):
                cross_entropy(seq, tau)
            with pytest.raises(ValidationError):
                kd_loss(seq, seq, tau)


class TestCrossEntropy:
    def test_uniform_logits_give_log_vocab(self):
        seq = LogitSequence(np.zeros((4, 7)), np.array([0, 3, 6, 1]))
        assert math.isclose(cross_entropy(seq, 1.0), math.log(7.0), rel_tol=1e-12)

    def test_confident_logits_near_zero(self):
        logits = np.zeros((3, 5))
        targets = np.array([2, 0, 4])
        logits[np.arange(3), targets] = 60.0
        assert cross_entropy(LogitSequence(logits, targets), 1.0) < 1e-12

    def test_matches_per_position_oracle(self):
        rng = gen(511)
        logits = rng.standard_normal((2, 3))
        targets = np.array([1, 2])
        tau = 1.7
        expected = 0.0
        for t in range(2):
            exps = [math.exp(v / tau) for v in logits[t]]
            expected += -math.log(exps[targets[t]] / sum(exps))
        expected /= 2
        got = cross_entropy(LogitSequence(logits, targets), tau)
        assert math.isclose(got, expected, rel_tol=1e-12)

    def test_requires_targets(self):
        with pytest.raises(ValidationError):
            cross_entropy(LogitSequence(np.zeros((2, 3))), 1.0)

    def test_nonnegative(self):
        rng = gen(512)
        for _ in range(10):
            seq = LogitSequence(
                rng.standard_normal((5, 4)), rng.integers(0, 4, size=5)
            )
            assert cross_entropy(seq, 1.0) >= 0.0

    def test_per_row_shift_invariance(self):
        rng = gen(513)
        logits = rng.standard_normal((4, 6))
        targets = rng.integers(0, 6, size=4)
        shifts = rng.standard_normal((4, 1)) * 20
        base = cross_entropy(LogitSequence(logits, targets), 1.4)
        shifted = cross_entropy(LogitSequence(logits + shifts, targets), 1.4)
        assert math.isclose(base, shifted, rel_tol=1e-9)


class TestKdLoss:
    def test_zero_on_identical(self):
        rng = gen(521)
        logits = rng.standard_normal((4, 6))
        assert kd_loss(LogitSequence(logits), LogitSequence(logits.copy()), 2.0) == 0.0

    def test_closed_form(self):
        teacher = LogitSequence(np.array([[math.log(2.0), 0.0]]))
        student = LogitSequence(np.array([[0.0, 0.0]]))
        expected = (2 / 3) * math.log((2 / 3) / 0.5) + (1 / 3) * math.log((1 / 3) / 0.5)
        assert math.isclose(kd_loss(teacher, student, 1.0), expected, rel_tol=1e-12)

    def test_shift_invariance(self):
        rng = gen(522)
        t_logits = rng.standard_normal((3, 5))
        s_logits = rng.standard_normal((3, 5))
        base = kd_loss(LogitSequence(t_logits), LogitSequence(s_logits), 1.3)
        shifted = kd_loss(
            LogitSequence(t_logits + 11.0), LogitSequence(s_logits - 4.0), 1.3
        )
        assert math.isclose(base, shifted, rel_tol=1e-9)

    def test_nonnegative(self):
        rng = gen(523)
        for _ in range(20):
            a = LogitSequence(rng.standard_normal((4, 5)))
            b = LogitSequence(rng.standard_normal((4, 5)))
            assert kd_loss(a, b, 1.0) >= 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            kd_loss(LogitSequence(np.zeros((2, 3))), LogitSequence(np.zeros((2, 4))), 1.0)

    def test_equals_the_formula_term_by_term(self):
        # Exactly pt (log_pt - max(log_ps, log 1e-300)), summed where pt > 0:
        # the teacher's second row puts no mass on two positions (pt
        # underflows to 0), and the student's floor binds on one.
        rng = gen(524)
        t_logits, s_logits = rng.standard_normal((3, 6)), rng.standard_normal((3, 6))
        t_logits[1, :2] = -1e4
        s_logits[2, 3] = -1e4
        for tau in (0.7, 1.0, 3.0):
            log_pt, log_ps = (LogitSequence(x).log_probs(tau) for x in (t_logits, s_logits))
            pt = np.exp(log_pt)
            assert np.count_nonzero(pt == 0.0) == 2
            want = np.where(pt > 0.0, pt * (log_pt - np.maximum(log_ps, math.log(1e-300))), 0.0)
            got = kd_loss(LogitSequence(t_logits), LogitSequence(s_logits), tau)
            assert got == float(want.sum(axis=-1).mean())


class TestTotalLoss:
    def test_zero_beta(self):
        assert total_loss(1.5, 0.7, LossParams(tau=2.0, beta=0.0)) == 1.5

    def test_hand_value(self):
        assert total_loss(1.0, 0.5, LossParams(tau=3.0, beta=2.0)) == 10.0

    def test_zero_kd(self):
        assert total_loss(0.8, 0.0, LossParams(tau=5.0, beta=3.0)) == 0.8

    def test_linear_in_kd_with_slope_beta_tau_sq(self):
        params = LossParams(tau=2.5, beta=1.5)
        at0 = total_loss(0.3, 0.0, params)
        at1 = total_loss(0.3, 1.0, params)
        assert math.isclose(at1 - at0, params.beta * params.tau**2)

    def test_validates_params(self):
        with pytest.raises(ValidationError):
            LossParams(tau=0.0)
        with pytest.raises(ValidationError):
            LossParams(beta=-1.0)
        for value in (math.inf, math.nan):
            with pytest.raises(ValidationError):
                LossParams(tau=value)
            with pytest.raises(ValidationError):
                LossParams(beta=value)

    @pytest.mark.parametrize("tau, beta", [(1e155, 1.0), (1e300, 1.0), (1e155, 0.0),
                                           (1e150, 1e10)])
    def test_refuses_a_kd_weight_beyond_float_range(self, tau, beta):
        # tau**2 itself, or beta times it, is no finite float.
        with pytest.raises(ValidationError, match=r"beta \* tau\^2 must be finite"):
            LossParams(tau=tau, beta=beta)

    def test_a_large_finite_kd_weight_is_accepted(self):
        params = LossParams(tau=1e154, beta=1e-6)
        assert total_loss(0.0, 1.0, params) == params.beta * params.tau**2


class TestLogitSequence:
    def test_rejects_bad_targets(self):
        with pytest.raises(ValidationError):
            LogitSequence(np.zeros((2, 3)), np.array([0, 3]))
        with pytest.raises(ValidationError):
            LogitSequence(np.zeros((2, 3)), np.array([0]))

    def test_rejects_nonfinite_logits(self):
        with pytest.raises(ValidationError):
            LogitSequence(np.array([[np.inf, 0.0]]))

    def test_losses_share_one_log_softmax_per_sequence_and_tau(self, monkeypatch):
        # eval's CE of both sequences and their KD take two log-softmaxes,
        # not four, and a cached one is not writable.
        from kvlatent import metrics

        calls = []
        real = metrics._log_softmax
        monkeypatch.setattr(metrics, "_log_softmax",
                            lambda logits, tau: calls.append(tau) or real(logits, tau))
        rng = gen(531)
        targets = np.arange(4) % 5
        teacher = LogitSequence(rng.standard_normal((4, 5)), targets)
        student = LogitSequence(rng.standard_normal((4, 5)), targets)
        losses = [cross_entropy(teacher, 2.0), cross_entropy(student, 2.0),
                  kd_loss(teacher, student, 2.0)]
        assert calls == [2.0, 2.0]
        assert losses == [cross_entropy(LogitSequence(teacher.logits, targets), 2.0),
                          cross_entropy(LogitSequence(student.logits, targets), 2.0),
                          kd_loss(LogitSequence(teacher.logits), LogitSequence(student.logits),
                                  2.0)]
        cross_entropy(teacher, 1.0)
        assert calls[-1] == 1.0 and not teacher.log_probs(1.0).flags.writeable
