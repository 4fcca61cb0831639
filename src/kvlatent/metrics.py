"""Evaluable losses over logit sequences: cross-entropy, temperature KD, and
their weighted combination. Natural-log units throughout; the same
temperature feeds both the target probabilities and the distillation term
unless callers pass different values.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

# Student probabilities are clamped here before the log so a fully collapsed
# distribution yields a large finite penalty instead of -inf.
_P_FLOOR = 1e-300


@dataclass(frozen=True)
class LogitSequence:
    """Per-position logits (T x V) with optional next-token targets."""

    logits: np.ndarray
    targets: np.ndarray | None = None
    _log_probs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        logits = np.asarray(self.logits, dtype=np.float64)
        if logits.ndim != 2:
            raise ValidationError(f"logits must be 2-D, got shape {logits.shape}")
        if not np.all(np.isfinite(logits)):
            raise ValidationError("logits contain non-finite entries")
        object.__setattr__(self, "logits", logits)
        if self.targets is not None:
            targets = np.asarray(self.targets)
            if targets.shape != (logits.shape[0],):
                raise ValidationError(
                    f"targets shape {targets.shape} does not match positions "
                    f"{logits.shape[0]}"
                )
            if not np.issubdtype(targets.dtype, np.integer):
                raise ValidationError("targets must be integers")
            if np.any(targets < 0) or np.any(targets >= logits.shape[1]):
                raise ValidationError("targets out of vocabulary range")
            object.__setattr__(self, "targets", targets.copy())

    def log_probs(self, tau: float) -> np.ndarray:
        """Log-softmax of the logits at temperature tau, computed once per
        tau and kept: cross_entropy and kd_loss of one sequence share it."""
        if tau not in self._log_probs:
            self._log_probs[tau] = _log_softmax(self.logits, tau)
            self._log_probs[tau].flags.writeable = False
        return self._log_probs[tau]


def _check_tau(tau: float) -> float:
    if not (np.isfinite(tau) and tau > 0.0):
        raise ValidationError(f"tau must be positive and finite, got {tau}")
    return float(tau)


@dataclass(frozen=True)
class LossParams:
    tau: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        _check_tau(self.tau)
        if not (np.isfinite(self.beta) and self.beta >= 0.0):
            raise ValidationError(f"beta cannot be negative or non-finite, got {self.beta}")
        # total_loss's KD weight, as a float product: tau**2 would raise.
        if not np.isfinite(self.beta * (self.tau * self.tau)):
            raise ValidationError(f"beta * tau^2 must be finite, got beta={self.beta} and "
                                  f"tau={self.tau}")


def _log_softmax(logits: np.ndarray, tau: float) -> np.ndarray:
    # A tau small enough to overflow the logits gives non-finite losses,
    # which total_loss refuses by name instead of as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        z = logits / tau
        z -= z.max(axis=-1, keepdims=True)
        z -= np.log(np.exp(z).sum(axis=-1, keepdims=True))
        return z


def cross_entropy(student: LogitSequence, tau: float = 1.0) -> float:
    """Mean negative log probability of the targets at temperature tau."""
    tau = _check_tau(tau)
    if student.targets is None:
        raise ValidationError("cross_entropy requires targets")
    logp = student.log_probs(tau)
    picked = logp[np.arange(student.logits.shape[0]), student.targets]
    return float(-picked.mean())


def kd_loss(teacher: LogitSequence, student: LogitSequence, tau: float = 1.0) -> float:
    """Position-averaged KL(teacher || student), both at temperature tau."""
    tau = _check_tau(tau)
    if teacher.logits.shape != student.logits.shape:
        raise ValidationError(
            f"shape mismatch: {teacher.logits.shape} vs {student.logits.shape}"
        )
    log_pt = teacher.log_probs(tau)
    pt = np.exp(log_pt)
    # pt (log_pt - max(log_ps, log floor)), formed in one buffer; positions
    # to which the teacher gives no positive mass add nothing.
    terms = np.maximum(student.log_probs(tau), np.log(_P_FLOOR))
    np.subtract(log_pt, terms, out=terms)
    terms *= pt
    terms[~(pt > 0.0)] = 0.0
    return float(terms.sum(axis=-1).mean())


def total_loss(ce: float, kd: float, params: LossParams) -> float:
    """Combined objective: ce + beta * tau^2 * kd."""
    if not (np.isfinite(ce) and np.isfinite(kd)):
        raise ValidationError("loss terms must be finite")
    return float(ce + params.beta * params.tau**2 * kd)
