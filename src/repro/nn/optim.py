"""Optimizers operating in-place on :class:`repro.nn.module.Parameter` lists.

All state updates are vectorized in-place NumPy operations (no temporaries
beyond what the update rule needs), following the HPC guide's advice on
in-place arithmetic for large arrays.
"""

from __future__ import annotations

import numpy as np

from .module import Parameter

__all__ = ["Optimizer", "SGD", "Adam"]


class Optimizer:
    """Base class: holds the parameter list and implements ``zero_grad``."""

    def __init__(self, params: list[Parameter]) -> None:
        if not params:
            raise ValueError("optimizer received an empty parameter list")
        self.params = list(params)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay.

    The paper's clients train with plain SGD; momentum/decay are exposed for
    ablations.
    """

    def __init__(
        self,
        params: list[Parameter],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params)
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: list[np.ndarray] | None = (
            [np.zeros_like(p.data) for p in self.params] if momentum > 0 else None
        )

    def step(self) -> None:
        for idx, p in enumerate(self.params):
            grad = p.grad
            if self.weight_decay > 0.0:
                grad = grad + self.weight_decay * p.data
            if self._velocity is not None:
                v = self._velocity[idx]
                v *= self.momentum
                v += grad
                p.data -= self.lr * v
            else:
                p.data -= self.lr * grad


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015). Used for CVAE training, where plain SGD on
    the ELBO converges noticeably slower."""

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params)
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        b1, b2 = betas
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.lr = lr
        self.beta1, self.beta2 = b1, b2
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        # Two scratch tensors per parameter: the step allocates nothing.
        self._scratch = [(np.empty_like(p.data), np.empty_like(p.data)) for p in self.params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bias_c1 = 1.0 - self.beta1**self._t
        bias_c2 = 1.0 - self.beta2**self._t
        for idx, p in enumerate(self.params):
            m, v = self._m[idx], self._v[idx]
            s1, s2 = self._scratch[idx]
            grad = p.grad
            if self.weight_decay > 0.0:
                grad = np.multiply(self.weight_decay, p.data, out=s1)
                grad += p.grad
            # In-place form of
            #   m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g
            #   data -= (lr * (m/bc1)) / (sqrt(v/bc2) + eps)
            # with every operation in that order, so the result is
            # bit-identical to evaluating those expressions out of place.
            m *= self.beta1
            m += np.multiply(1.0 - self.beta1, grad, out=s2)
            v *= self.beta2
            v += np.multiply(np.multiply(1.0 - self.beta2, grad, out=s2), grad, out=s2)
            m_hat = np.divide(m, bias_c1, out=s1)
            denom = np.sqrt(np.divide(v, bias_c2, out=s2), out=s2)
            denom += self.eps
            m_hat *= self.lr
            m_hat /= denom
            p.data -= m_hat
