"""A from-scratch numpy Q-network with batch normalization and Adam.

Architecture (paper, Section V-A): ``Linear(in, hidden) -> BatchNorm ->
tanh -> Linear(hidden, out)`` with 25 hidden units, linear output head, and
Adam at learning rate 0.01. Batch normalization keeps the value scales of
heterogeneous state features (trajectory fractions vs. metre-scale
distances) comparable, which the paper calls out as necessary.

The network trains on the squared TD-error of *selected* actions only, the
usual DQN regression target.
"""

from __future__ import annotations

import numpy as np

_BN_EPS = 1e-5
_BN_MOMENTUM = 0.9


class _Adam:
    """Adam state for one parameter tensor."""

    __slots__ = ("m", "v", "t", "lr", "beta1", "beta2", "eps")

    def __init__(self, shape: tuple[int, ...], lr: float) -> None:
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0
        self.lr = lr
        self.beta1 = 0.9
        self.beta2 = 0.999
        self.eps = 1e-8

    def update(self, param: np.ndarray, grad: np.ndarray) -> None:
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad**2
        m_hat = self.m / (1.0 - self.beta1**self.t)
        v_hat = self.v / (1.0 - self.beta2**self.t)
        param -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class QNetwork:
    """Two-layer MLP Q-function approximator.

    Parameters
    ----------
    in_dim, out_dim:
        State and action-space dimensionalities.
    hidden:
        Hidden units (paper default: 25).
    lr:
        Adam learning rate (paper default: 0.01).
    seed:
        Weight-initialization seed.
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        hidden: int = 25,
        lr: float = 0.01,
        seed: int = 0,
    ) -> None:
        if in_dim < 1 or out_dim < 1 or hidden < 1:
            raise ValueError("network dimensions must be positive")
        rng = np.random.default_rng(seed)
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.hidden = hidden
        scale1 = np.sqrt(2.0 / (in_dim + hidden))
        scale2 = np.sqrt(2.0 / (hidden + out_dim))
        self.w1 = rng.normal(0.0, scale1, size=(in_dim, hidden))
        self.b1 = np.zeros(hidden)
        self.gamma = np.ones(hidden)  # batch-norm scale
        self.beta = np.zeros(hidden)  # batch-norm shift
        self.w2 = rng.normal(0.0, scale2, size=(hidden, out_dim))
        self.b2 = np.zeros(out_dim)
        self.running_mean = np.zeros(hidden)
        self.running_var = np.ones(hidden)
        self._optimizers = {
            name: _Adam(getattr(self, name).shape, lr)
            for name in ("w1", "b1", "gamma", "beta", "w2", "b2")
        }

    # ----------------------------------------------------------------- forward
    def predict(self, x: np.ndarray) -> np.ndarray:
        """Q-values for a ``(B, in_dim)`` batch (inference mode)."""
        if type(x) is np.ndarray and x.dtype == np.float64 and x.ndim == 1:
            x = x[np.newaxis, :]  # one state, as ``act`` passes it
        else:
            x = np.atleast_2d(np.asarray(x, dtype=float))
        z1 = x @ self.w1 + self.b1
        z1_hat = (z1 - self.running_mean) / np.sqrt(self.running_var + _BN_EPS)
        h = np.tanh(self.gamma * z1_hat + self.beta)
        return h @ self.w2 + self.b2

    def _forward_train(self, x: np.ndarray) -> dict:
        z1 = x @ self.w1 + self.b1
        if len(x) > 1:
            mean = z1.mean(axis=0)
            var = z1.var(axis=0)
            self.running_mean = (
                _BN_MOMENTUM * self.running_mean + (1.0 - _BN_MOMENTUM) * mean
            )
            self.running_var = (
                _BN_MOMENTUM * self.running_var + (1.0 - _BN_MOMENTUM) * var
            )
        else:
            # Single-sample batches fall back to the running statistics.
            mean, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + _BN_EPS)
        z1_hat = (z1 - mean) * inv_std
        a = self.gamma * z1_hat + self.beta
        h = np.tanh(a)
        q = h @ self.w2 + self.b2
        return {
            "x": x,
            "z1": z1,
            "z1_hat": z1_hat,
            "inv_std": inv_std,
            "h": h,
            "q": q,
            "batched": len(x) > 1,
        }

    # ---------------------------------------------------------------- training
    def train_step(
        self, states: np.ndarray, actions: np.ndarray, targets: np.ndarray
    ) -> float:
        """One Adam step on the TD regression loss; returns the batch MSE.

        Only the Q-values of the given ``actions`` receive gradient, the
        standard DQN objective ``(Q(s, a) - y)^2``.
        """
        states = np.atleast_2d(np.asarray(states, dtype=float))
        actions = np.asarray(actions, dtype=int)
        targets = np.asarray(targets, dtype=float)
        batch = len(states)
        cache = self._forward_train(states)
        q = cache["q"]
        picked = q[np.arange(batch), actions]
        error = picked - targets
        loss = float(np.mean(error**2))

        dq = np.zeros_like(q)
        dq[np.arange(batch), actions] = 2.0 * error / batch
        self._backward(cache, dq)
        return loss

    def _backward(self, cache: dict, dq: np.ndarray) -> None:
        """Backpropagate a gradient at the output layer and apply Adam.

        ``dq`` is ``dLoss/dOutput`` for the batch of :meth:`_forward_train`'s
        ``cache``. Shared by the TD regression loss and the policy-gradient
        loss of :mod:`repro.rl.policy_gradient`.
        """
        batch = len(cache["x"])
        h = cache["h"]
        dw2 = h.T @ dq
        db2 = dq.sum(axis=0)
        dh = dq @ self.w2.T
        da = dh * (1.0 - h**2)
        dgamma = (da * cache["z1_hat"]).sum(axis=0)
        dbeta = da.sum(axis=0)
        dz1_hat = da * self.gamma
        if cache["batched"]:
            # Full batch-norm backward pass.
            inv_std = cache["inv_std"]
            z1_hat = cache["z1_hat"]
            dz1 = (
                inv_std
                / batch
                * (
                    batch * dz1_hat
                    - dz1_hat.sum(axis=0)
                    - z1_hat * (dz1_hat * z1_hat).sum(axis=0)
                )
            )
        else:
            dz1 = dz1_hat * cache["inv_std"]
        dw1 = cache["x"].T @ dz1
        db1 = dz1.sum(axis=0)

        for name, grad in (
            ("w1", dw1),
            ("b1", db1),
            ("gamma", dgamma),
            ("beta", dbeta),
            ("w2", dw2),
            ("b2", db2),
        ):
            self._optimizers[name].update(getattr(self, name), grad)

    # -------------------------------------------------------------- parameters
    _PARAM_NAMES = ("w1", "b1", "gamma", "beta", "w2", "b2",
                    "running_mean", "running_var")

    def get_parameters(self) -> dict[str, np.ndarray]:
        """A deep copy of all parameters and batch-norm statistics."""
        return {name: getattr(self, name).copy() for name in self._PARAM_NAMES}

    def set_parameters(self, params: dict[str, np.ndarray]) -> None:
        for name in self._PARAM_NAMES:
            setattr(self, name, np.array(params[name], dtype=float))

    def copy_from(self, other: "QNetwork") -> None:
        """Copy weights from another network (target-network sync)."""
        self.set_parameters(other.get_parameters())
