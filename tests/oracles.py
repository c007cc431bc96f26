"""Checks that only the tests use, kept out of the package: a
finite-difference gradient check, and the metrics.txt parser that the
round-trip tests hold evaluation.format_metrics_line to.
"""

from typing import Callable, Sequence, get_type_hints

import numpy as np

from openset_ssl.autodiff import Tensor
from openset_ssl.errors import ConfigError, NumericError
from openset_ssl.evaluation import METRICS_KEY_ORDER, MetricsRecord

_TYPES = get_type_hints(MetricsRecord)


def grad_check(loss_fn: Callable[[], Tensor], params: Sequence[Tensor], eps: float = 1e-5) -> float:
    """Compare analytic gradients of loss_fn against central differences.

    Returns max over parameter entries of |analytic - numeric| / max(1, |numeric|).
    loss_fn must be deterministic: any stochastic augmentation inside it
    has to be re-seeded on every call.
    """
    for p in params:
        p.zero_grad()
    loss = loss_fn()
    if loss.data.size != 1 or not np.isfinite(loss.data):
        raise NumericError("grad_check needs a finite scalar loss")
    loss.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.data.reshape(-1)
        a_flat = a.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = loss_fn().data.item()
            flat[i] = orig - eps
            down = loss_fn().data.item()
            flat[i] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise NumericError("non-finite loss during finite differencing")
            numeric = (up - down) / (2.0 * eps)
            rel = abs(a_flat[i] - numeric) / max(1.0, abs(numeric))
            worst = max(worst, rel)
    return worst


def parse_metrics_line(line: str) -> MetricsRecord:
    tokens: dict[str, str] = {}
    for token in line.split():
        if "=" not in token:
            raise ConfigError(f"malformed metrics token {token!r}")
        key, value = token.split("=", 1)
        tokens[key] = value
    values: dict[str, int | float | None] = {}
    for key in METRICS_KEY_ORDER:
        kind = _TYPES[key]
        if key not in tokens:
            if kind in (int, float):
                raise ConfigError(f"metrics line is missing key {key!r}")
            values[key] = None
            continue
        try:
            values[key] = (int if kind is int else float)(tokens[key])
        except ValueError as e:
            raise ConfigError(f"metrics key {key}: expected a number, got {tokens[key]!r}") from e
    return MetricsRecord(**values)


def read_metrics(path) -> list[MetricsRecord]:
    with open(path) as fh:
        return [parse_metrics_line(line) for line in fh if line.strip()]
