"""Open-set semi-supervised learning on synthetic cluster data.

A compact research engine: a hand-rolled reverse-mode autodiff core, an
MLP with a closed-set head and one-vs-all outlier heads, the combined
training objective (supervised terms, entropy minimization, soft
consistency, pseudo-label self-training), plus data generation,
evaluation, and a CLI. The Python API is the submodules; the root
re-exports nothing.
"""

__version__ = "0.1.0"
