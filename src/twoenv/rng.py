"""Reproducible, splittable random streams.

Every sampling operation in the package takes an explicit generator.
Streams are derived from a root seed in [0, 2**64) plus an arbitrary tuple of
labels (strings, ints): each label is hashed with SHA-256 into an entropy
word, the words feed a ``SeedSequence``, and the sequence keys a Philox
counter-based generator.  Two streams with different label tuples are
statistically independent, and the derivation is stable across processes
and platforms, so ``(seed, d, method, repetition)`` always maps to the
same stream regardless of execution order.
"""

from __future__ import annotations

import hashlib

import numpy as np
import numpy.random  # noqa: F401  numpy loads it lazily; load it at start-up, not in a command

from .errors import ConfigError, TwoEnvError, integer_in

SEED_LIMIT = 2**64  # root seeds are 64-bit words; a larger one would alias a smaller


def check_seed_block(base: int, count: int, base_name: str, count_name: str) -> None:
    """Raise :class:`ConfigError` unless seeds ``base`` to ``base + count - 1`` are valid."""
    if not integer_in(base, 0, SEED_LIMIT - int(count)):
        raise ConfigError(f"{base_name} must be an integer in [0, 2**64 - {count_name}] so that "
                          f"every seed is below 2**64, got {base!r}")


def _label_word(label) -> int:
    digest = hashlib.sha256(repr(label).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def stream(seed: int, *labels) -> np.random.Generator:
    """Return the Philox generator keyed by ``seed`` and ``labels``."""
    if not integer_in(seed, 0, SEED_LIMIT - 1):
        raise TwoEnvError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    entropy = [int(seed)]
    entropy.extend(_label_word(lab) for lab in labels)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def spawn_seed(rng: np.random.Generator) -> int:
    """Draw a fresh 63-bit seed from an existing generator."""
    return int(rng.integers(0, 2**63 - 1))
