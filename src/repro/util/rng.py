"""Deterministic random-number streams.

The simulator is fully deterministic given an experiment seed.  Each
component (one trace generator per core, the controller's tie-breaker, ...)
gets its own independent stream derived from ``(root_seed, *labels)`` so that
adding a component or reordering draws in one component never perturbs
another.  This mirrors the paper's methodology of using *different SimPoints*
for profiling and evaluation: we use different derived streams.
"""

from __future__ import annotations

import ctypes
import hashlib
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np
import numpy.random._generator as _np_generator

__all__ = ["derive_seed", "lemire_reject", "RngStream"]

# -- numpy's C draw layer ----------------------------------------------------
#
# Bound the way numpy's own ``random/_examples/cffi/extending.py`` binds
# it (``dlopen`` of the already-loaded ``_generator`` extension), but with
# stdlib ctypes: cffi's declaration parser would add tens of milliseconds
# to every process start, and numpy has already imported ctypes.
# PyDLL/PYFUNCTYPE keep the GIL across the call; releasing it around a
# ~10 ns draw would cost ~100 ns per call.

_DISTRIBUTIONS = ctypes.PyDLL(_np_generator.__file__)
#: ``int64_t random_geometric(bitgen_t *, double p)``
_random_geometric = ctypes.PYFUNCTYPE(ctypes.c_int64, ctypes.c_void_p, ctypes.c_double)(
    ("random_geometric", _DISTRIBUTIONS)
)
#: prototypes of ``bitgen_t``'s ``next_*(void *state)`` function pointers
_NEXT_DOUBLE = ctypes.PYFUNCTYPE(ctypes.c_double, ctypes.c_void_p)
_NEXT_UINT32 = ctypes.PYFUNCTYPE(ctypes.c_uint32, ctypes.c_void_p)
_NEXT_UINT64 = ctypes.PYFUNCTYPE(ctypes.c_uint64, ctypes.c_void_p)

_SPAN32 = 1 << 32
_MASK32 = _SPAN32 - 1
_MASK64 = (1 << 64) - 1
_INT64_MIN = -(1 << 63)
_INT64_END = 1 << 63


def _address(fn: object) -> int:
    return ctypes.cast(fn, ctypes.c_void_p).value


def _pinned(draw: partial, generator: np.random.Generator) -> partial:
    """Make a bound C draw hold the ``Generator`` owning its state pointer,
    so the callable stays valid after its ``RngStream`` is dropped."""
    draw.generator = generator
    return draw


def _clamp_p(p: float) -> float:
    """Clamp a geometric ``p`` into [1e-12, 1] (conditionals: a two-argument
    ``min``/``max`` pair costs more than the draw itself)."""
    q = 1e-12 if p < 1e-12 else (1.0 if p > 1.0 else p)
    if q != q:
        raise ValueError("geometric p is NaN")
    return q


def lemire_reject(draw: Callable[[], int], m: int, n: int, bits: int) -> int:
    """Rejection tail of numpy's Lemire bounded draw in ``[0, n)``.

    A bounded draw takes ``m = draw() * n`` from a ``bits``-wide word and
    returns ``m >> bits``; only when ``m``'s low ``bits`` fall below ``n``
    may the draw be biased.  Call this then, with that first product: it
    redraws while the low word is under numpy's threshold
    ``(2**bits - n) % n`` and returns the accepted value.
    """
    mask = (1 << bits) - 1
    threshold = ((1 << bits) - n) % n
    while (m & mask) < threshold:
        m = draw() * n
    return m >> bits


def derive_seed(root_seed: int, *labels: object) -> int:
    """Derive a stable 63-bit child seed from ``root_seed`` and labels.

    Uses SHA-256 over a canonical encoding, so the result is stable across
    Python processes and versions (unlike ``hash()``).

    >>> derive_seed(1, "core", 0) == derive_seed(1, "core", 0)
    True
    >>> derive_seed(1, "core", 0) != derive_seed(1, "core", 1)
    True
    """
    payload = repr((int(root_seed),) + tuple(str(x) for x in labels)).encode()
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "little") & (2**63 - 1)


class RngStream:
    """A labelled, reproducible random stream.

    A numpy :class:`~numpy.random.Generator` (PCG64) whose scalar draws
    skip numpy's per-call Python wrapper: they call the C layer directly
    through :mod:`ctypes` — the bit generator's own ``next_double`` /
    ``next_uint32`` / ``next_uint64`` and the ``random_geometric`` that
    ``numpy.random._generator`` exports.  The same C state advances in
    the same order as ``Generator.random`` / ``integers`` / ``geometric``
    would advance it (including PCG64's buffered uint32 half, which
    ``Generator.integers`` shares), so every draw is identical to the
    numpy call's by construction.  ``tests/test_util_rng.py`` checks that
    against a twin ``Generator``; ``tests/golden/golden_streams.json``
    pins the trace streams built on it.

    The wrapped ``Generator`` owns the state the raw pointers address; it
    lives as long as this object or any draw callable taken from it.  The
    direct draws skip ``bit_generator.lock``.  That is safe because a
    stream is only ever shared by extending a ``ReplayTrace`` recording,
    which already runs under ``_RecordedStream.lock``.

    Parameters
    ----------
    root_seed:
        The experiment root seed.
    labels:
        Arbitrary hashable labels identifying this stream (component path).

    Attributes
    ----------
    random:
        Zero-argument callable: uniform float in [0, 1) (``next_double``).
    next_uint32, next_uint64:
        Zero-argument callables: the bit generator's raw words, for
        callers that inline :func:`lemire_reject`'s bounded draw.
    """

    __slots__ = (
        "root_seed", "labels", "_gen", "_bitgen",
        "random", "next_uint32", "next_uint64",
    )

    def __init__(self, root_seed: int, *labels: object) -> None:
        self.root_seed = int(root_seed)
        self.labels = tuple(labels)
        gen = self._gen = np.random.default_rng(derive_seed(root_seed, *labels))
        iface = gen.bit_generator.ctypes
        state = iface.state_address
        self._bitgen = iface.bit_generator.value
        self.random = _pinned(
            partial(_NEXT_DOUBLE(_address(iface.next_double)), state), gen)
        self.next_uint32 = _pinned(
            partial(_NEXT_UINT32(_address(iface.next_uint32)), state), gen)
        self.next_uint64 = _pinned(
            partial(_NEXT_UINT64(_address(iface.next_uint64)), state), gen)

    def child(self, *labels: object) -> "RngStream":
        """Spawn an independent stream labelled beneath this one."""
        return RngStream(self.root_seed, *self.labels, *labels)

    # -- draws -------------------------------------------------------------

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high) — numpy ``integers`` semantics.

        numpy's Lemire bounded draw: the 32-bit form on ``next_uint32``
        for spans up to 2**32, the 64-bit form on ``next_uint64`` above;
        a one-value span draws nothing.
        """
        n = high - low
        if not (_INT64_MIN <= low and high <= _INT64_END and n > 0):
            raise ValueError(f"need -2**63 <= low < high <= 2**63, got [{low}, {high})")
        if n <= _SPAN32:
            if n == 1:
                return low
            m = self.next_uint32() * n
            if (m & _MASK32) < n:
                return low + lemire_reject(self.next_uint32, m, n, 32)
            return low + (m >> 32)
        m = self.next_uint64() * n
        if (m & _MASK64) < n:
            return low + lemire_reject(self.next_uint64, m, n, 64)
        return low + (m >> 64)

    def geometric(self, p: float) -> int:
        """Geometric draw (number of trials to first success, >= 1).

        ``p`` is clamped into [1e-12, 1].
        """
        return _random_geometric(self._bitgen, _clamp_p(p))

    def geometric_draw(self, p: float) -> Callable[[], int]:
        """Zero-argument callable equal to ``lambda: self.geometric(p)``.

        Binds the clamped ``p`` once, for per-op loops that draw with a
        fixed parameter.
        """
        return _pinned(
            partial(_random_geometric, self._bitgen, ctypes.c_double(_clamp_p(p))),
            self._gen,
        )

    def choice(self, seq: Sequence, p: Iterable[float] | None = None):
        """Pick one element of ``seq`` (optionally weighted)."""
        idx = self._gen.choice(len(seq), p=None if p is None else list(p))
        return seq[int(idx)]

    def choice_index(self, weights: Sequence[float]) -> int:
        """Pick an index weighted by ``weights`` (need not be normalised)."""
        w = np.asarray(weights, dtype=float)
        total = w.sum()
        if total <= 0:
            raise ValueError("weights must have positive sum")
        return int(self._gen.choice(len(w), p=w / total))

    def shuffle(self, seq: list) -> None:
        """In-place Fisher–Yates shuffle."""
        self._gen.shuffle(seq)

    def uniform_floats(self, n: int) -> np.ndarray:
        """Vector of ``n`` uniforms — for batch trace generation."""
        return self._gen.random(n)

    def generator(self) -> np.random.Generator:
        """Expose the underlying numpy generator for vectorised use."""
        return self._gen

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStream(seed={self.root_seed}, labels={self.labels!r})"
