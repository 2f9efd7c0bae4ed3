"""Per-process jitter tapes for the fast core's clock edges.

Every clock edge carries Gaussian jitter (paper Table 1): the reference's
``DomainClock.advance`` calls ``Random.gauss(0.0, sigma)`` on the clock's
own generator, so a clock's jitter stream is a function of that
generator's state when the run starts and of sigma.  ``MCDProcessor``
seeds its four clock generators from ``Random(seed)``, so every run on one
seed starts its clocks from the same four states, whatever the benchmark
or the scheme.

A :class:`JitterTape` holds the values successive ``gauss(0.0, sigma)``
calls return from one start state, in call order, a second variate the
state already caches (``gauss_next``) first.  :func:`tape_for` interns one
tape per ``(state, sigma)`` and process, so a later run whose clock starts
from the same state reads the values instead of computing them.  A reader
that runs past the end extends the tape by :data:`CHUNK_VALUES` values.
When the run ends, :func:`advance` moves each clock's generator to exactly
where its consumed draws leave it, as the reference's calls would have.

Memory: a tape stores a value in 8 bytes (``array('d')``), so a running
run holds 8 bytes per jitter draw.  A process keeps at most
:data:`MAX_TAPES` tapes: a new key past the cap clears the intern dict
first.  A finished run trims each of its tapes to
:data:`MAX_VALUES_PER_TAPE` values.  A dropped tape or value is computed
again, bit-exactly, by the next run that needs it, and a run that still
holds a dropped tape keeps using it.

Serve's executor threads may share a tape.  Extending and trimming hold
the tape's lock.  A value never changes once computed, so a reader
indexes without the lock, and a reader that finds the index missing asks
:meth:`JitterTape.at`, which computes it under the lock.
"""

from __future__ import annotations

from array import array
from math import cos, log, pi, sin, sqrt
from random import Random
from threading import Lock
from typing import Any, Dict, Tuple

#: values a tape grows by when a reader runs past its end.  A doubling
#: fill computes values no run reads on runs that share no seed.
CHUNK_VALUES = 256

#: values a tape keeps after its run.  The longest clock stream of a
#: ``sweep_cold`` grid run (mcf, 1,000 instructions) draws ~12,500, and
#: one of gzip at 60,000 instructions ~108,000.
MAX_VALUES_PER_TAPE = 1 << 16

#: tapes :data:`_TAPES` keeps before it is cleared: four clocks on each
#: of four seeds.  With :data:`MAX_VALUES_PER_TAPE`, 8 MiB at most.
MAX_TAPES = 16

#: pairs :func:`advance` skips per ``getrandbits`` call, which builds an
#: int of 16 bytes per pair
_SKIP_PAIRS = 1 << 12

#: ``random.TWOPI``, the constant ``Random.gauss`` scales its first draw by
_TWOPI = 2.0 * pi

#: ``Random.getstate()``: (version, Mersenne Twister words, gauss_next)
State = Tuple[Any, ...]


class JitterTape:
    """The jitter one clock draws from one start state, computed once."""

    __slots__ = ("start", "sigma", "values", "_rng", "_lock")

    def __init__(self, start: State, sigma: float) -> None:
        self.start = start
        self.sigma = sigma
        #: ``values[i]`` is what the ``i``-th ``gauss(0.0, sigma)`` call
        #: returns.  It is extended and trimmed in place, never replaced,
        #: so a reader may hold on to it.
        self.values = array("d")
        # where the values computed so far leave a generator that started
        # at ``start``
        self._rng = Random(0)
        self._rng.setstate(start)
        self._lock = Lock()

    def at(self, index: int) -> float:
        """``values[index]``, computing the values up to it first."""
        with self._lock:
            values = self.values
            rng = self._rng
            rnd = rng.random
            sigma = self.sigma
            while len(values) <= index:
                # Random.gauss, inlined: the same draws in the same order,
                # the same 0.0 + z * sigma, and the cached second variate
                # handed back to the generator
                gauss_next = rng.gauss_next
                chunk = []
                for _ in range(CHUNK_VALUES):
                    z = gauss_next
                    if z is None:
                        x2pi = rnd() * _TWOPI
                        g2rad = sqrt(-2.0 * log(1.0 - rnd()))
                        z = cos(x2pi) * g2rad
                        gauss_next = sin(x2pi) * g2rad
                    else:
                        gauss_next = None
                    chunk.append(0.0 + z * sigma)
                rng.gauss_next = gauss_next
                values.fromlist(chunk)
            return values[index]

    def trim(self) -> None:
        """Keep at most :data:`MAX_VALUES_PER_TAPE` values."""
        with self._lock:
            if len(self.values) > MAX_VALUES_PER_TAPE:
                del self.values[MAX_VALUES_PER_TAPE:]
                advance(self._rng, self.start, MAX_VALUES_PER_TAPE)


#: process-wide tape interning: (start state, sigma) -> JitterTape
_TAPES: Dict[Tuple[State, float], JitterTape] = {}


def tape_for(rng: Random, sigma: float) -> JitterTape:
    """The interned tape of the jitter ``rng`` draws from its state now."""
    start = rng.getstate()
    key = (start, sigma)
    tape = _TAPES.get(key)
    if tape is None:
        if len(_TAPES) >= MAX_TAPES:
            _TAPES.clear()
        tape = _TAPES[key] = JitterTape(start, sigma)
    return tape


def advance(rng: Random, start: State, count: int) -> None:
    """Put ``rng`` where ``count`` ``gauss`` calls from ``start`` leave it.

    ``gauss`` first hands out a cached second variate, which draws
    nothing, and then computes its values in pairs from two ``random()``
    calls, four 32-bit Mersenne Twister words per pair: the words
    ``getrandbits(128)`` consumes.  An odd count ends inside a pair, whose
    second variate the generator then caches.
    """
    rng.setstate(start)
    if count and start[2] is not None:
        rng.gauss()
        count -= 1
    pairs, odd = divmod(count, 2)
    while pairs:
        skip = min(pairs, _SKIP_PAIRS)
        rng.getrandbits(128 * skip)
        pairs -= skip
    if odd:
        rng.gauss()
