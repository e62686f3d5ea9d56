"""A fixed probe of the host's speed, for timing on a shared machine.

The reference machine shares its cores with other tenants, and its speed
moves by up to 1.7x within seconds. A short, fixed piece of pure-Python work
that runs next to each timed op slows down with it, so dividing an op's time
by the probe's time cancels the host's state while the program's own cost
stays in. The probe is dict and tuple arithmetic in the style of the
engine's sparse polynomials, and it shares no code with the program.

Multiplying a wall time by ``PROBE_REF_S`` over the probe's time around it
gives the time the op takes when the probe takes ``PROBE_REF_S``: on the
reference machine at a quiet moment. The probe and ``PROBE_REF_S`` are part
of the benchmark's definition and must not change.
"""

from __future__ import annotations

import gc
import random
from operator import add
from time import perf_counter

# The probe's time on the reference machine when no other tenant is busy
# (the lower mode of its times; see README.md).
PROBE_REF_S = 0.0070

_rng = random.Random(0)
_POLYS = [
    {tuple(_rng.randrange(3) for _ in range(6)): _rng.randrange(1, 32003) for _ in range(12)}
    for _ in range(8)
]


def _product_sum() -> None:
    acc: dict[tuple[int, ...], int] = {}
    for f in _POLYS:
        for g in _POLYS:
            for ea, ca in f.items():
                for eb, cb in g.items():
                    e = tuple(map(add, ea, eb))
                    acc[e] = (acc.get(e, 0) + ca * cb) % 32003


def probe_s() -> float:
    """The probe's time now: the faster of two runs, with the collector off
    so that the size of the program's live heap does not enter it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            t0 = perf_counter()
            _product_sum()
            best = min(best, perf_counter() - t0)
        return best
    finally:
        if enabled:
            gc.enable()
