"""Seeded views for holding the weight (:func:`qamp.multiplier._weight`) to
``math.fsum`` of the squares, shared by the tier-1 tests and
``.github/weight_sweep.py``.

Each family draws a float64 view of a given size from a generator.  The
reference squares each nonzero amplitude as a Python float and hands the
squares to ``math.fsum`` largest first; that order decides nothing but
whether a sum of finite squares past float64 raises ``OverflowError`` or
reads inf when an overflowed square is among them.
"""

import math

import numpy as np


def _gaussian(rng, size):
    return rng.normal(size=size)


def _spread(rng, size):
    # magnitudes over 320 binades, squares over 640
    return rng.normal(size=size) * 2.0 ** rng.uniform(-160.0, 160.0, size=size)


def _powers(rng, size):
    return rng.choice([-1.0, 1.0], size=size) * 2.0 ** rng.integers(-40, 40, size=size).astype(float)


def _zeros(rng, size):
    view = rng.normal(size=size)
    zeros = rng.random(size=size) < 0.7
    view[zeros] = np.copysign(0.0, rng.choice([-1.0, 1.0], size=int(zeros.sum())))
    return view


def _subnormal(rng, size):
    # squares from normal down to subnormal, and some that underflow to 0
    return rng.normal(size=size) * 2.0 ** rng.uniform(-545.0, -500.0, size=size)


def _overflowing(rng, size):
    # squares from large finite ones to ones past float64
    return rng.normal(size=size) * 2.0 ** rng.uniform(480.0, 520.0, size=size)


#: name -> (generator, size) -> a float64 view
FAMILIES = {
    "gaussian": _gaussian,
    "spread": _spread,
    "powers": _powers,
    "zeros": _zeros,
    "subnormal": _subnormal,
    "overflowing": _overflowing,
}


def views(seed: int, count: int, max_bits: int = 12):
    """``count`` (family, view) pairs from ``seed``, the families in turn,
    each view of a size drawn below 2**k for k uniform in 0..max_bits, so
    that empty and one-element views come up often."""
    rng = np.random.default_rng(seed)
    names = list(FAMILIES)
    for i in range(count):
        name = names[i % len(names)]
        size = int(rng.integers(0, 1 << int(rng.integers(0, max_bits + 1))))
        yield name, FAMILIES[name](rng, size)


def outcome(weigh, view) -> str:
    """What ``weigh(view)`` gives: its float in hex, which tells -0.0 from
    +0.0, or ``"OverflowError"`` where it raises that."""
    try:
        with np.errstate(over="ignore", under="ignore"):
            return float(weigh(view)).hex()
    except OverflowError:
        return "OverflowError"


def reference(view) -> float:
    """``math.fsum`` of the squares of the view's nonzero amplitudes,
    largest first."""
    return math.fsum(sorted((v * v for v in view.tolist() if v), reverse=True))
