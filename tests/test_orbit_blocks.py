"""Block values of orbit tables against stepping the positional states.

``_Orbits.blocks`` reads every trailing position off the prefix sums of
one preperiod and one cycle.  The reference below shares no code with
it: it steps a gambler's positional states one at a time from the
initial state, reads the symbol under each head, encodes the scanned
vector with ``encode_symbol_vector`` and sums each block of codes,
padded with code 0, as ``v = sum_j c_j * (k**h)**j``.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galelab.core import encode_symbol_vector
from galelab.engine import _Orbits

from gamblers import orbit_gambler


def reference_blocks(spec, buf, start: int, stop: int, stride: int) -> list[int]:
    t, pos, codes = spec.initial_t, [0] * (spec.head_count - 1), []
    for m in range(stop):
        if m >= start:
            codes.append(encode_symbol_vector([int(buf[p]) for p in pos] + [int(buf[m])], spec.k))
        pos = [p + b for p, b in zip(pos, spec.positional[t].move_bits)]
        t = spec.positional[t].next_id
    codes += [0] * (-len(codes) % stride)
    w = spec.k ** spec.head_count
    return [sum(c * w ** j for j, c in enumerate(codes[i:i + stride]))
            for i in range(0, len(codes), stride)]


def assert_blocks_match(specs, buf, start, stop, stride):
    for spec in specs:
        values = _Orbits.of(spec).blocks(buf, start, stop, stride)
        assert values.dtype == np.int64 and values.shape == (-(-(stop - start) // stride),)
        assert values.tolist() == reference_blocks(spec, buf, start, stop, stride)


def random_bits(seed: int, n: int, k: int = 2) -> np.ndarray:
    rng = random.Random(seed)
    return np.array([rng.randrange(k) for _ in range(n)], dtype=np.uint8)


def every_orbit_shape() -> list:
    """Three-head orbits with preperiods 0-3 and cycles 1-5, and a one-
    and a two-head orbit."""
    specs = [orbit_gambler(pre * 5 + cyc, 3, pre, cyc) for pre in range(4) for cyc in range(1, 6)]
    return [orbit_gambler(100, 1, 2, 3), *specs, orbit_gambler(101, 2, 3, 4)]


WINDOWS = {  # name: (start, stop)
    "inside_the_preperiod": (0, 2),
    "one_step_inside": (1, 2),
    "straddling_its_end": (1, 9),
    "from_its_end": (3, 40),
    "deep_in_the_cycle": (1001, 1100),
    "one_step_deep": (1234, 1235),
}


@pytest.mark.parametrize("stride", [1, 2, 3, 5])
@pytest.mark.parametrize("window", WINDOWS)
def test_blocks_of_every_orbit_shape(window, stride):
    start, stop = WINDOWS[window]
    assert_blocks_match(every_orbit_shape(), random_bits(7, 1300), start, stop, stride)


def test_a_padded_last_block_of_two_head_orbits():
    """Every window length modulo the stride, so some blocks carry one,
    two or three padded codes."""
    specs = [orbit_gambler(seed, 2, seed % 4, 1 + seed % 5) for seed in range(20)]
    buf = random_bits(8, 300)
    for stop in range(250, 258):
        assert_blocks_match(specs, buf, 200, stop, 4)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(orbits=st.lists(st.tuples(st.integers(0, 10_000), st.integers(1, 3),
                                 st.integers(0, 3), st.integers(1, 5)), min_size=1, max_size=5),
       k=st.sampled_from([2, 3]), deep=st.booleans(), start=st.integers(0, 60),
       length=st.integers(1, 60), stride=st.integers(1, 4), seed=st.integers(0, 50))
def test_blocks_match_stepped_orbits(orbits, k, deep, start, length, stride, seed):
    """Random 1-3-head orbits and a one-head one, over windows near the
    start or past a thousand steps."""
    specs = [orbit_gambler(s, h, pre, cyc, k) for s, h, pre, cyc in orbits]
    start += 1000 * deep
    assert_blocks_match([orbit_gambler(seed, 1, 0, 1, k), *specs],
                        random_bits(seed, start + length, k), start, start + length, stride)
