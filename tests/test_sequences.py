"""Primes, derived sequence families, the expansion oracle, and file I/O."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galelab.sequences import (
    SourceExhausted,
    constant_source,
    expand_index,
    f_family,
    nth_prime,
    prng_source,
    read_sequence,
    verify_parity_structure,
    write_sequence,
)

from gamblers import array_source


# ---------------------------------------------------------------------------
# primes
# ---------------------------------------------------------------------------

def test_nth_prime_values():
    assert nth_prime(1) == 2
    assert nth_prime(2) == 3
    assert nth_prime(4) == 7


def test_nth_prime_beyond_table_names_maximum():
    with pytest.raises(ValueError, match="table size"):
        nth_prime(1000)


def test_nth_prime_indices_start_at_one():
    with pytest.raises(ValueError, match="start at 1"):
        nth_prime(0)


# ---------------------------------------------------------------------------
# derived families
# ---------------------------------------------------------------------------

def test_copy_rule_index_arithmetic():
    inner = prng_source(11)
    src = f_family(2, "F", inner)
    # index q*5 + r (r>0) copies inner[q*4 + r]
    assert src.get(7) == inner.get(6)
    assert src.get(24) == inner.get(20)
    assert src.get(0) == inner.get(0)


def test_first_boundary_is_parity_of_copies():
    inner = prng_source(5)
    src = f_family(2, "F", inner)
    # F[5] = F[2] xor F[3] = S[2] xor S[3]
    assert src.get(5) == inner.get(2) ^ inner.get(3)


def test_figure_style_cancellation_at_150():
    inner = prng_source(1)
    src = f_family(2, "F", inner)
    assert src.get(150) == inner.get(20) ^ inner.get(44)


def test_variant_boundary_rules():
    inner = prng_source(9)
    xp = f_family(2, "Fprime", inner)
    xpp = f_family(2, "Fdoubleprime", inner)
    for q in range(1, 40):
        assert xp.get(5 * q) == xp.get(2 * q)
        assert xpp.get(5 * q) == xpp.get(3 * q)
    assert xp.get(0) == inner.get(0)
    assert xpp.get(0) == inner.get(0)


def test_variant_construction_rejects_bad_parameters():
    with pytest.raises(ValueError):
        f_family(1, "Fdoubleprime", prng_source(0))
    with pytest.raises(ValueError):
        f_family(2, "G", prng_source(0))
    with pytest.raises(ValueError):
        f_family(50, "F", prng_source(0))


def test_prefix_is_stable_under_extension():
    src = f_family(3, "F", prng_source(4))
    first = list(src.prefix_array(200))
    src.prefix_array(5000)
    assert list(src.prefix_array(200)) == first


def test_copy_rule_density_and_injectivity():
    p = 5
    seen = {}
    for i in range(1, 2000):
        q, r = divmod(i, p)
        if r > 0:
            target = q * (p - 1) + r
            assert target not in seen, f"copy map collides at {i}"
            seen[target] = i
    # every window of p consecutive indices holds exactly p-1 copies
    for start in range(0, 1995):
        copies = sum(1 for i in range(start, start + p) if i % p != 0)
        assert copies == p - 1


# ---------------------------------------------------------------------------
# expansion oracle
# ---------------------------------------------------------------------------

def test_expand_index_cancellation_examples():
    assert expand_index(2, 150).source_indices == frozenset({20, 44})
    assert expand_index(2, 25).source_indices == frozenset({4, 8})
    assert expand_index(2, 7).source_indices == frozenset({6})
    assert expand_index(2, 0).source_indices == frozenset({0})


@settings(max_examples=120, derandomize=True, deadline=None)
@given(h=st.integers(1, 4), index=st.integers(0, 3000), seed=st.integers(0, 3))
def test_generator_matches_expansion_oracle(h, index, seed):
    inner = prng_source(seed)
    src = f_family(h, "F", inner)
    parity = 0
    for idx in expand_index(h, index).source_indices:
        parity ^= inner.get(idx)
    assert src.get(index) == parity


@settings(max_examples=60, derandomize=True, deadline=None)
@given(variant=st.sampled_from(["Fprime", "Fdoubleprime"]),
       index=st.integers(0, 2000), seed=st.integers(0, 2))
def test_variant_generators_match_their_oracles(variant, index, seed):
    inner = prng_source(seed)
    src = f_family(3, variant, inner)
    parity = 0
    for idx in expand_index(3, index, variant).source_indices:
        parity ^= inner.get(idx)
    assert src.get(index) == parity


def test_verify_parity_structure_passes_on_derived_sources():
    assert verify_parity_structure(2, f_family(2, "F", prng_source(1)), 10_000)
    assert verify_parity_structure(3, f_family(3, "F", prng_source(7)), 5_000)
    assert verify_parity_structure(2, f_family(2, "Fprime", prng_source(2)), 5_000)


def test_verify_parity_structure_reports_first_tampered_block():
    src = f_family(2, "F", prng_source(1))
    src.prefix_array(200)
    src._buf[10] ^= 1          # flip the boundary symbol of block q=2
    result = verify_parity_structure(2, src, 150)
    assert not result.ok
    assert result.first_violation == 2


def test_verify_parity_structure_rejects_plain_sources():
    with pytest.raises(TypeError):
        verify_parity_structure(2, prng_source(1), 100)


# ---------------------------------------------------------------------------
# sources and files
# ---------------------------------------------------------------------------

def test_prng_is_deterministic_per_seed():
    a = prng_source(42).prefix_array(1_000_000)
    b = prng_source(42).prefix_array(1_000_000)
    assert np.array_equal(a, b)


def test_distinct_seeds_give_balanced_hamming_distance():
    a = prng_source(1).prefix_array(10_000)
    b = prng_source(2).prefix_array(10_000)
    dist = int(np.sum(a != b))
    assert 4000 <= dist <= 6000


def test_prng_bits_roughly_balanced():
    bits = prng_source(3).prefix_array(100_000)
    ones = int(bits.sum())
    assert 49_000 <= ones <= 51_000


def test_sequence_file_round_trip(tmp_seq):
    src = prng_source(8)
    write_sequence(src, 100_000, tmp_seq)
    back = read_sequence(tmp_seq)
    assert back.length == 100_000
    assert np.array_equal(back.prefix_array(100_000), src.prefix_array(100_000))


def test_sequence_file_round_trip_wide_alphabet(tmp_seq):
    src = array_source([0, 1, 2, 3, 2, 1, 0, 3, 3], k=4)
    write_sequence(src, 9, tmp_seq)
    back = read_sequence(tmp_seq)
    assert back.alphabet_size == 4
    assert list(back.prefix_array(9)) == [0, 1, 2, 3, 2, 1, 0, 3, 3]


def test_malformed_sequence_file_rejected(tmp_seq):
    tmp_seq.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(ValueError, match="magic"):
        read_sequence(tmp_seq)
    tmp_seq.write_bytes(b"\x01\x02")
    with pytest.raises(ValueError, match="header"):
        read_sequence(tmp_seq)


def test_file_source_exhaustion_names_the_missing_index(tmp_seq):
    write_sequence(prng_source(0), 50, tmp_seq)
    src = read_sequence(tmp_seq)
    with pytest.raises(SourceExhausted, match="index 50"):
        src.get(99)


def test_prefix_cap_is_enforced(monkeypatch):
    monkeypatch.setenv("GALELAB_MAX_PREFIX", "1000")
    src = prng_source(0)
    with pytest.raises(ValueError, match="GALELAB_MAX_PREFIX"):
        src.prefix_array(2000)


def test_constant_source():
    src = constant_source(1)
    assert list(src.prefix_array(5)) == [1, 1, 1, 1, 1]


def test_describe_strings():
    assert prng_source(1).describe() == "prng(seed=1)"
    assert f_family(2, "F", prng_source(1)).describe() == "F3(prng(seed=1))"
    assert f_family(2, "Fprime", prng_source(1)).describe() == "F'3(prng(seed=1))"
