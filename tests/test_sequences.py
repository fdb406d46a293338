"""Primes, derived sequence families, the expansion oracle, and file I/O."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galelab.sequences import (
    DerivedSource,
    SourceExhausted,
    constant_source,
    expand_index,
    f_family,
    max_supported_h,
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


def reference_fill(self, upto: int) -> None:
    """The derived fill with one index array per residue and one boundary
    at a time, kept as the reference for the strided fill."""
    old, p = self._len, self.block_prime
    if upto <= old:
        return
    self._grow(upto)
    buf = self._buf
    # verbatim copies: index q*p + r (r > 0) <- inner[q*(p-1) + r]
    max_q = (upto - 1) // p
    inner_need = max_q * (p - 1) + (p - 1) + 1
    inner_arr = self.inner.prefix_array(inner_need)
    for r in range(1, p):
        first_q = max(0, -(-(old - r) // p))    # smallest q with q*p + r >= old
        if first_q > max_q:
            continue
        out_idx = np.arange(first_q, max_q + 1, dtype=np.int64) * p + r
        out_idx = out_idx[out_idx < upto]
        if out_idx.size:
            qs = out_idx // p
            buf[out_idx] = inner_arr[qs * (p - 1) + r]
    # boundary parities, in increasing index order (references are past)
    first_q = -(-old // p)
    for q in range(first_q, max_q + 1):
        m = q * p
        if m >= upto:
            break
        if q == 0:
            buf[0] = inner_arr[0]
            continue
        v = 0
        for pk in self.parity_primes:
            v ^= int(buf[q * pk])
        buf[m] = v
    self._len = upto


class ReferenceSource(DerivedSource):
    _fill = reference_fill


def fill_schedules(p: int, rng) -> list[list[int]]:
    """Prefix lengths on and around block edges, each filled in one step
    and in several steps, some of which end mid-block."""
    ends = [1, 2, p - 1, p, p + 1, 2 * p, p * p - 1, p * p, p * p + 1,
            p ** 3 + p // 2, 4099, 20_000]
    out = [[n] for n in ends]
    for n in ends[-4:]:
        edges = [p * q + d for q in rng.integers(1, n // p, size=3).tolist()
                 for d in (0, 1, p // 2)]
        out.append(sorted({e for e in edges if e < n} | {n}))
        out.append(list(range(1, n + 1, max(1, n // 5))) + [n])
    return out


VARIANT_CASES = [(h, v) for h in range(1, max_supported_h() + 1)
                 for v in ("F", "Fprime", "Fdoubleprime")
                 if not (v == "Fdoubleprime" and h < 2)]


@pytest.mark.parametrize("h, variant", VARIANT_CASES)
def test_fill_matches_reference_fill(h, variant):
    rng = np.random.default_rng(h)
    for schedule in fill_schedules(nth_prime(h + 1), rng):
        inner = prng_source(h)
        src, ref = DerivedSource(variant, h, inner), ReferenceSource(variant, h, inner)
        for n in schedule:
            got, want = src.prefix_array(n), ref.prefix_array(n)
            assert src._len == ref._len == n
            assert np.array_equal(got, want), (schedule, n)


@pytest.mark.parametrize("h, variant", [(1, "F"), (1, "Fprime"), (2, "F"),
                                        (4, "Fdoubleprime")])
def test_short_inner_file_exhausts_at_the_reference_request(tmp_seq, h, variant):
    write_sequence(prng_source(3), 100, tmp_seq)

    def outcome(cls, steps):
        src = cls(variant, h, read_sequence(tmp_seq))
        try:
            for n in steps:
                src.prefix_array(n)
        except SourceExhausted as exc:
            return ("exhausted", n, exc.index)
        return ("filled", bytes(src.prefix_array(steps[-1])))

    seen = set()
    for n in range(1, 260):
        for steps in ([n], [n // 2 + 1, n]):
            got = outcome(DerivedSource, steps)
            assert got == outcome(ReferenceSource, steps), steps
            seen.add(got[0])
    assert seen == {"filled", "exhausted"}


@pytest.mark.parametrize("h", [2, 4])
def test_fill_memory_stays_near_the_buffer(h):
    """Filling 2e5 symbols allocates little beyond the 0.2 MB symbol buffer
    (the per-residue index arrays of the old fill peaked at 1.15 MB)."""
    n = 200_000
    src = f_family(h, "F", prng_source(1))
    src.inner.prefix_array(n)
    tracemalloc.start()
    try:
        src.prefix_array(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.4e6


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


def reference_verify(h, src, n):
    """The parity audit one boundary at a time: the first ``q`` whose
    emitted symbol disagrees with its reference or oracle parity."""
    p = src.block_prime
    for q in range(n // p + 1):
        emitted = src.get(q * p)
        if q == 0:
            ref = src.inner.get(0)
        else:
            ref = 0
            for pk in src.parity_primes:
                ref ^= src.get(q * pk)
        oracle = 0
        for idx in expand_index(h, q * p, src.variant).source_indices:
            oracle ^= src.inner.get(idx)
        if emitted != ref or emitted != oracle:
            return (False, q)
    return (True, None)


@pytest.mark.parametrize("seed", range(6))
def test_verify_parity_structure_matches_reference_after_random_flips(seed):
    rng = np.random.default_rng(seed)
    h, variant = [(1, "F"), (2, "F"), (3, "Fprime"), (4, "Fdoubleprime")][seed % 4]
    n = 2000
    src = f_family(h, variant, prng_source(seed))
    src.prefix_array(n + 1)
    for which in rng.integers(0, 2, size=3):
        target = src if which else src.inner
        target._buf[rng.integers(0, n)] ^= 1
    assert verify_parity_structure(h, src, n) == reference_verify(h, src, n)


@pytest.mark.parametrize("h, variant", [(2, "F"), (4, "F"), (3, "Fdoubleprime")])
def test_verify_parity_structure_oracle_catches_a_flipped_inner_symbol(h, variant):
    """A flip of the inner source after the fill leaves every emitted symbol,
    and so every reference parity, as it was: only the oracle can see it."""
    n = 5000
    src = f_family(h, variant, prng_source(1))
    src.prefix_array(n + 1)
    p = src.block_prime
    idx = max(expand_index(h, 40 * p, variant).source_indices)
    first = min(q for q in range(n // p + 1)
                if idx in expand_index(h, q * p, variant).source_indices)
    assert 0 < first <= 40
    src.inner._buf[idx] ^= 1
    assert verify_parity_structure(h, src, n) == (False, first)


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


def test_prng_takes_exactly_the_signed_64_bit_seeds():
    for seed in (-2**63, 2**63 - 1):
        assert len(prng_source(seed).prefix_array(10)) == 10
    for seed in (-2**63 - 1, 2**63):
        with pytest.raises(ValueError, match="not a signed 64-bit integer"):
            prng_source(seed)


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


@pytest.mark.parametrize("k, w, version, n, payload, message", [
    (2, 1, 2, 0, b"", "unsupported sequence file version 2"),
    (4, 1, 1, 0, b"", "malformed header in {path}: width 1 for k=4"),
    (2, 1, 1, 16, b"\x00", "truncated sequence file {path}"),
    (3, 2, 1, 1, b"\x03", "symbol index out of range in {path}"),
], ids=["version", "width", "truncated", "symbol"])
def test_each_malformed_sequence_file_is_refused_in_its_words(tmp_seq, k, w, version,
                                                              n, payload, message):
    tmp_seq.write_bytes(struct.pack("<4sBBHQ", b"GSEQ", k, w, version, n) + payload)
    with pytest.raises(ValueError) as refused:
        read_sequence(tmp_seq)
    assert str(refused.value) == message.format(path=tmp_seq)


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


@pytest.mark.parametrize("make", [
    lambda: prng_source(0),
    lambda: constant_source(1),
    lambda: array_source([0, 1, 1]),
    lambda: f_family(2, "F", prng_source(0)),
], ids=["prng", "constant", "file", "derived"])
def test_negative_prefix_length_is_refused(make):
    """A negative length would slice the buffer from its end and return
    symbols that were never filled."""
    src = make()
    src.prefix_array(3)
    with pytest.raises(ValueError, match="negative prefix length -1"):
        src.prefix_array(-1)
    assert src.prefix_array(0).size == 0


def test_constant_source():
    src = constant_source(1)
    assert list(src.prefix_array(5)) == [1, 1, 1, 1, 1]


def test_describe_strings():
    assert prng_source(1).describe() == "prng(seed=1)"
    assert f_family(2, "F", prng_source(1)).describe() == "F3(prng(seed=1))"
    assert f_family(2, "Fprime", prng_source(1)).describe() == "F'3(prng(seed=1))"
