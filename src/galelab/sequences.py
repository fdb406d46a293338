"""Prime utilities, parity-derived sequence families, and symbol sources.

The derived families transform a binary sequence ``S`` into a sequence
where, in every block of ``p`` consecutive indices (``p`` the relevant
prime), ``p - 1`` symbols are verbatim copies of ``S`` and the symbol at
each index ``q * p`` is the parity of the already-emitted symbols at the
indices ``q * p_k`` for a fixed set of smaller primes ``p_k``:

* family ``F``  with parameter ``h`` uses block prime ``p_{h+1}`` and
  parity over ``k = 1 .. h``;
* variant ``Fprime`` uses parity over ``k = 1 .. h-1``;
* variant ``Fdoubleprime`` uses parity over ``k = 2 .. h``.

Index 0 is always a verbatim copy of ``S[0]``; that explicit clause
overrides the ``q = 0`` parity reading.  Copies at index
``q*p + r`` (``0 < r < p``) come from ``S[q*(p-1) + r]``.

Generation streams forward over a retained prefix (every parity
reference points strictly into the past), while :func:`expand_index`
independently expands the recursion tree top-down and parity-reduces it,
giving a second route to every derived symbol for cross-checking.

Sources hand out symbols by index, reproducibly: the same source always
returns the same symbol at the same index.  The seeded source uses a
counter-mode SHA-256 stream; it is a practical stand-in for an
algorithmically random sequence (which is not computable), so results
obtained on it are statistical, not certified.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "PRIMES",
    "nth_prime",
    "max_supported_h",
    "VARIANTS",
    "parity_prime_indices",
    "SequenceSource",
    "SourceExhausted",
    "PrngSource",
    "ConstantSource",
    "FileSource",
    "DerivedSource",
    "prng_source",
    "constant_source",
    "f_family",
    "ExpansionSet",
    "expand_index",
    "ParityCheckResult",
    "verify_parity_structure",
    "write_sequence",
    "read_sequence",
    "max_prefix_cap",
]

VARIANTS = ("F", "Fprime", "Fdoubleprime")

_DEFAULT_MAX_PREFIX = 100_000_000
_ENV_MAX_PREFIX = "GALELAB_MAX_PREFIX"


def max_prefix_cap() -> int:
    """Retained-prefix cap; overridable via GALELAB_MAX_PREFIX."""
    raw = os.environ.get(_ENV_MAX_PREFIX)
    if raw:
        return int(raw)
    return _DEFAULT_MAX_PREFIX


# ---------------------------------------------------------------------------
# primes
# ---------------------------------------------------------------------------

# the first primes in ascending order; p_i is PRIMES[i - 1]
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def nth_prime(i: int) -> int:
    """The i-th prime: p_1 = 2, p_2 = 3, and so on."""
    if i < 1:
        raise ValueError("prime indices start at 1")
    if i > len(PRIMES):
        raise ValueError(f"prime index {i} exceeds table size {len(PRIMES)}")
    return PRIMES[i - 1]


def max_supported_h() -> int:
    """Largest head parameter h for which p_{h+1} is tabled."""
    return len(PRIMES) - 1


def parity_prime_indices(h: int, variant: str) -> list[int]:
    """Prime indices entering the parity at block boundaries."""
    if variant == "F":
        return list(range(1, h + 1))
    if variant == "Fprime":
        return list(range(1, h))
    if variant == "Fdoubleprime":
        return list(range(2, h + 1))
    raise ValueError(f"unknown variant {variant!r}")


# ---------------------------------------------------------------------------
# sources
# ---------------------------------------------------------------------------

class SourceExhausted(Exception):
    """A source could not supply a requested index."""

    def __init__(self, index: int, detail: str = ""):
        self.index = index
        msg = f"source exhausted: cannot supply symbol at index {index}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class SequenceSource:
    """Indexed stream of alphabet symbols with a retained prefix.

    Subclasses fill the prefix forward in ``_fill``; any already-emitted
    index is readable again (single writer, any number of readers of the
    retained prefix).  The prefix is capped (see :func:`max_prefix_cap`).
    """

    alphabet_size: int = 2

    def __init__(self):
        self._buf = np.zeros(1024, dtype=np.uint8)
        self._len = 0

    # -- subclass protocol --------------------------------------------------

    def _fill(self, upto: int) -> None:
        """Extend the prefix so that ``self._len >= upto``."""
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__

    # -- public interface ---------------------------------------------------

    def _grow(self, capacity: int) -> None:
        if capacity > self._buf.shape[0]:
            new = np.zeros(max(capacity, 2 * self._buf.shape[0]), dtype=np.uint8)
            new[: self._len] = self._buf[: self._len]
            self._buf = new

    def ensure(self, upto: int) -> None:
        if upto > max_prefix_cap():
            raise ValueError(
                f"requested prefix {upto} exceeds retained-prefix cap "
                f"{max_prefix_cap()} (set {_ENV_MAX_PREFIX} to raise it)")
        if upto > self._len:
            self._fill(upto)
            if self._len < upto:
                raise SourceExhausted(self._len)

    def get(self, i: int) -> int:
        """The symbol at index ``i``; reproducible across calls."""
        if i < 0:
            raise IndexError("negative sequence index")
        self.ensure(i + 1)
        return int(self._buf[i])

    def prefix_array(self, n: int) -> np.ndarray:
        """Read-only view of the first ``n`` symbols; a negative ``n``
        raises ``ValueError``."""
        if n < 0:
            raise ValueError(f"negative prefix length {n}")
        self.ensure(n)
        view = self._buf[:n]
        view.flags.writeable = False
        return view


class PrngSource(SequenceSource):
    """Seeded, reproducible bit stream (counter-mode SHA-256).

    Deterministic in the 64-bit seed and cryptographically well mixed; a
    desk-scale stand-in for an algorithmically random sequence.  Fills
    whole ``BLOCK_BITS`` digests, joined and unpacked LSB first at once.
    """

    BLOCK_BITS = 256

    def __init__(self, seed: int):
        super().__init__()
        self.seed = int(seed)
        if not -2**63 <= self.seed < 2**63:
            raise ValueError(f"seed {self.seed} is not a signed 64-bit integer")
        self._prefix = b"galelab-prng" + self.seed.to_bytes(8, "little", signed=True)

    def _fill(self, upto: int) -> None:
        end = -(-upto // self.BLOCK_BITS) * self.BLOCK_BITS
        self._grow(end)
        digests = b"".join(
            hashlib.sha256(self._prefix + b.to_bytes(8, "little")).digest()
            for b in range(self._len // self.BLOCK_BITS, end // self.BLOCK_BITS))
        self._buf[self._len:end] = np.unpackbits(
            np.frombuffer(digests, dtype=np.uint8), bitorder="little")
        self._len = end

    def describe(self) -> str:
        return f"prng(seed={self.seed})"


class ConstantSource(SequenceSource):
    """Endless repetition of a single symbol."""

    def __init__(self, symbol: int, alphabet_size: int = 2):
        super().__init__()
        if not 0 <= symbol < alphabet_size:
            raise ValueError("symbol outside alphabet")
        self.alphabet_size = alphabet_size
        self.symbol = symbol

    def _fill(self, upto: int) -> None:
        self._grow(upto)
        self._buf[self._len:upto] = self.symbol
        self._len = upto

    def describe(self) -> str:
        return f"constant({self.symbol})"


class FileSource(SequenceSource):
    """Sequence loaded from a packed sequence file; finite."""

    def __init__(self, path, alphabet_size: int, symbols: np.ndarray):
        super().__init__()
        self.path = str(path)
        self.alphabet_size = alphabet_size
        self._buf = np.ascontiguousarray(symbols, dtype=np.uint8)
        self._len = int(symbols.shape[0])

    @property
    def length(self) -> int:
        return self._len

    def _fill(self, upto: int) -> None:
        raise SourceExhausted(self._len, f"file {self.path} holds {self._len} symbols")

    def describe(self) -> str:
        return f"file({self.path})"


class DerivedSource(SequenceSource):
    """A parity-derived family applied to an inner binary source.

    Streams forward with whole-array slices: the copies are one strided
    assignment from the inner source per residue, and the block-boundary
    symbols are XORs of strided views of the already-emitted prefix, a
    geometrically growing chunk of boundaries at a time.
    """

    def __init__(self, variant: str, h: int, inner: SequenceSource):
        super().__init__()
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        if h < 1:
            raise ValueError("h must be at least 1")
        if h > max_supported_h():
            raise ValueError(
                f"h={h} unsupported; largest tabled h is {max_supported_h()}")
        if variant == "Fdoubleprime" and h < 2:
            raise ValueError("Fdoubleprime needs h >= 2 for a nonempty parity")
        if inner.alphabet_size != 2:
            raise ValueError("derived families are defined over binary sources")
        self.variant = variant
        self.h = h
        self.inner = inner
        self.block_prime = nth_prime(h + 1)
        self.parity_primes = [nth_prime(i) for i in parity_prime_indices(h, variant)]

    def _fill(self, upto: int) -> None:
        old, p = self._len, self.block_prime
        self._grow(upto)
        buf = self._buf
        blocks = (upto - 1) // p + 1
        inner = self.inner.prefix_array(blocks * (p - 1) + 1)
        # verbatim copies: index q*p + r (r > 0) <- inner[q*(p-1) + r]
        for r in range(1, p):
            q0 = max(0, -(-(old - r) // p))    # smallest q with q*p + r >= old
            out = buf[q0 * p + r:upto:p]
            out[:] = inner[q0 * (p - 1) + r::p - 1][:len(out)]
        if old == 0:
            buf[0] = inner[0]
        # boundary parities over blocks [a, b) with b <= a*p / max p_k: a
        # reference q*p_k that is a boundary lies in block q*p_k/p < a, so a
        # chunk reads only filled symbols, and O(log n) chunks cover the prefix
        pmax = max(self.parity_primes, default=1)
        a = max(1, -(-old // p))
        while a < blocks:
            b = min(blocks, max(a + 1, a * p // pmax))
            out = buf[a * p:b * p:p]
            out[:] = 0
            for pk in self.parity_primes:
                out ^= buf[a * pk:b * pk:pk]
            a = b
        self._len = upto

    def describe(self) -> str:
        tag = {"F": "F", "Fprime": "F'", "Fdoubleprime": "F''"}[self.variant]
        return f"{tag}{self.h + 1}({self.inner.describe()})"


def prng_source(seed: int) -> PrngSource:
    """Deterministic reproducible bit stream for the given 64-bit seed."""
    return PrngSource(seed)


def constant_source(symbol: int, alphabet_size: int = 2) -> ConstantSource:
    return ConstantSource(symbol, alphabet_size)


def f_family(h: int, variant: str, inner: SequenceSource) -> DerivedSource:
    """The derived family of the given variant applied to ``inner``."""
    return DerivedSource(variant, h, inner)


# ---------------------------------------------------------------------------
# recursion-expansion oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpansionSet:
    """Parity-reduced inner indices a derived symbol depends on.

    ``source_indices`` holds the inner indices reached an odd number of
    times by the recursion tree rooted at ``target_index``; indices
    reached an even number of times cancel and are absent.
    """

    target_index: int
    source_indices: frozenset[int]


def _expansion_leaves(h: int, variant: str, roots) -> tuple[np.ndarray, np.ndarray]:
    """Copy leaves of the parity recursion trees of derived indices.

    Expands the boundary rule top-down, one tree level of every tree at a
    time, and maps each copy leaf to its inner index.  Returns each
    leaf's tree (its position in ``roots``) and inner index; a leaf
    reached several times is listed as often.  A boundary's children are
    boundaries only when its block number is a multiple of ``p``, so the
    trees of all boundaries up to any ``N`` have fewer than
    ``1 / (1 - P/p)`` (below 2) times ``P`` leaves per boundary, for
    ``P`` parity primes.
    """
    p = nth_prime(h + 1)
    primes = np.array([nth_prime(i) for i in parity_prime_indices(h, variant)],
                      dtype=np.int64)
    nodes = np.asarray(roots, dtype=np.int64)
    tree = np.arange(len(nodes))
    trees, leaves = [], []
    while nodes.size:
        q, r = np.divmod(nodes, p)
        leaf = (r > 0) | (q == 0)       # a copy, or index 0's verbatim clause
        trees.append(tree[leaf])
        leaves.append(q[leaf] * (p - 1) + r[leaf])
        nodes = (q[~leaf, None] * primes).ravel()
        tree = np.repeat(tree[~leaf], len(primes))
    return np.concatenate(trees), np.concatenate(leaves)


def expand_index(h: int, index: int, variant: str = "F") -> ExpansionSet:
    """Fully expand the parity recursion for one derived index.

    Expands the boundary rule top-down, maps each copy leaf to its inner
    index, and returns the symmetric-difference reduction.  This is the
    independent oracle for the streaming generators: for every inner
    sequence, the derived symbol equals the parity of the inner symbols
    at the returned indices.
    """
    leaves, counts = np.unique(_expansion_leaves(h, variant, [index])[1],
                               return_counts=True)
    return ExpansionSet(index, frozenset(leaves[counts % 2 == 1].tolist()))


# block boundaries one verifier pass checks at a time
_VERIFY_CHUNK = 1024


class ParityCheckResult(NamedTuple):
    """Outcome of a parity-structure audit; truthy when everything holds."""

    ok: bool
    first_violation: int | None

    def __bool__(self) -> bool:  # type: ignore[override]
        return self.ok


def verify_parity_structure(h: int, src: DerivedSource, N: int) -> ParityCheckResult:
    """Audit a derived source against both routes to its boundary symbols.

    For every block boundary ``q * p <= N``, the emitted symbol must equal
    the parity of the emitted symbols at the variant's reference indices
    and the parity of the inner symbols named by :func:`expand_index`.
    The ``q = 0`` boundary is the explicit verbatim clause and is checked
    as such.  Returns the first violated ``q`` on failure.

    Boundaries are checked ``_VERIFY_CHUNK`` at a time, so memory stays
    flat in ``N``.  A chunk's reference parities are one XOR of gathered
    columns of the derived prefix.  Its oracle parities count, mod 2, the
    ones among the inner symbols at the leaves of each boundary's
    expansion tree: the parity over :func:`expand_index`'s reduced set,
    since a leaf reached twice adds an even count.
    """
    if not isinstance(src, DerivedSource):
        raise TypeError("verify_parity_structure needs a derived-family source")
    if src.h != h:
        raise ValueError(f"source was built with h={src.h}, not h={h}")
    p = src.block_prime
    derived = src.prefix_array(N + 1)
    blocks = N // p + 1
    for start in range(0, blocks, _VERIFY_CHUNK):
        qs = np.arange(start, min(start + _VERIFY_CHUNK, blocks))
        emitted = derived[qs * p]
        reference = np.zeros_like(emitted)
        for pk in src.parity_primes:
            reference ^= derived[qs * pk]
        if start == 0:
            reference[0] = src.inner.prefix_array(1)[0]    # the verbatim clause
        tree, leaves = _expansion_leaves(h, src.variant, qs * p)
        inner = src.inner.prefix_array(int(leaves.max()) + 1)
        oracle = np.bincount(tree[inner[leaves] == 1], minlength=len(qs)) & 1
        bad = np.flatnonzero((emitted != reference) | (emitted != oracle))
        if bad.size:
            return ParityCheckResult(False, start + int(bad[0]))
    return ParityCheckResult(True, None)


# ---------------------------------------------------------------------------
# sequence files
# ---------------------------------------------------------------------------

_MAGIC = b"GSEQ"
_HEADER = struct.Struct("<4sBBHQ")  # magic, alphabet size, bit width, version, length
_VERSION = 1


def _bit_width(k: int) -> int:
    return max(1, (k - 1).bit_length())


def write_sequence(src: SequenceSource, n: int, path) -> None:
    """Write the first ``n`` symbols to a packed little-endian file.

    16-byte header (magic, alphabet size, bit-packing width, length),
    then symbol indices packed ``width`` bits each, LSB-first.
    """
    k = src.alphabet_size
    w = _bit_width(k)
    arr = src.prefix_array(n)
    if w == 1:
        bits = arr
    else:
        bits = ((arr[:, None] >> np.arange(w, dtype=np.uint8)) & 1)
        bits = bits.reshape(-1)
    packed = np.packbits(bits.astype(np.uint8), bitorder="little")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, k, w, _VERSION, n))
        fh.write(packed.tobytes())


def read_sequence(path) -> FileSource:
    """Load a packed sequence file; the round trip is bit-exact."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError(f"malformed header in {path}: too short")
        magic, k, w, version, n = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise ValueError(f"malformed header in {path}: bad magic {magic!r}")
        if version != _VERSION:
            raise ValueError(f"unsupported sequence file version {version}")
        if w != _bit_width(k):
            raise ValueError(f"malformed header in {path}: width {w} for k={k}")
        payload = fh.read()
    need_bytes = -(-n * w // 8)
    if len(payload) < need_bytes:
        raise ValueError(f"truncated sequence file {path}")
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8),
                         bitorder="little", count=n * w)
    if w == 1:
        symbols = bits
    else:
        symbols = (bits.reshape(n, w) << np.arange(w, dtype=np.uint8)).sum(axis=1)
    symbols = symbols.astype(np.uint8)
    if symbols.size and int(symbols.max()) >= k:
        raise ValueError(f"symbol index out of range in {path}")
    return FileSource(path, k, symbols)
