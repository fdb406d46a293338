"""Domain types for multihead finite-state gamblers.

A gambler is a finite-state betting device scanning an infinite symbol
stream with one leading head and ``h - 1`` trailing heads.  Its state
space factors into a positional component ``T`` (which drives the
oblivious, data-independent trailing-head movement) and a betting
component ``Q`` (which reads the ``h`` scanned symbols and places a
rational-valued bet on the next symbol).  Capital evolves by the fair
multiplication rule: betting weight ``p`` on the realized symbol of a
size-``k`` alphabet multiplies the capital by ``k * p``.

This module holds the passive data types (alphabet, bet distributions,
the gambler seven-tuple), their structural validation, exact rational
helpers with the base-2 logarithm that capital is reported in, and the
JSON wire format used to persist gamblers.  Simulation lives in
:mod:`galelab.engine`; concrete winning gamblers are built in
:mod:`galelab.constructions`.

All types are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

__all__ = [
    "Alphabet",
    "ProbVector",
    "PositionalState",
    "BettingState",
    "GamblerSpec",
    "Violation",
    "ValidationReport",
    "validate_gambler",
    "BANKRUPT_LOG2",
    "LOG2_ERROR",
    "encode_symbol_vector",
    "decode_symbol_code",
    "log2_fraction",
    "parse_rational",
    "format_rational",
    "frac_geq_product",
    "geq_pow2_scaled",
    "gambler_to_json",
    "gambler_from_json",
    "save_gambler",
    "load_gambler",
]

# the log2 of capital 0: bankruptcy, which no fair bet ever undoes
BANKRUPT_LOG2 = float("-inf")


# ---------------------------------------------------------------------------
# rationals
# ---------------------------------------------------------------------------

def parse_rational(text: str | int | Fraction) -> Fraction:
    """Parse an exact rational from a ``"num/den"`` (or integer) string."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, float):
        raise TypeError("rationals must be exact strings, never floats")
    return Fraction(text.strip())


def format_rational(x: Fraction) -> str:
    """Render a rational as the canonical ``"num/den"`` string."""
    return f"{x.numerator}/{x.denominator}"


def log2_fraction(x: Fraction) -> float:
    """Base-2 logarithm of a non-negative rational; ``BANKRUPT_LOG2`` at 0.

    Exact (an integer float) whenever numerator and denominator are both
    powers of two.  Otherwise the value is split into an exact integer
    part and a mantissa in [1, 2) handled through ``log1p``, so the
    result keeps small *relative* error even for operands far outside
    float range or pathologically close to 1.
    """
    num, den = x.numerator, x.denominator
    if num <= 0:
        if num == 0:
            return BANKRUPT_LOG2
        raise ValueError("log2 of a negative rational")
    if num & (num - 1) == 0 and den & (den - 1) == 0:
        return float(num.bit_length() - den.bit_length())
    if num < den:
        return -_log2_ratio(den, num)
    return _log2_ratio(num, den)


# A value v of ``log2_fraction`` lies within LOG2_ERROR * (1 + |v|) of the
# true logarithm: the mantissa quotient, ``log(2)``, the division and the
# final sum each round once (u = 2**-53 each), and libm's ``log1p`` errs
# by under 2 ulp.
LOG2_ERROR = 8 * 2.0 ** -53

_LN2 = math.log(2)


def _log2_ratio(num: int, den: int) -> float:
    """``log2(num / den)`` for integers ``num >= den > 0``, on integers only
    (int true division rounds correctly, as ``float(Fraction)`` does)."""
    e = num.bit_length() - den.bit_length()
    den_shifted = den << e
    if num < den_shifted:
        e -= 1
        den_shifted >>= 1
    # num / den_shifted is the mantissa in [1, 2)
    t = (num - den_shifted) / den_shifted
    return e + math.log1p(t) / _LN2


def frac_geq_product(x: Fraction, a_num: int, a_den: int, y: Fraction) -> bool:
    """Decide ``x >= (a_num/a_den) * y`` exactly for non-negative operands
    and ``a_den > 0``, by one cross-multiplied integer comparison.

    Nothing is screened here: a caller that decides most comparisons
    cheaply (as ``constructions.averaging_audit`` does on certified log2
    margins) sends only its near-ties.
    """
    return (x.numerator * a_den * y.denominator
            >= a_num * y.numerator * x.denominator)


def geq_pow2_scaled(x: Fraction, y: Fraction, shift_num: int, shift_den: int) -> bool:
    """Decide ``x >= 2**(shift_num/shift_den) * y`` exactly for
    non-negative ``x`` and ``y``.

    ``shift_num`` may be negative; ``shift_den`` must be positive.  With
    ``d = shift_den`` the comparison is the integer test
    ``x**d * 2**(-shift_num) >= y**d``, cleared of denominators and with
    the power of two on whichever side keeps its exponent non-negative.
    Nothing is screened here; callers screen, as for ``frac_geq_product``.
    """
    if shift_den <= 0:
        raise ValueError("shift_den must be positive")
    d, s = shift_den, shift_num
    return (x.numerator ** d * y.denominator ** d << max(-s, 0)
            >= y.numerator ** d * x.denominator ** d << max(s, 0))


# ---------------------------------------------------------------------------
# alphabet and bet distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Alphabet:
    """Ordered finite alphabet; symbols are encoded by their index 0..k-1.

    All file formats store symbol indices, so the fixed order of
    ``symbols`` is what pins the encoding.
    """

    symbols: tuple[int, ...]

    @classmethod
    def from_size(cls, k: int) -> "Alphabet":
        return cls(tuple(range(k)))

    @property
    def size(self) -> int:
        return len(self.symbols)


@dataclass(frozen=True)
class ProbVector:
    """Rational-valued probability distribution over the alphabet.

    ``weights[i]`` is the bet weight on symbol index ``i``.  A valid
    vector has non-negative entries summing to exactly 1; zero weights
    are allowed (deterministic all-in bets have a single weight 1).
    """

    weights: tuple[Fraction, ...]

    @classmethod
    def uniform(cls, k: int) -> "ProbVector":
        return cls(tuple(Fraction(1, k) for _ in range(k)))

    @classmethod
    def point(cls, k: int, symbol: int) -> "ProbVector":
        return cls(tuple(Fraction(1) if i == symbol else Fraction(0)
                         for i in range(k)))

    @classmethod
    def from_strings(cls, entries: Sequence[str]) -> "ProbVector":
        return cls(tuple(parse_rational(e) for e in entries))

    def __getitem__(self, symbol: int) -> Fraction:
        return self.weights[symbol]

    def __len__(self) -> int:
        return len(self.weights)

    def total(self) -> Fraction:
        return sum(self.weights, Fraction(0))


# ---------------------------------------------------------------------------
# the gambler seven-tuple
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PositionalState:
    """One positional state: its successor and the trailing-head move bits."""

    next_id: str
    move_bits: tuple[int, ...]


@dataclass(frozen=True)
class BettingState:
    """One betting state: its bet distribution and full transition row.

    ``transitions[code]`` names the successor betting state for the
    scanned symbol vector encoded by ``code`` (see
    :func:`encode_symbol_vector`).
    """

    bets: ProbVector
    transitions: tuple[str, ...]


def encode_symbol_vector(vec: Sequence[int], k: int) -> int:
    """Encode a scanned symbol vector as a base-``k`` integer.

    The vector lists the trailing-head symbols in head order followed by
    the leading-head symbol; the first entry is the most significant
    digit, so the leading symbol is the least significant one.
    """
    code = 0
    for s in vec:
        code = code * k + s
    return code


def decode_symbol_code(code: int, h: int, k: int) -> tuple[int, ...]:
    """Inverse of :func:`encode_symbol_vector` for ``h`` symbols."""
    out = [0] * h
    for i in range(h - 1, -1, -1):
        code, out[i] = divmod(code, k)
    return tuple(out)


@dataclass(frozen=True)
class GamblerSpec:
    """An ``h``-head finite-state gambler.

    Fields mirror the defining seven-tuple: the positional states with
    their cyclic successor map and movement bits, the betting states
    with their bet distributions and transition tables, the initial
    state pair, and the initial capital.  The factored transition
    (positional successor independent of the scanned symbols) is
    structural: it is how the type is shaped, not a runtime check.
    """

    alphabet: Alphabet
    head_count: int
    positional: Mapping[str, PositionalState]
    betting: Mapping[str, BettingState]
    initial_t: str
    initial_q: str
    initial_capital: Fraction = Fraction(1)
    name: str = ""

    @property
    def k(self) -> int:
        return self.alphabet.size

    def label(self) -> str:
        return self.name or f"gambler_h{self.head_count}"


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    location: str
    message: str

    def __str__(self) -> str:
        return f"{self.location}: {self.message}"


class ValidationReport:
    """List of invariant violations; empty means the gambler is valid."""

    def __init__(self, violations: Sequence[Violation]):
        self.violations = list(violations)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok

    def __iter__(self) -> Iterator[Violation]:
        return iter(self.violations)

    def __len__(self) -> int:
        return len(self.violations)

    def __str__(self) -> str:
        return "; ".join(str(v) for v in self.violations)

    def __repr__(self) -> str:
        return f"ValidationReport({'ok' if self.ok else self})"


def validate_gambler(spec: GamblerSpec) -> ValidationReport:
    """Check every structural invariant of a gambler.

    Invalid gamblers yield a non-empty report naming each violation and
    its location (state id, and the offending symbol-vector code where
    relevant); nothing raises.
    """
    bad: list[Violation] = []
    k = spec.alphabet.size
    h = spec.head_count

    if k < 2:
        bad.append(Violation("alphabet", f"size {k} < 2"))
    if len(set(spec.alphabet.symbols)) != k:
        bad.append(Violation("alphabet", "symbols are not distinct"))
    if h < 1:
        bad.append(Violation("head_count", f"{h} < 1"))
    if not spec.positional:
        bad.append(Violation("positional", "no positional states"))
    if not spec.betting:
        bad.append(Violation("betting", "no betting states"))
    if spec.initial_capital <= 0:
        bad.append(Violation("initial_capital",
                             f"{spec.initial_capital} is not positive"))

    for tid, st in spec.positional.items():
        if st.next_id not in spec.positional:
            bad.append(Violation(f"positional[{tid}]",
                                 f"successor {st.next_id!r} is not a state"))
        if len(st.move_bits) != h - 1:
            bad.append(Violation(
                f"positional[{tid}]",
                f"move_bits has {len(st.move_bits)} entries, expected {h - 1}"))
        if any(b not in (0, 1) for b in st.move_bits):
            bad.append(Violation(f"positional[{tid}]",
                                 "move_bits entries must be 0 or 1"))

    n_codes = k ** h
    for qid, st in spec.betting.items():
        row = st.bets
        if len(row) != k:
            bad.append(Violation(f"betting[{qid}]",
                                 f"bet row has {len(row)} entries, expected {k}"))
        else:
            if any(w < 0 for w in row.weights):
                bad.append(Violation(f"betting[{qid}]",
                                     "negative bet weight"))
            if row.total() != 1:
                bad.append(Violation(
                    f"betting[{qid}]",
                    f"bet weights sum to {row.total()}, expected 1"))
        if len(st.transitions) != n_codes:
            bad.append(Violation(
                f"betting[{qid}]",
                f"transition table has {len(st.transitions)} rows, "
                f"expected k^h = {n_codes}"))
        for code, target in enumerate(st.transitions):
            if target not in spec.betting:
                bad.append(Violation(
                    f"betting[{qid}] code {code}",
                    f"transition target {target!r} is not a betting state"))

    if spec.initial_t not in spec.positional:
        bad.append(Violation("initial", f"t0 {spec.initial_t!r} unknown"))
    if spec.initial_q not in spec.betting:
        bad.append(Violation("initial", f"q0 {spec.initial_q!r} unknown"))

    return ValidationReport(bad)


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

FORMAT_TAG = "galelab-gambler-v1"


def gambler_to_json(spec: GamblerSpec, config: dict | None = None) -> dict:
    """Serialize a gambler to the JSON wire format.

    Rationals are exact ``"num/den"`` strings, never floats; transition
    tables are indexed by the base-k encoding of the scanned symbol
    vector.  ``config``, when given, is embedded verbatim so the file
    records what produced it.
    """
    doc = {
        "format": FORMAT_TAG,
        "name": spec.name,
        "alphabet_size": spec.alphabet.size,
        "head_count": spec.head_count,
        "positional_states": [
            {"id": tid, "next": st.next_id, "move_bits": list(st.move_bits)}
            for tid, st in spec.positional.items()
        ],
        "betting_states": [
            {
                "id": qid,
                "bets": [format_rational(w) for w in st.bets.weights],
                "transitions": list(st.transitions),
            }
            for qid, st in spec.betting.items()
        ],
        "initial": {"t": spec.initial_t, "q": spec.initial_q},
        "initial_capital": format_rational(spec.initial_capital),
    }
    if config is not None:
        doc["config"] = config
    return doc


def gambler_from_json(doc: dict) -> GamblerSpec:
    """Rebuild a gambler from its JSON document (shape errors raise)."""
    if doc.get("format") != FORMAT_TAG:
        raise ValueError(f"not a {FORMAT_TAG} document")
    positional = {
        st["id"]: PositionalState(st["next"], tuple(int(b) for b in st["move_bits"]))
        for st in doc["positional_states"]
    }
    betting = {
        st["id"]: BettingState(
            ProbVector.from_strings(st["bets"]),
            tuple(st["transitions"]),
        )
        for st in doc["betting_states"]
    }
    return GamblerSpec(
        alphabet=Alphabet.from_size(int(doc["alphabet_size"])),
        head_count=int(doc["head_count"]),
        positional=positional,
        betting=betting,
        initial_t=doc["initial"]["t"],
        initial_q=doc["initial"]["q"],
        initial_capital=parse_rational(doc["initial_capital"]),
        name=doc.get("name", ""),
    )


def save_gambler(spec: GamblerSpec, path, config: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(gambler_to_json(spec, config), fh, indent=2)
        fh.write("\n")


def load_gambler(path) -> GamblerSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return gambler_from_json(json.load(fh))
