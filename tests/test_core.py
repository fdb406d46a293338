"""Core types: rationals, bet vectors, gambler validation, capital."""

import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galelab.core import (
    BANKRUPT_LOG2,
    BettingState,
    GamblerSpec,
    PositionalState,
    ProbVector,
    format_rational,
    frac_geq_product,
    gambler_from_json,
    gambler_to_json,
    geq_pow2_scaled,
    load_gambler,
    log2_fraction,
    log2_ratio,
    parse_rational,
    save_gambler,
    validate_gambler,
)
from galelab.constructions import (
    build_parity_gambler,
    single_minded_gambler,
    uniform_gambler,
)
from galelab.engine import compile_gambler, run_martingale
from galelab.sequences import constant_source

from gamblers import array_source, decode_symbol_code, encode_symbol_vector, random_valid_gambler


# ---------------------------------------------------------------------------
# rationals and exact comparisons
# ---------------------------------------------------------------------------

def test_rational_strings_round_trip():
    for text in ["1/2", "0/1", "7/3", "19999/1"]:
        assert format_rational(parse_rational(text)) == format_rational(
            Fraction(text))
    assert parse_rational("3") == Fraction(3)
    with pytest.raises(TypeError):
        parse_rational(0.5)


def test_log2_fraction_exact_on_powers_of_two():
    assert log2_fraction(Fraction(1)) == 0.0
    assert log2_fraction(Fraction(2) ** 100) == 100.0
    assert log2_fraction(Fraction(1, 8)) == -3.0
    assert abs(log2_fraction(Fraction(3)) - math.log2(3)) < 1e-14


def test_log2_fraction_of_zero_is_bankrupt():
    assert log2_fraction(Fraction(0)) == BANKRUPT_LOG2 == float("-inf")


def test_log2_fraction_of_a_negative_rational_raises():
    with pytest.raises(ValueError, match="negative"):
        log2_fraction(Fraction(-1, 2))


@pytest.mark.parametrize("x", [
    Fraction(2 ** 50 + 1, 2 ** 50),       # pathologically close to 1
    Fraction(2 ** 50 - 1, 2 ** 50),
    Fraction(10 ** 50 + 7, 10 ** 50),
    Fraction(7, 10 ** 30),                # far below float range after log
    Fraction(2 ** 10000 + 12345, 2 ** 9999),
    Fraction(31, 16),
])
def test_log2_fraction_small_relative_error(x):
    mpmath = pytest.importorskip("mpmath")
    got = log2_fraction(x)
    dps = int(max(x.numerator.bit_length(), x.denominator.bit_length()) * 0.302) + 60
    with mpmath.workdps(dps):
        ref = float(mpmath.log(mpmath.mpf(x.numerator)
                               / mpmath.mpf(x.denominator), 2))
    assert abs(got - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("x", [
    Fraction(0), Fraction(1), Fraction(2) ** 2100, Fraction(1, 2 ** 2100), Fraction(1, 8),
    Fraction(2 ** 50 + 1, 2 ** 50), Fraction(2 ** 50 - 1, 2 ** 50),   # near 1
    Fraction(10 ** 50 + 7, 10 ** 50), Fraction(3 ** 1400, 3 ** 1400 + 1),
    Fraction(3 ** 1500, 2 ** 2100), Fraction(5 ** 900 + 1, 7 ** 800),  # > 2000 bits
])
def test_log2_ratio_is_log2_fraction_on_the_pair(x):
    assert log2_ratio(x.numerator, x.denominator).hex() == log2_fraction(x).hex()


rationals = st.fractions(min_value=0, max_value=100, max_denominator=64)


@settings(max_examples=200, derandomize=True)
@given(x=rationals, a_num=st.integers(0, 1000), a_den=st.integers(1, 1000),
       y=rationals)
def test_frac_geq_product_matches_fraction_arithmetic(x, a_num, a_den, y):
    assert frac_geq_product(x, a_num, a_den, y) == (x >= Fraction(a_num, a_den) * y)


@settings(max_examples=200, derandomize=True)
@given(x=rationals, y=rationals, num=st.integers(-40, 40), den=st.integers(1, 8))
def test_geq_pow2_scaled_matches_real_arithmetic(x, y, num, den):
    got = geq_pow2_scaled(x, y, num, den)
    if y == 0:
        assert got
    elif x == 0:
        assert not got
    else:
        # x >= 2^(num/den) y  <=>  x^den 2^-min(num,0) >= y^den 2^max(num,0)
        lhs = x ** den * Fraction(2) ** max(-num, 0)
        rhs = y ** den * Fraction(2) ** max(num, 0)
        assert got == (lhs >= rhs)


@settings(max_examples=100, derandomize=True)
@given(vec=st.lists(st.integers(0, 2), min_size=1, max_size=5))
def test_symbol_vector_codec_round_trip(vec):
    k = 3
    code = encode_symbol_vector(vec, k)
    assert decode_symbol_code(code, len(vec), k) == tuple(vec)
    assert 0 <= code < k ** len(vec)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_parity_gambler_validates_clean():
    report = validate_gambler(build_parity_gambler(2))
    assert report.ok
    assert len(report) == 0


def _tiny_spec(bets: ProbVector, move_bits=(0,)) -> GamblerSpec:
    return GamblerSpec(
        k=2,
        head_count=2,
        positional={"t0": PositionalState("t0", move_bits)},
        betting={"q0": BettingState(bets, tuple("q0" for _ in range(4)))},
        initial_t="t0",
        initial_q="q0",
    )


def test_bad_bet_sum_reports_the_state():
    spec = _tiny_spec(ProbVector((Fraction(1, 2), Fraction(1, 4))))
    report = validate_gambler(spec)
    assert not report.ok
    assert len(report) == 1
    assert "q0" in report.violations[0].location
    assert "3/4" in report.violations[0].message


def test_wrong_move_bits_length_reports_the_state():
    spec = _tiny_spec(ProbVector.uniform(2), move_bits=(0, 1))
    report = validate_gambler(spec)
    assert not report.ok
    assert len(report) == 1
    assert "t0" in report.violations[0].location


def test_dangling_transition_target_named_with_code():
    spec = GamblerSpec(
        k=2,
        head_count=1,
        positional={"t0": PositionalState("t0", ())},
        betting={"q0": BettingState(ProbVector.uniform(2), ("q0", "q9"))},
        initial_t="t0",
        initial_q="q0",
    )
    report = validate_gambler(spec)
    assert any("code 1" in v.location for v in report)


@pytest.mark.parametrize("changes, messages", [
    ({"k": 1},
     ["alphabet: size 1 < 2", "betting[q0]: bet row has 2 entries, expected 1",
      "betting[q0]: transition table has 4 rows, expected k^h = 1^2"]),
    ({"head_count": 0},
     ["head_count: 0 < 1", "positional[t0]: move_bits has 1 entries, expected -1",
      "betting[q0]: transition table has 4 rows, expected k^h = 2^0"]),
    ({"positional": {}},
     ["positional: no positional states", "initial: t0 't0' unknown"]),
    ({"betting": {}}, ["betting: no betting states", "initial: q0 'q0' unknown"]),
    ({"initial_capital": Fraction(0)}, ["initial_capital: 0 is not positive"]),
    ({"positional": {"t0": PositionalState("t9", (0,))}},
     ["positional[t0]: successor 't9' is not a state"]),
    ({"positional": {"t0": PositionalState("t0", (2,))}},
     ["positional[t0]: move_bits entries must be 0 or 1"]),
    ({"betting": {"q0": BettingState(ProbVector.uniform(3), ("q0",) * 4)}},
     ["betting[q0]: bet row has 3 entries, expected 2"]),
    ({"betting": {"q0": BettingState(ProbVector.uniform(2), ("q0",) * 3)}},
     ["betting[q0]: transition table has 3 rows, expected k^h = 2^2"]),
    ({"initial_t": "t9"}, ["initial: t0 't9' unknown"]),
], ids=["alphabet", "head_count", "no positional", "no betting", "capital",
        "successor", "move bit", "bet row", "table", "t0"])
def test_each_violation_is_reported_in_its_words(changes, messages):
    spec = replace(_tiny_spec(ProbVector.uniform(2)), **changes)
    assert [str(v) for v in validate_gambler(spec)] == messages


@pytest.mark.parametrize("changes, fault", [
    ({"head_count": 2.0}, "head_count: 2.0 is not an int"),
    ({"head_count": True}, "head_count: True is not an int"),
    ({"k": 2.0}, "alphabet: size 2.0 is not an int"),
    ({"initial_capital": 1.0}, "initial_capital: 1.0 is not an int or Fraction"),
], ids=["float head count", "bool head count", "float alphabet", "float capital"])
def test_an_inexact_number_is_refused_before_the_walk(changes, fault):
    """Each once passed validation, or raised a ``TypeError`` from it."""
    spec = replace(_tiny_spec(ProbVector.uniform(2)), **changes)
    assert [str(v) for v in validate_gambler(spec)] == [fault]
    with pytest.raises(ValueError) as err:
        compile_gambler(spec)
    assert str(err.value) == f"invalid gambler {spec.label()}: {fault}"


def test_a_huge_declared_alphabet_is_validated_without_building_it():
    """An alphabet is its size: a document declaring a million symbols
    loads and validates in almost no memory (the symbols were once a
    million-entry tuple)."""
    doc = gambler_to_json(uniform_gambler())
    doc["alphabet_size"] = 10 ** 6
    tracemalloc.start()
    try:
        report = validate_gambler(gambler_from_json(doc))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [str(v) for v in report] == [
        "betting[q0]: bet row has 2 entries, expected 1000000",
        "betting[q0]: transition table has 2 rows, expected k^h = 1000000^1"]
    assert peak < 2 ** 20


@settings(max_examples=30, derandomize=True)
@given(seed=st.integers(0, 10_000), h=st.integers(1, 3))
def test_sampled_gamblers_are_valid(seed, h):
    assert validate_gambler(random_valid_gambler(seed, h)).ok


# ---------------------------------------------------------------------------
# capital
# ---------------------------------------------------------------------------

def test_uniform_bet_preserves_capital():
    assert not compile_gambler(uniform_gambler()).log_rows.any()
    trace = run_martingale(uniform_gambler(), constant_source(1), 7, mode="exact")
    assert trace.final_capital.exact_value() == 1
    assert trace.final_capital.log2() == 0.0


def test_deterministic_bet_doubles():
    assert compile_gambler(single_minded_gambler(0)).log_rows[0, 0] == 1.0
    trace = run_martingale(single_minded_gambler(0), constant_source(0), 3, mode="exact")
    assert list(trace.exact_capitals()) == [2, 4, 8]


def test_zero_bet_bankrupts_log_mode():
    assert compile_gambler(single_minded_gambler(0)).log_rows[0, 1] == BANKRUPT_LOG2
    c = run_martingale(single_minded_gambler(0), constant_source(1), 1).final_capital
    assert c.bits == BANKRUPT_LOG2
    assert c.log2() == float("-inf")


def test_bankruptcy_is_absorbing():
    # the all-in bettor on 0 loses at step 1; every later bet on 0 would win
    src = array_source([0, 1, 0, 0, 0])
    log = run_martingale(single_minded_gambler(0), src, 5)
    exact = run_martingale(single_minded_gambler(0), src, 5, mode="exact")
    assert (log.log2_capitals() == BANKRUPT_LOG2).tolist() == [False] + [True] * 4
    assert list(exact.exact_capitals()) == [2, 0, 0, 0, 0]
    assert exact.final_capital.bits == BANKRUPT_LOG2
    assert exact.final_capital.log2() == float("-inf")


def test_exact_log2_conversion_exact_for_powers_of_two():
    assert log2_fraction(Fraction(2) ** 700) == 700.0
    assert log2_fraction(Fraction(1, 2) ** 9) == -9.0


@settings(max_examples=50, derandomize=True)
@given(st.lists(st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(1, 3),
                                 Fraction(2, 3), Fraction(5, 8)]),
                min_size=1, max_size=200))
def test_exact_and_log_modes_agree(bet_seq):
    """The exact product of the fair factors ``2 * p`` against the running
    sum of their log2 values, as the two modes of a run compute them."""
    exact = Fraction(1)
    logc = 0.0
    for p in bet_seq:
        exact *= 2 * p
        logc += log2_fraction(2 * p)
    ref = log2_fraction(exact)
    assert abs(ref - logc) <= 1e-9 * max(1.0, abs(ref))


def test_bet_weight_outside_unit_interval_rejected():
    """Weights (3/2, -1/2) sum to 1, so only the sign of one is wrong."""
    spec = GamblerSpec(
        k=2,
        head_count=1,
        positional={"t0": PositionalState("t0", ())},
        betting={"q0": BettingState(
            ProbVector((Fraction(3, 2), Fraction(-1, 2))), ("q0", "q0"))},
        initial_t="t0",
        initial_q="q0",
    )
    with pytest.raises(ValueError, match="negative bet weight"):
        compile_gambler(spec)


# ---------------------------------------------------------------------------
# wire format
# ---------------------------------------------------------------------------

def test_gambler_json_round_trip(tmp_path):
    spec = build_parity_gambler(3)
    doc = gambler_to_json(spec, config={"produced_by": "test"})
    back = gambler_from_json(doc)
    assert back == spec
    path = tmp_path / "g.json"
    save_gambler(spec, path)
    assert load_gambler(path) == spec


def test_gambler_json_rejects_foreign_documents():
    with pytest.raises(ValueError):
        gambler_from_json({"format": "something-else"})


def test_gambler_json_name_must_be_a_string():
    """A list name once passed validation and reached reports as a list."""
    doc = gambler_to_json(uniform_gambler())
    with pytest.raises(ValueError, match=r"name \['x'\] is not a string"):
        gambler_from_json({**doc, "name": ["x"]})
    del doc["name"]
    assert gambler_from_json(doc).name == ""


@settings(max_examples=25, derandomize=True)
@given(seed=st.integers(0, 10_000), h=st.integers(1, 3))
def test_json_round_trip_random_specs(seed, h):
    spec = random_valid_gambler(seed, h)
    assert gambler_from_json(gambler_to_json(spec)) == spec
