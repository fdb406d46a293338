"""The level-by-level fair-betting check against the recursive tree it replaced."""

import dataclasses
import random
import tracemalloc
from fractions import Fraction

import pytest

import galelab.engine as engine
from galelab.analysis import SweepBudget, _sample_gambler
from galelab.constructions import uniform_gambler
from galelab.core import (
    BettingState,
    GamblerSpec,
    PositionalState,
    ProbVector,
)
from galelab.engine import (
    _compile_betting,
    _orbit_moves,
    check_martingale_property,
)


def reference_martingale_check(spec: GamblerSpec, depth: int) -> bool:
    """The recursive tree: every node's children capitals, multiplied out
    in exact arithmetic, must sum to ``k`` times its own."""
    if depth > 20:
        raise ValueError("depth > 20 would enumerate too many nodes")
    k = spec.k
    h = spec.head_count
    moves, pre = _orbit_moves(spec)
    mu_pre, mu_cyc = moves[:pre], moves[pre:]
    q_ids, q_index, trans, bet_rows = _compile_betting(spec)
    path: list[int] = []

    def node(m: int, q: int, cap: Fraction, pos: tuple[int, ...]) -> bool:
        if m >= depth:
            return True
        row = bet_rows[q].weights
        children = [cap * k * row[b] for b in range(k)]
        if sum(children) != k * cap:
            return False
        bits = mu_pre[m] if m < len(mu_pre) else mu_cyc[(m - len(mu_pre)) % len(mu_cyc)]
        nxt = tuple(p + b for p, b in zip(pos, bits))
        for b in range(k):
            code = 0
            for i in range(h - 1):
                code = code * k + (path[pos[i]] if pos[i] < m else b)
            code = code * k + b
            path.append(b)
            ok = node(m + 1, trans[q][code], children[b], nxt)
            path.pop()
            if not ok:
                return False
        return True

    return node(0, q_index[spec.initial_q], spec.initial_capital,
                tuple([0] * (h - 1)))


def _with_row(spec: GamblerSpec, qid: str, weights) -> GamblerSpec:
    betting = dict(spec.betting)
    betting[qid] = BettingState(ProbVector(tuple(weights)), spec.betting[qid].transitions)
    return dataclasses.replace(spec, betting=betting)


def _perturbed(rng: random.Random, spec: GamblerSpec) -> GamblerSpec:
    """``spec`` with one betting row moved off sum 1, up or down."""
    qid = rng.choice(sorted(spec.betting))
    w = list(spec.betting[qid].bets.weights)
    i = rng.choice([j for j, x in enumerate(w) if x] if rng.random() < 0.5 else range(len(w)))
    w[i] = w[i] / 2 if w[i] else Fraction(1, rng.randint(2, 6))
    return _with_row(spec, qid, w)


def _sampled(k: int, h: int, seed: int) -> GamblerSpec:
    rng = random.Random(1000 * k + 10 * h + seed)
    budget = SweepBudget(max_t=3, max_q=4, bet_denominator_max=4, samples=1, seed=seed)
    return _sample_gambler(rng, h, k, budget, f"s{seed}")


def _gambler(k: int, h: int, rows: dict, positional=None, **kw) -> GamblerSpec:
    """Betting rows given as ``{qid: (weights, transitions)}``; one
    positional state whose trailing heads never move, unless given."""
    positional = positional or {"t0": PositionalState("t0", (0,) * (h - 1))}
    betting = {q: BettingState(ProbVector(tuple(map(Fraction, w))), tuple(t))
               for q, (w, t) in rows.items()}
    return GamblerSpec(k, h, positional, betting,
                       "t0", next(iter(rows)), **kw)


# ---------------------------------------------------------------------------
# agreement with the reference on sampled gamblers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("block", [None, 1, 16])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("h", [1, 2, 3])
def test_sampled_gamblers_agree_with_reference(monkeypatch, block, k, h):
    if block:  # levels wider than the block are expanded depth first, block by block
        monkeypatch.setattr(engine, "NODE_BLOCK", block)
    verdicts = {True: 0, False: 0}
    for seed in range(6):
        valid = _sampled(k, h, seed)
        bad = _perturbed(random.Random(seed), valid)
        for spec in (valid, bad):
            for depth in range(8):
                got = check_martingale_property(spec, depth)
                assert got == reference_martingale_check(spec, depth), (seed, depth)
                verdicts[got] += 1
        assert check_martingale_property(valid, 7)
    assert verdicts[False] > 0  # the perturbed rows are reached


# ---------------------------------------------------------------------------
# targeted cases
# ---------------------------------------------------------------------------

def _both(spec: GamblerSpec, depth: int) -> bool:
    got = check_martingale_property(spec, depth)
    assert got == reference_martingale_check(spec, depth)
    return got


def test_bad_row_first_reached_at_the_last_level():
    # a chain q0 -> q1 -> ... -> q4 whatever is read; q4 is reached after
    # four symbols, so only strings of length 4 (depth 5) meet it
    fair = ("1/2", "1/2")
    rows = {f"q{i}": (fair, (f"q{i + 1}",) * 2) for i in range(4)}
    rows["q4"] = (("3/4", "3/4"), ("q4", "q4"))
    spec = _gambler(2, 1, rows)
    assert not _both(spec, 5)
    assert _both(spec, 4)


def test_bad_row_reached_only_after_a_zero_bet():
    # all in on 0; a 1 moves to the bad row with zero capital
    spec = _gambler(2, 1, {"q0": (("1", "0"), ("q0", "bad")),
                           "bad": (("1", "1"), ("bad", "bad"))})
    assert _both(spec, 8)


def test_unreachable_bad_row():
    spec = _gambler(3, 1, {"q0": (("1/3",) * 3, ("q0",) * 3),
                           "bad": (("1/3", "1/3", "1/2"), ("bad",) * 3)})
    assert _both(spec, 6)


def test_zero_initial_capital_passes():
    spec = _gambler(2, 1, {"q0": (("3/4", "3/4"), ("q0", "q0"))},
                    initial_capital=Fraction(0))
    assert _both(spec, 8)
    assert not check_martingale_property(
        dataclasses.replace(spec, initial_capital=Fraction(1, 5)), 1)


def test_trailing_head_reads_the_newest_symbol():
    # code = trailing read * 2 + leading symbol; a mismatch (codes 1, 2)
    # leads to the bad row
    rows = {"q0": (("1/2", "1/2"), ("q0", "bad", "bad", "q0")),
            "bad": (("1/4", "1/4"), ("bad",) * 4)}
    # a head that advances every step sits on the newest symbol: no mismatch
    moving = {"t0": PositionalState("t0", (1,))}
    assert _both(_gambler(2, 2, rows, moving), 8)
    # a head that never moves reads the first symbol: "01" mismatches
    assert _both(_gambler(2, 2, rows), 2)
    assert not _both(_gambler(2, 2, rows), 3)


def _needle(k: int, target: list[int]) -> GamblerSpec:
    """A gambler whose only unfair row is reached by the one string ``target``.

    Its trailing head lags the leading one by a symbol from step 1 on, and
    state ``q{j}`` moves on only if the trailing head reads
    ``target[j - 1]`` and the leading one ``target[j]``: a wrong trailing
    read, as much as a wrong symbol, drops into the fair sink.
    """
    uniform = (Fraction(1, k),) * k
    rows = {}
    for j, want in enumerate(target):
        succ = [f"q{j + 1}" if b == want and (j == 0 or a == target[j - 1]) else "sink"
                for a in range(k) for b in range(k)]
        rows[f"q{j}"] = (uniform, succ)
    rows[f"q{len(target)}"] = ((Fraction(1, k + 1),) * k, ("sink",) * k**2)
    rows["sink"] = (uniform, ("sink",) * k**2)
    lagging = {"t0": PositionalState("t1", (0,)), "t1": PositionalState("t1", (1,))}
    return _gambler(k, 2, rows, lagging)


@pytest.mark.parametrize("block", [1, 5, 16, None])
@pytest.mark.parametrize("k,target", [(2, [1, 1, 0, 1, 1, 0, 1]), (3, [2, 1, 0, 2, 2, 1])])
def test_needle_reached_through_trailing_reads(monkeypatch, block, k, target):
    if block:
        monkeypatch.setattr(engine, "NODE_BLOCK", block)
    spec = _needle(k, target)
    assert not _both(spec, len(target) + 1)
    assert _both(spec, len(target))


def test_node_numbers_past_int64():
    # at k = 12 the level-18 node numbers pass 2**63; betting all in on
    # the target keeps a single string live, so the tree is cheap to walk
    target = [11, 3, 7, 0, 9, 11, 1, 2, 8, 10, 11, 5, 6, 9, 4, 11, 10, 2, 11]
    spec = _needle(12, target)
    for j, want in enumerate(target):
        spec = _with_row(spec, f"q{j}", ProbVector.point(12, want).weights)
    assert not check_martingale_property(spec, 20)
    assert check_martingale_property(spec, 19)


def test_check_is_independent_of_the_compiled_walk():
    code = check_martingale_property.__code__
    names = set(code.co_names)
    for const in code.co_consts:  # the nested level expansion
        if hasattr(const, "co_names"):
            names |= set(const.co_names)
    assert not names & {"compile_gambler", "_Orbits", "walk", "walk_population"}


# ---------------------------------------------------------------------------
# memory bound
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k,depth", [(2, 20), (3, 14)])
def test_memory_stays_within_8mb(k, depth):
    spec = uniform_gambler(k)  # every node is live: the whole tree is expanded
    tracemalloc.start()
    try:
        assert check_martingale_property(spec, depth)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20
    with pytest.raises(ValueError):
        check_martingale_property(spec, 21)
