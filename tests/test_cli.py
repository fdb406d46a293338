"""Command-line front end: dispatch, exit codes, artifacts, reproducibility."""

import argparse
import json
from fractions import Fraction

import numpy as np
import pytest

from galelab import cli
from galelab.constructions import build_parity_gambler, uniform_gambler
from galelab.core import load_gambler, gambler_to_json
from galelab.sequences import f_family, prng_source, read_sequence

from gamblers import overbetting_gambler


def run(*argv):
    return cli.main(list(argv))


def read_csv_rows(path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


# ---------------------------------------------------------------------------
# gen-seq / simulate round trip
# ---------------------------------------------------------------------------

def test_gen_seq_writes_the_derived_sequence(tmp_path, capsys):
    out = tmp_path / "y.seq"
    assert run("gen-seq", "--variant", "F", "--h", "2", "--seed", "1",
               "--n", "5000", "--out", str(out)) == 0
    echoed = capsys.readouterr().out
    assert echoed.startswith("# config ")
    src = read_sequence(out)
    ref = f_family(2, "F", prng_source(1))
    assert np.array_equal(src.prefix_array(5000), ref.prefix_array(5000))


def test_gen_seq_is_reproducible_byte_for_byte(tmp_path):
    a, b = tmp_path / "a.seq", tmp_path / "b.seq"
    args = ["gen-seq", "--variant", "Fprime", "--h", "2", "--seed", "7",
            "--n", "4096"]
    assert run(*args, "--out", str(a)) == 0
    assert run(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_parity_gambler_full_horizon(tmp_path):
    seq = tmp_path / "y.seq"
    csv_out = tmp_path / "t.csv"
    assert run("gen-seq", "--variant", "F", "--h", "2", "--seed", "1",
               "--n", "100000", "--out", str(seq)) == 0
    assert run("simulate", "--gambler", "parity:h=2", "--seq", str(seq),
               "--out", str(csv_out)) == 0
    header, rows = read_csv_rows(csv_out)
    assert header[:2] == ["n", "log2_capital"]
    assert rows[-1][0] == "100000"
    assert float(rows[-1][1]) == 19999.0


def test_simulate_sgale_columns(tmp_path):
    seq = tmp_path / "y.seq"
    csv_out = tmp_path / "t.csv"
    run("gen-seq", "--variant", "F", "--h", "2", "--seed", "1",
        "--n", "500", "--out", str(seq))
    assert run("simulate", "--gambler", "parity:h=2", "--seq", str(seq),
               "--sgale", "0.8", "--sgale", "0.9",
               "--out", str(csv_out)) == 0
    header, rows = read_csv_rows(csv_out)
    assert header == ["n", "log2_capital", "sgale_0.8", "sgale_0.9"]
    n, log2cap = 500, float(rows[-1][1])
    assert float(rows[-1][2]) == pytest.approx(log2cap - 0.2 * n, abs=1e-6)


def test_simulate_over_length_fails_validation(tmp_path):
    seq = tmp_path / "y.seq"
    run("gen-seq", "--variant", "F", "--h", "2", "--seed", "1",
        "--n", "100", "--out", str(seq))
    assert run("simulate", "--gambler", "parity:h=2", "--seq", str(seq),
               "--n", "5000", "--out", str(tmp_path / "t.csv")) == 1


# ---------------------------------------------------------------------------
# build-gambler / combine / verify
# ---------------------------------------------------------------------------

def test_build_and_verify_round_trip(tmp_path):
    g = tmp_path / "g.json"
    assert run("build-gambler", "--kind", "parity", "--h", "2",
               "--out", str(g)) == 0
    spec = load_gambler(g)
    assert spec.head_count == 3
    assert run("verify", "--check", "martingale", "--gambler", str(g),
               "--depth", "10") == 0
    assert run("verify", "--check", "speeds", "--gambler", str(g),
               "--n-max", "10000") == 0
    assert run("verify", "--check", "spec", "--gambler", str(g)) == 0


def test_verify_rejects_invalid_gambler_file(tmp_path, capsys):
    g = tmp_path / "bad.json"
    doc = gambler_to_json(__import__("galelab").build_parity_gambler(1))
    doc["betting_states"][0]["bets"] = ["1/2", "1/4"]
    g.write_text(json.dumps(doc))
    assert run("verify", "--check", "spec", "--gambler", str(g)) == 1
    out = capsys.readouterr().out
    assert "violation betting[n0]: bet weights sum to 3/4, expected 1" in out


def test_a_gambler_path_with_a_colon_is_a_file(tmp_path, monkeypatch):
    """Only a kind before the first ``:`` makes a shorthand; ``a:b.json``
    was once read as the unknown kind ``a``."""
    monkeypatch.chdir(tmp_path)
    assert run("gen-seq", "--variant", "F", "--h", "2", "--seed", "1",
               "--n", "300", "--out", "y.seq") == 0
    assert run("build-gambler", "--kind", "parity", "--h", "2", "--out", "a:b.json") == 0
    for ref in ("a:b.json", "./a:b.json", str(tmp_path / "a:b.json")):
        assert run("simulate", "--gambler", ref, "--seq", "y.seq", "--out", "t.csv") == 0
        assert run("verify", "--check", "spec", "--gambler", ref) == 0


def test_a_mistyped_kind_is_a_missing_file(capsys):
    assert run("verify", "--check", "spec", "--gambler", "parrity:h=2") == cli.EXIT_IO
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("i/o error: ") and "'parrity:h=2'" in err


def _uniform_doc_with_bets(bets):
    doc = gambler_to_json(uniform_gambler())
    doc["betting_states"][0]["bets"] = bets
    return json.dumps(doc)


@pytest.mark.parametrize("text, reason", [
    ("[]", "not a galelab-gambler-v1 document"),
    (_uniform_doc_with_bets([None, "1/2"]),
     "rationals must be exact strings or ints, not None"),
    (_uniform_doc_with_bets(["1/0", "1"]), "zero denominator in '1/0'"),
    (_uniform_doc_with_bets([True, False]),
     "rationals must be exact strings or ints, not True"),
], ids=["array", "null bet", "zero denominator", "boolean bet"])
def test_a_malformed_gambler_file_exits_2_naming_it(tmp_path, capsys, text, reason):
    """Each once ended in an uncaught traceback, or (boolean bets) passed."""
    g = tmp_path / "g.json"
    g.write_text(text)
    assert run("verify", "--check", "spec", "--gambler", str(g)) == cli.EXIT_IO
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"i/o error: malformed gambler file {g}: {reason}\n"


def _parity_doc_with(change):
    doc = gambler_to_json(build_parity_gambler(1))
    change(doc)
    return doc


@pytest.mark.parametrize("doc, reason", [
    (_parity_doc_with(lambda d: d["initial"].update(t=["x"])),
     "initial t ['x'] is not a string"),
    (_parity_doc_with(lambda d: d["betting_states"][0]["transitions"].__setitem__(0, ["q0"])),
     "transition target ['q0'] is not a string"),
], ids=["initial t", "transition target"])
def test_a_list_where_a_state_id_belongs_is_a_malformed_file(tmp_path, capsys, doc, reason):
    """Each once ended in "TypeError: unhashable type: 'list'"."""
    g = tmp_path / "g.json"
    g.write_text(json.dumps(doc))
    assert run("verify", "--check", "spec", "--gambler", str(g)) == cli.EXIT_IO
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"i/o error: malformed gambler file {g}: {reason}\n"


@pytest.mark.parametrize("doc, reason", [
    (_parity_doc_with(lambda d: d.update(alphabet_size=2.9)),
     "alphabet_size 2.9 is not an integer"),
    (_parity_doc_with(lambda d: d["positional_states"][0].update(move_bits=[0.7])),
     "move bit 0.7 is not an integer"),
    (_parity_doc_with(lambda d: d.update(head_count=True)),
     "head_count True is not an integer"),
], ids=["alphabet size", "move bit", "boolean head count"])
def test_a_float_or_boolean_integer_field_is_a_malformed_file(tmp_path, capsys, doc, reason):
    """``int()`` once read 2.9 as alphabet size 2 and 0.7 as move bit 0,
    and the file passed as structurally valid."""
    g = tmp_path / "g.json"
    g.write_text(json.dumps(doc))
    assert run("verify", "--check", "spec", "--gambler", str(g)) == cli.EXIT_IO
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"i/o error: malformed gambler file {g}: {reason}\n"


def test_a_huge_head_count_lists_its_violations(tmp_path, capsys):
    """``k^h`` is never built, nor formatted: this once failed on Python's
    limit for converting a 30103-digit integer to a string."""
    g = tmp_path / "g.json"
    doc = gambler_to_json(uniform_gambler())
    doc["head_count"] = 100_000
    g.write_text(json.dumps(doc))
    assert run("verify", "--check", "spec", "--gambler", str(g)) == cli.EXIT_VALIDATION
    assert capsys.readouterr().out.splitlines()[1:] == [
        "violation positional[t0]: move_bits has 0 entries, expected 99999",
        "violation betting[q0]: transition table has 2 rows, expected k^h = 2^100000"]


def test_verify_martingale_rejects_overbetting_gambler_file(tmp_path, capsys):
    # the file loads, but the martingale check validates its gambler
    # first, so the row summing to 3/2 fails validation before the check
    g = tmp_path / "over.json"
    g.write_text(json.dumps(gambler_to_json(overbetting_gambler())))
    assert load_gambler(g).betting["q0"].bets.total() == Fraction(3, 2)
    assert run("verify", "--check", "martingale", "--gambler", str(g),
               "--depth", "4") == cli.EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert "validation failure: invalid gambler" in err
    assert "fair-betting identity holds" not in out


def test_verify_martingale_reports_a_violated_identity(monkeypatch, capsys):
    # validation rules out every gambler the brute-force check would
    # reject, so the branch is reached only if the two ever disagree
    monkeypatch.setattr(cli.engine, "check_martingale_property",
                        lambda spec, depth: False)
    assert run("verify", "--check", "martingale", "--gambler", "uniform",
               "--depth", "3") == cli.EXIT_VALIDATION
    assert "fair-betting identity violated below depth 3" in capsys.readouterr().out


def test_verify_parity_structure_command():
    assert run("verify", "--check", "parity", "--h", "2", "--variant", "F",
               "--seed", "3", "--n", "2000") == 0


def test_combine_head_count(tmp_path):
    a, b, c = (tmp_path / name for name in ("a.json", "b.json", "c.json"))
    run("build-gambler", "--kind", "fprime", "--h", "2", "--out", str(a))
    run("build-gambler", "--kind", "fdoubleprime", "--h", "2", "--out", str(b))
    assert run("combine", "--g1", str(a), "--g2", str(b),
               "--epsilon", "1/10", "--out", str(c)) == 0
    doc = json.loads(c.read_text())
    assert doc["head_count"] == 2 + 2 - 1
    assert doc["config"]["epsilon"] == "1/10"


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_sweep_command_and_report(tmp_path, capsys):
    out = tmp_path / "sweep.jsonl"
    assert run("sweep", "--h", "1", "--seq-seed", "1", "--n", "2000",
               "--samples", "5", "--rng-seed", "0",
               "--include", "parity:h=1", "--out", str(out)) == 0
    lines = [json.loads(ln) for ln in out.read_text().splitlines()]
    assert lines[0]["type"] == "config"
    assert lines[-1]["type"] == "summary"
    assert lines[-1]["best_overall_id"] == "parity_h1"
    assert run("report", "--in", str(out)) == 0
    shown = capsys.readouterr().out
    assert "parity_h1" in shown and "log2_capital_final=" in shown
    assert "None" not in shown


def test_sweep_reports_are_reproducible(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    args = ["sweep", "--h", "1", "--seq-seed", "2", "--n", "1000",
            "--samples", "4", "--rng-seed", "5"]
    assert run(*args, "--out", str(a)) == 0
    assert run(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_over_a_sequence_file_defaults_n_to_its_length(tmp_path, capsys):
    seq, out = tmp_path / "y.seq", tmp_path / "s.jsonl"
    assert run("gen-seq", "--variant", "F", "--h", "1", "--seed", "1",
               "--n", "300", "--out", str(seq)) == 0
    capsys.readouterr()
    assert run("sweep", "--h", "1", "--seq", str(seq), "--samples", "2",
               "--out", str(out)) == 0
    echoed = json.loads(capsys.readouterr().out.splitlines()[0][len("# config "):])
    assert echoed["n"] == 300
    runs = [obj for obj in map(json.loads, out.read_text().splitlines())
            if obj["type"] == "run"]
    assert len(runs) == 2 and all(obj["n"] == 300 for obj in runs)


@pytest.mark.parametrize("h", ["0", "1"])
def test_instability_refuses_h_below_2_before_echoing(tmp_path, capsys, h):
    out = tmp_path / "inst.jsonl"
    assert run("instability", "--h", h, "--seed", "1", "--n", "200",
               "--out", str(out)) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("validation failure: instability needs h >= 2 "
                            "(two distinct variants)\n")
    assert not out.exists()


@pytest.mark.parametrize("eps", ["0", "1", "2", "-1/2"])
def test_instability_refuses_epsilon_outside_0_1_before_echoing(tmp_path, capsys, eps):
    out = tmp_path / "inst.jsonl"
    assert run("instability", "--h", "2", "--seed", "1", "--n", "200",
               "--epsilon", eps, "--out", str(out)) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "validation failure: eps must lie strictly between 0 and 1\n"
    assert not out.exists()


@pytest.mark.parametrize("h", ["0", "-1"])
@pytest.mark.parametrize("seq", [False, True])
def test_sweep_refuses_h_below_1_before_echoing(tmp_path, capsys, h, seq):
    argv = ["--n", "100"]
    if seq:  # no source is built from h, so it once failed in a sampled gambler
        argv = ["--seq", str(tmp_path / "y.seq")]
        run("gen-seq", "--variant", "F", "--h", "1", "--seed", "1",
            "--n", "100", "--out", argv[1])
        capsys.readouterr()
    out = tmp_path / "s.jsonl"
    assert run("sweep", "--h", h, "--samples", "2", *argv,
               "--out", str(out)) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "validation failure: h must be at least 1\n"
    assert not out.exists()


_CAP = ("requested prefix {} exceeds retained-prefix cap 1000 "
        "(set GALELAB_MAX_PREFIX to raise it)")
_ALPHABET = "source alphabet size 2 != gambler's 3"

# Each of these once echoed its config and then failed in the library: a
# horizon past the tables, a gambler over another alphabet, or (with the
# retained-prefix cap lowered to 1000) a prefix past the cap.
LIBRARY_REFUSALS = [
    (("instability", "--h", "12", "--seed", "1", "--n", "100", "--out", "OUT"), False,
     "h=12 unsupported; largest tabled h is 11"),
    (("estimate-dim", "--seq", "SEQ", "--gambler", "uniform:k=3", "--out", "OUT"), False,
     _ALPHABET),
    (("sweep", "--h", "1", "--seq", "SEQ", "--include", "uniform:k=3", "--samples", "2",
      "--out", "OUT"), False, _ALPHABET),
    (("gen-seq", "--variant", "F", "--h", "1", "--seed", "1", "--n", "5000", "--out", "OUT"),
     True, _CAP.format(5000)),
    (("sweep", "--h", "1", "--n", "5000", "--samples", "2", "--out", "OUT"), True,
     _CAP.format(5000)),
    (("instability", "--h", "2", "--seed", "1", "--n", "5000", "--out", "OUT"), True,
     _CAP.format(5000)),
    (("verify", "--check", "parity", "--h", "2", "--n", "5000"), True, _CAP.format(5001)),
]


@pytest.mark.parametrize("argv, cap, message", LIBRARY_REFUSALS,
                         ids=[" ".join(case[0][:3]) + (" cap" if case[1] else "")
                              for case in LIBRARY_REFUSALS])
def test_library_refusals_come_before_any_output(tmp_path, capsys, monkeypatch,
                                                 argv, cap, message):
    seq = tmp_path / "y.seq"
    assert run("gen-seq", "--variant", "F", "--h", "1", "--seed", "1",
               "--n", "200", "--out", str(seq)) == 0
    capsys.readouterr()
    if cap:
        monkeypatch.setenv("GALELAB_MAX_PREFIX", "1000")
    argv = [{"SEQ": str(seq), "OUT": str(tmp_path / "out")}.get(a, a) for a in argv]
    assert run(*argv) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"validation failure: {message}\n"
    assert sorted(tmp_path.iterdir()) == [seq]


def test_combine_refuses_a_negative_epsilon_given_apart(tmp_path, capsys):
    # argparse once read "-1/2" as a flag and exited 64
    out = tmp_path / "out"
    assert run("combine", "--g1", "parity:h=1", "--g2", "parity:h=1",
               "--epsilon", "-1/2", "--out", str(out)) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "validation failure: eps must lie strictly between 0 and 1\n"
    assert not out.exists()


def test_a_negative_sgale_may_follow_its_flag(tmp_path):
    seq, out = tmp_path / "y.seq", tmp_path / "t.csv"
    run("gen-seq", "--variant", "F", "--h", "1", "--seed", "1",
        "--n", "200", "--out", str(seq))
    written = []
    for sgale in (["--sgale", "-1/2"], ["--sgale=-1/2"]):
        assert run("simulate", "--gambler", "parity:h=1", "--seq", str(seq),
                   *sgale, "--out", str(out)) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]
    assert b"sgale_-1/2" in written[0]


@pytest.mark.parametrize("argv", [("instability", "--config", "BIN", "--out", "OUT"),
                                  ("report", "--in", "BIN")],
                         ids=["config", "report"])
def test_an_undecodable_config_or_report_exits_2(tmp_path, capsys, argv):
    binary = tmp_path / "y.seq"
    binary.write_bytes(b"GSEQ\x02\x01\x01\x00\xc8\xff\x00\x00")
    argv = [{"BIN": str(binary), "OUT": str(tmp_path / "out")}.get(a, a) for a in argv]
    assert run(*argv) == cli.EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("i/o error: ")
    assert str(binary) in captured.err and "can't decode" in captured.err
    assert sorted(tmp_path.iterdir()) == [binary]


def test_instability_command(tmp_path):
    out = tmp_path / "inst.jsonl"
    assert run("instability", "--h", "2", "--seed", "1", "--n", "2000",
               "--epsilon", "1/10", "--out", str(out)) == 0
    lines = [json.loads(ln) for ln in out.read_text().splitlines()]
    assert lines[-1]["type"] == "summary"
    assert set(lines[-1]["matrix"]) == {"fprime", "fdoubleprime"}


def test_estimate_dim_command(tmp_path, capsys):
    seq = tmp_path / "y.seq"
    out = tmp_path / "dim.jsonl"
    run("gen-seq", "--variant", "F", "--h", "2", "--seed", "1",
        "--n", "20000", "--out", str(seq))
    assert run("estimate-dim", "--seq", str(seq), "--gambler", "parity:h=2",
               "--gambler", "uniform", "--gambler", "allin:sym=0",
               "--out", str(out)) == 0
    summary = [json.loads(ln) for ln in out.read_text().splitlines()][-1]
    assert abs(summary["aggregate_upper_bound"] - 0.8) <= 0.01
    capsys.readouterr()
    assert run("report", "--in", str(out)) == 0
    shown = capsys.readouterr().out
    runs = [ln for ln in shown.splitlines() if ln.startswith("  ")]
    assert len(runs) == 3 and all("upper_bound=" in ln for ln in runs)
    assert "bankrupt=true" in runs[2] and "exponent=-inf" in runs[2]
    assert "None" not in shown


# ---------------------------------------------------------------------------
# configs and exit codes
# ---------------------------------------------------------------------------

def test_config_file_defaults_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"variant": "F", "h": 2, "seed": 1, "n": 100}))
    out1 = tmp_path / "one.seq"
    assert run("gen-seq", "--config", str(cfg), "--out", str(out1)) == 0
    assert read_sequence(out1).length == 100
    out2 = tmp_path / "two.seq"
    assert run("gen-seq", "--config", str(cfg), "--n", "250",
               "--out", str(out2)) == 0
    assert read_sequence(out2).length == 250


def test_module_entry_point(tmp_path):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "galelab.cli", "verify", "--check", "parity",
         "--h", "2", "--seed", "1", "--n", "500"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "parity structure verified" in proc.stdout
    usage = subprocess.run([sys.executable, "-m", "galelab.cli"],
                           capture_output=True, text=True)
    assert usage.returncode == 64


def test_unknown_flag_exits_64(capsys):
    assert run("gen-seq", "--no-such-flag") == 64
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_command_exits_64():
    assert run("frobnicate") == 64


def test_missing_required_option_exits_64(tmp_path):
    assert run("gen-seq", "--variant", "F", "--h", "2", "--seed", "1") == 64


def test_missing_file_exits_2(tmp_path):
    assert run("simulate", "--gambler", "parity:h=2",
               "--seq", str(tmp_path / "absent.seq"),
               "--out", str(tmp_path / "t.csv")) == 2


def test_malformed_sequence_file_exits_2(tmp_path):
    bad = tmp_path / "bad.seq"
    bad.write_bytes(b"JUNKJUNKJUNKJUNK")
    assert run("simulate", "--gambler", "parity:h=2", "--seq", str(bad),
               "--out", str(tmp_path / "t.csv")) == 2


def test_bad_rational_exits_64(tmp_path):
    a = tmp_path / "a.json"
    run("build-gambler", "--kind", "fprime", "--h", "2", "--out", str(a))
    assert run("combine", "--g1", str(a), "--g2", str(a),
               "--epsilon", "zebra", "--out", str(tmp_path / "c.json")) == 64


def test_unsupported_h_is_validation_failure(tmp_path):
    assert run("build-gambler", "--kind", "parity", "--h", "99",
               "--out", str(tmp_path / "g.json")) == 1


def test_unsupported_h_in_a_shorthand_is_a_usage_error(capsys):
    # a shorthand is part of the command line, so a bad one is a usage
    # error; build-gambler's --h names a value the builder rejects
    assert run("verify", "--check", "martingale",
               "--gambler", "parity:h=99") == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error: ")


def test_instability_reads_options_from_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"h": 2, "seed": 3, "n": 400, "epsilon": "1/5"}))
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run("instability", "--config", str(cfg), "--out", str(a)) == 0
    echoed = capsys.readouterr().out.splitlines()[0]
    assert json.loads(echoed[len("# config "):]) == {
        "command": "instability", "h": 2, "seed": 3, "n": 400,
        "epsilon": "1/5", "out": str(a)}
    assert run("instability", "--h", "2", "--seed", "3", "--n", "400",
               "--epsilon", "1/5", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("text", ["{not json", "[1, 2]"])
def test_malformed_config_exits_2(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert run("gen-seq", "--config", str(cfg),
               "--out", str(tmp_path / "y.seq")) == cli.EXIT_IO
    assert str(cfg) in capsys.readouterr().err


SUBCOMMAND_OPTIONS = {
    "gen-seq": {"--variant", "--h", "--seed", "--n", "--out", "--config"},
    "build-gambler": {"--kind", "--h", "--symbol", "--out", "--config"},
    "combine": {"--g1", "--g2", "--epsilon", "--out", "--config"},
    "simulate": {"--gambler", "--seq", "--n", "--mode", "--sgale", "--out",
                 "--config"},
    "verify": {"--check", "--gambler", "--depth", "--n-max", "--variant",
               "--h", "--seed", "--n", "--config"},
    "sweep": {"--h", "--n", "--seq", "--seq-seed", "--seq-variant",
              "--samples", "--max-t", "--max-q", "--bet-denom", "--rng-seed",
              "--include", "--out", "--config"},
    "instability": {"--h", "--seed", "--n", "--epsilon", "--out", "--config"},
    "estimate-dim": {"--seq", "--gambler", "--n", "--out", "--config"},
    "report": {"--in"},
}


def test_subcommand_option_sets_are_pinned():
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    found = {name: {s for a in p._actions for s in a.option_strings}
             - {"-h", "--help"} for name, p in sub.choices.items()}
    assert found == SUBCOMMAND_OPTIONS


def test_csv_embeds_config_line(tmp_path):
    seq = tmp_path / "y.seq"
    csv_out = tmp_path / "t.csv"
    run("gen-seq", "--variant", "F", "--h", "2", "--seed", "1",
        "--n", "200", "--out", str(seq))
    run("simulate", "--gambler", "parity:h=2", "--seq", str(seq),
        "--out", str(csv_out))
    first = csv_out.read_text().splitlines()[0]
    assert first.startswith("# ")
    embedded = json.loads(first[2:])
    assert embedded["command"] == "simulate"
    assert embedded["n"] == 200


def test_report_on_a_non_object_line_is_an_io_error(tmp_path, capsys):
    bad = tmp_path / "r.jsonl"
    bad.write_text('{"type": "config"}\n[1]\n')
    assert run("report", "--in", str(bad)) == cli.EXIT_IO
    assert capsys.readouterr().err.startswith(f"i/o error: malformed report {bad}")


@pytest.mark.parametrize("entry, flag", [({"h": "x"}, "--h"), ({"n": [3]}, "--n")])
def test_wrong_typed_config_integer_is_a_usage_error(tmp_path, capsys, entry, flag):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"h": 2, "seed": 1, "n": 400, **entry}))
    assert run("instability", "--config", str(cfg),
               "--out", str(tmp_path / "i.jsonl")) == cli.EXIT_USAGE
    assert f"bad integer for {flag}: " in capsys.readouterr().err


@pytest.mark.parametrize("entry, message", [
    ({"h": 2.7}, "bad integer for --h: 2.7"),   # once truncated to h = 2
    ({"h": True}, "bad integer for --h: True"),  # once read as h = 1
])
def test_fractional_or_boolean_config_integer_is_a_usage_error(tmp_path, capsys,
                                                               entry, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"h": 2, "seed": 1, "n": 400, **entry}))
    assert run("instability", "--config", str(cfg),
               "--out", str(tmp_path / "i.jsonl")) == cli.EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not (tmp_path / "i.jsonl").exists()


def test_integral_float_config_integer_is_accepted(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"variant": "F", "h": 2.0, "seed": 1, "n": 1e5}')
    out = tmp_path / "y.seq"
    assert run("gen-seq", "--config", str(cfg), "--out", str(out)) == 0
    echoed = json.loads(capsys.readouterr().out.splitlines()[0][len("# config "):])
    assert (echoed["h"], echoed["n"]) == (2, 100_000)
    assert read_sequence(out).length == 100_000


@pytest.mark.parametrize("argv", [
    ("simulate", "--gambler", "parity:h=2"),
    ("estimate-dim", "--gambler", "parity:h=2"),
    ("sweep", "--h", "2", "--samples", "2"),
])
def test_n_beyond_the_sequence_file_is_refused_before_any_work(tmp_path, capsys, argv):
    seq, out = tmp_path / "y.seq", tmp_path / "out"
    run("gen-seq", "--variant", "F", "--h", "2", "--seed", "1",
        "--n", "100", "--out", str(seq))
    capsys.readouterr()
    assert run(*argv, "--seq", str(seq), "--n", "500",
               "--out", str(out)) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"validation failure: sequence {seq} "
                            "holds 100 symbols, not 500\n")
    assert not out.exists()


# A negative horizon or count, an empty search budget, a report over no
# steps or a martingale tree too deep to enumerate, for which each command
# would die on an uncaught error, report a check as holding, write an
# empty report or fail after echoing its config.  The last column is the
# bound: the least value for a value below it, else the greatest.
OUT_OF_RANGE = [
    (("gen-seq", "--variant", "F", "--h", "2", "--seed", "1", "--out", "OUT"), "--n", -5, 0),
    (("simulate", "--gambler", "parity:h=2", "--seq", "SEQ", "--out", "OUT"), "--n", -5, 0),
    (("verify", "--check", "parity", "--h", "2"), "--n", -4, 1),
    (("verify", "--check", "speeds", "--gambler", "parity:h=2"), "--n-max", -4, 1),
    (("verify", "--check", "martingale", "--gambler", "parity:h=2"), "--depth", -1, 0),
    (("sweep", "--h", "1", "--n", "100", "--out", "OUT"), "--samples", -2, 0),
    (("sweep", "--h", "1", "--n", "100", "--out", "OUT"), "--max-t", 0, 1),
    (("sweep", "--h", "1", "--n", "100", "--out", "OUT"), "--max-q", 0, 1),
    (("sweep", "--h", "1", "--n", "100", "--out", "OUT"), "--bet-denom", 0, 1),
    (("sweep", "--h", "1", "--samples", "2", "--out", "OUT"), "--n", -1, 1),
    (("instability", "--h", "2", "--seed", "1", "--out", "OUT"), "--n", -1, 1),
    (("estimate-dim", "--gambler", "parity:h=2", "--seq", "SEQ", "--out", "OUT"),
     "--n", -1, 1),
    # a report over no steps once echoed its config, then failed on an empty trace
    (("sweep", "--h", "2", "--samples", "2", "--out", "OUT"), "--n", 0, 1),
    (("sweep", "--seq", "SEQ", "--h", "1", "--samples", "2", "--out", "OUT"), "--n", 0, 1),
    (("instability", "--h", "3", "--seed", "1", "--out", "OUT"), "--n", 0, 1),
    (("estimate-dim", "--seq", "SEQ", "--gambler", "parity:h=2", "--out", "OUT"),
     "--n", 0, 1),
    # a verdict over no steps once checked nothing and passed
    (("verify", "--h", "2", "--check", "parity"), "--n", 0, 1),
    (("verify", "--gambler", "parity:h=2", "--check", "speeds"), "--n-max", 0, 1),
    # once echoed, then refused inside the check
    (("verify", "--gambler", "parity:h=2", "--check", "martingale"), "--depth", 21, 20),
    # a seed outside 64 bits once crashed the bit source with a traceback
    (("gen-seq", "--variant", "raw", "--n", "10", "--out", "OUT"), "--seed", 2**63, 2**63 - 1),
    (("gen-seq", "--n", "10", "--variant", "raw", "--out", "OUT"), "--seed", -2**63 - 1, -2**63),
    (("verify", "--check", "parity", "--h", "2"), "--seed", -2**63 - 1, -2**63),
    (("verify", "--h", "2", "--check", "parity"), "--seed", 2**63, 2**63 - 1),
    (("instability", "--h", "2", "--n", "100", "--out", "OUT"), "--seed",
     99999999999999999999, 2**63 - 1),
    (("sweep", "--h", "1", "--n", "100", "--samples", "2", "--out", "OUT"), "--seq-seed",
     2**63, 2**63 - 1),
    (("sweep", "--n", "100", "--h", "1", "--samples", "2", "--out", "OUT"), "--seq-seed",
     -2**63 - 1, -2**63),
]


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("argv, flag, value, bound", OUT_OF_RANGE,
                         ids=[" ".join(case[0][:3]) + f" {case[1]}" for case in OUT_OF_RANGE])
def test_out_of_range_integer_exits_64_before_any_output(tmp_path, capsys, argv, flag,
                                                         value, bound, via):
    seq = tmp_path / "y.seq"
    assert run("gen-seq", "--variant", "F", "--h", "2", "--seed", "1",
               "--n", "100", "--out", str(seq)) == 0
    argv = [{"SEQ": str(seq), "OUT": str(tmp_path / "out")}.get(a, a) for a in argv]
    if via == "flag":
        argv += [flag, str(value)]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({flag[2:].replace("-", "_"): value}))
        argv += ["--config", str(cfg)]
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert run(*argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    side = "least" if value < bound else "most"
    assert captured.err.startswith(
        f"usage error: {flag} must be at {side} {bound}, not {value}\n")
    assert sorted(tmp_path.iterdir()) == before


# A flag that the chosen mode does not read was once accepted and dropped:
# the run went ahead without it, and its config echo did not name it.
UNREAD_FLAGS = [
    (("gen-seq", "--variant", "raw", "--h", "3", "--seed", "1", "--n", "10", "--out", "OUT"),
     "--h", "--variant raw"),
    (("sweep", "--h", "1", "--seq", "SEQ", "--seq-variant", "Fprime", "--samples", "2",
      "--out", "OUT"), "--seq-variant", "--seq"),
    (("sweep", "--seq", "SEQ", "--h", "1", "--seq-seed", "4", "--samples", "2",
      "--out", "OUT"), "--seq-seed", "--seq"),
    (("verify", "--check", "spec", "--gambler", "parity:h=2", "--depth", "3"),
     "--depth", "--check spec"),
    (("verify", "--check", "martingale", "--gambler", "parity:h=2", "--n-max", "7"),
     "--n-max", "--check martingale"),
    (("verify", "--check", "martingale", "--gambler", "uniform", "--h", "2"),
     "--h", "--check martingale"),
    (("verify", "--check", "parity", "--h", "2", "--gambler", "uniform"),
     "--gambler", "--check parity"),
    (("verify", "--check", "parity", "--h", "2", "--depth", "4"), "--depth", "--check parity"),
    (("verify", "--check", "speeds", "--gambler", "uniform", "--variant", "F"),
     "--variant", "--check speeds"),
]


@pytest.mark.parametrize("argv, flag, mode", UNREAD_FLAGS,
                         ids=[" ".join(case[0][:3]) + f" {case[1]}" for case in UNREAD_FLAGS])
def test_a_flag_the_mode_does_not_read_exits_64_before_any_output(tmp_path, capsys,
                                                                  argv, flag, mode):
    seq = tmp_path / "y.seq"
    assert run("gen-seq", "--variant", "F", "--h", "1", "--seed", "1",
               "--n", "100", "--out", str(seq)) == 0
    argv = [{"SEQ": str(seq), "OUT": str(tmp_path / "out")}.get(a, a) for a in argv]
    capsys.readouterr()
    assert run(*argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: {flag} is not read by {mode}\n")
    assert sorted(tmp_path.iterdir()) == [seq]


# A string where a list of flags belongs was once read as its characters:
# one s-gale column per digit, or one gambler file per letter.
@pytest.mark.parametrize("argv, entry", [
    (("simulate", "--gambler", "parity:h=2", "--seq", "SEQ", "--out", "OUT"),
     {"sgale": "12"}),
    (("sweep", "--h", "1", "--n", "100", "--samples", "2", "--out", "OUT"),
     {"include": "parity:h=1"}),
    (("estimate-dim", "--seq", "SEQ", "--out", "OUT"), {"gambler": "uniform"}),
], ids=["sgale", "include", "gambler"])
def test_a_config_string_for_a_list_option_exits_64_before_any_output(tmp_path, capsys,
                                                                       argv, entry):
    seq, cfg = tmp_path / "y.seq", tmp_path / "cfg.json"
    assert run("gen-seq", "--variant", "F", "--h", "2", "--seed", "1",
               "--n", "100", "--out", str(seq)) == 0
    cfg.write_text(json.dumps(entry))
    argv = [{"SEQ": str(seq), "OUT": str(tmp_path / "out")}.get(a, a) for a in argv]
    capsys.readouterr()
    assert run(*argv, "--config", str(cfg)) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    (name, value), = entry.items()
    assert captured.err.startswith(f"usage error: bad list for --{name}: {value!r}\n")
    assert sorted(tmp_path.iterdir()) == [cfg, seq]


@pytest.mark.parametrize("argv, entry", [
    (("gen-seq", "--variant", "raw", "--seed", "1", "--n", "10", "--out", "OUT"), {"h": 3}),
    (("verify", "--check", "spec", "--gambler", "parity:h=2"), {"depth": 3}),
])
def test_a_config_entry_the_mode_does_not_read_is_ignored(tmp_path, capsys, argv, entry):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entry))
    argv = [str(tmp_path / "out") if a == "OUT" else a for a in argv]
    assert run(*argv, "--config", str(cfg)) == 0
    echoed = json.loads(capsys.readouterr().out.splitlines()[0][len("# config "):])
    assert all(echoed.get(key) is None for key in entry)
