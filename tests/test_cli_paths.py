"""Output paths are validated before any computation starts."""

import pytest

from galelab import cli


def test_bad_output_directory_fails_fast(tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "y.seq"
    rc = cli.main(["gen-seq", "--variant", "F", "--h", "2", "--seed", "1",
                   "--n", "100000000", "--out", str(missing)])
    # n here is the full prefix cap; failing fast is the only way this
    # test returns promptly
    assert rc == 2


def test_bad_report_directory_fails_fast(tmp_path):
    rc = cli.main(["instability", "--h", "2", "--seed", "1", "--n", "100000",
                   "--epsilon", "1/10",
                   "--out", str(tmp_path / "void" / "r.jsonl")])
    assert rc == 2


WRITERS = {
    "gen-seq": ["--variant", "F", "--h", "2", "--seed", "1", "--n", "100"],
    "build-gambler": ["--kind", "parity", "--h", "1"],
    "combine": ["--g1", "fprime:h=2", "--g2", "fdoubleprime:h=2",
                "--epsilon", "1/10"],
    "simulate": ["--gambler", "parity:h=2", "--seq", "{seq}"],
    "sweep": ["--h", "1", "--n", "200", "--samples", "2"],
    "instability": ["--h", "2", "--seed", "1", "--n", "200"],
    "estimate-dim": ["--seq", "{seq}", "--gambler", "uniform"],
}


@pytest.mark.parametrize("command", sorted(WRITERS))
def test_output_path_that_is_a_directory_exits_2(tmp_path, capsys, command):
    seq = tmp_path / "y.seq"
    assert cli.main(["gen-seq", "--variant", "F", "--h", "2", "--seed", "1",
                     "--n", "500", "--out", str(seq)]) == 0
    out = tmp_path / "taken"
    out.mkdir()
    argv = [a.replace("{seq}", str(seq)) for a in WRITERS[command]]
    capsys.readouterr()
    assert cli.main([command, *argv, "--out", str(out)]) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ")
    assert str(out) in err
