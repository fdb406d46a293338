"""Command-line front end.

Subcommands wire the library together: sequence generation, gambler
construction and combination, simulation to trajectory CSVs, structural
verification, and the sweep / instability / dimension reports.  Every
run echoes a reproducibility line (the fully resolved configuration,
seeds included) and embeds it in whatever artifact it writes, so
re-running a printed configuration regenerates the artifact byte for
byte.

Exit codes: 0 success, 1 validation failure, 2 I/O error, 64 usage.
Flag values win over ``--config`` file entries, which win over built-in
defaults.  Subcommands raise ``ValueError`` for a validation failure and
``OSError`` for an I/O error; ``main`` turns each into its exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import analysis, constructions, core, engine, sequences

__all__ = ["main", "console_main"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_USAGE = 64

_FAMILIES = ("F", "Fprime", "Fdoubleprime")
_REQUIRED = object()

# the least value of each bounded integer option, as a flag or a config
# entry: horizons and counts may be 0, search budgets must be positive,
# and a report's growth exponents need at least one step.  A (command,
# option) entry wins over the option's own.
_LEAST = {"n": 0, "n_max": 0, "depth": 0, "samples": 0,
          "max_t": 1, "max_q": 1, "bet_denom": 1,
          ("sweep", "n"): 1, ("instability", "n"): 1, ("estimate-dim", "n"): 1}
# the greatest: ``engine.check_martingale_property`` refuses deeper trees
_MOST = {"depth": 20}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# option resolution
# ---------------------------------------------------------------------------

class _Options:
    """One run's options: a flag wins over a ``--config`` entry, which wins
    over the default.  Calling it with a name resolves that option."""

    def __init__(self, args):
        self.args, self.cfg = args, {}
        path = getattr(args, "config", None)
        if not path:
            return
        try:
            with open(path, "r", encoding="utf-8") as fh:
                self.cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise OSError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(self.cfg, dict):
            raise OSError(f"config {path} is not a JSON object")

    def __call__(self, name: str, default=_REQUIRED):
        value = getattr(self.args, name, None)
        if value is None:
            value = self.cfg.get(name, None if default is _REQUIRED else default)
        if value is None and default is _REQUIRED:
            raise _UsageError(f"missing required option --{name.replace('_', '-')}")
        return value

    def integer(self, name: str, default=_REQUIRED) -> int:
        """An integer option: an int, an integral float (a JSON ``1e5``) or
        a decimal string; a boolean, a fractional float or a value outside
        the option's ``_LEAST`` and ``_MOST`` is refused."""
        value, flag = self(name, default), "--" + name.replace("_", "-")
        try:
            number = int(value)
        except (TypeError, ValueError, OverflowError):  # a list, "x", inf
            number = None
        if (number is None or isinstance(value, bool)
                or isinstance(value, float) and number != value):
            raise _UsageError(f"bad integer for {flag}: {value!r}")
        least = _LEAST.get((self.args.command, name), _LEAST.get(name, number))
        if number < least:
            raise _UsageError(f"{flag} must be at least {least}, not {number}")
        if number > _MOST.get(name, number):
            raise _UsageError(f"{flag} must be at most {_MOST[name]}, not {number}")
        return number

    def out(self):
        """The ``--out`` path, checked before any computation starts."""
        path = self("out")
        parent = os.path.dirname(os.path.abspath(str(path))) or "."
        if not os.path.isdir(parent):
            raise OSError(f"output directory does not exist: {parent}")
        return path


def _fraction(text, what: str):
    try:
        return core.parse_rational(str(text))
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise _UsageError(f"bad rational for {what}: {text!r}") from exc


def _echo(config: dict) -> None:
    print("# config " + json.dumps(config, sort_keys=True))


def _verdict(ok: bool, passed: str, failed: str) -> int:
    print(passed if ok else failed)
    return EXIT_OK if ok else EXIT_VALIDATION


# ---------------------------------------------------------------------------
# artifact loading
# ---------------------------------------------------------------------------

def _load_sequence(opt: _Options) -> tuple[sequences.FileSource, int]:
    """The ``--seq`` file and ``--n`` (by default the file's length),
    refused before any work when the file is shorter."""
    try:
        src = sequences.read_sequence(opt("seq"))
    except ValueError as exc:  # a malformed file is an i/o error
        raise OSError(str(exc)) from exc
    n = opt.integer("n", src.length)
    if n > src.length:
        raise ValueError(f"sequence {src.path} holds {src.length} symbols, not {n}")
    return src, n


# Gambler kinds, shared by ``build-gambler --kind`` and the shorthands;
# each builder reads its parameters from a dict of strings or ints.
_KINDS = {
    "parity": lambda p: constructions.build_parity_gambler(int(p["h"])),
    "fprime": lambda p: constructions.build_variant_gambler(int(p["h"]), "Fprime"),
    "fdoubleprime":
        lambda p: constructions.build_variant_gambler(int(p["h"]), "Fdoubleprime"),
    "uniform": lambda p: constructions.uniform_gambler(int(p.get("k", 2))),
    "allin": lambda p: constructions.single_minded_gambler(
        int(p.get("sym", 0)), int(p.get("k", 2))),
}


def _build(kind, params: dict) -> core.GamblerSpec:
    if kind not in _KINDS:
        raise _UsageError(f"unknown gambler kind {kind!r}")
    return _KINDS[kind](params)


def _read_gambler(ref: str) -> core.GamblerSpec:
    """A gambler file path, or a shorthand like ``parity:h=2``; unvalidated."""
    kind, sep, rest = ref.partition(":")
    # kinds with no required parameter may be named bare
    if not sep and kind not in ("uniform", "allin"):
        try:
            return core.load_gambler(ref)
        except (ValueError, KeyError, TypeError) as exc:
            raise OSError(f"malformed gambler file {ref}: {exc}") from exc
    params = {key.strip(): value.strip() for key, _, value in
              (part.partition("=") for part in rest.split(",") if part)}
    try:
        return _build(kind, params)
    except (KeyError, ValueError) as exc:
        raise _UsageError(f"bad gambler shorthand {ref!r}: {exc}") from exc


def _valid(spec: core.GamblerSpec, what: str) -> core.GamblerSpec:
    report = core.validate_gambler(spec)
    if not report.ok:
        raise ValueError(f"{what}: {report}")
    return spec


def _gambler(ref: str) -> core.GamblerSpec:
    return _valid(_read_gambler(ref), f"invalid gambler {ref}")


def _write_gambler(spec: core.GamblerSpec, out, config: dict) -> int:
    _echo(config)
    core.save_gambler(spec, out, config=config)
    print(f"wrote {spec.label()} ({spec.head_count} heads) to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_gen_seq(opt: _Options) -> int:
    variant = opt("variant", "F")
    seed, n = opt.integer("seed"), opt.integer("n")
    out = opt.out()
    src = sequences.prng_source(seed)
    h = None if variant == "raw" else opt.integer("h")
    if h is not None:
        src = sequences.f_family(h, variant, src)
    _echo({"command": "gen-seq", "variant": variant, "h": h,
           "seed": seed, "n": n, "out": str(out)})
    sequences.write_sequence(src, n, out)
    print(f"wrote {n} symbols of {src.describe()} to {out}")
    return EXIT_OK


def _cmd_build_gambler(opt: _Options) -> int:
    kind = str(opt("kind"))
    out = opt.out()
    config = {"command": "build-gambler", "kind": kind, "out": str(out)}
    params = {}
    if kind == "allin":
        params["sym"] = config["symbol"] = opt.integer("symbol", 0)
    elif kind != "uniform":
        params["h"] = config["h"] = opt.integer("h")
    spec = _build(kind, params)
    _valid(spec, f"built gambler {spec.label()} failed validation")
    return _write_gambler(spec, out, config)


def _cmd_combine(opt: _Options) -> int:
    g1_ref, g2_ref = str(opt("g1")), str(opt("g2"))
    eps = _fraction(opt("epsilon"), "--epsilon")
    out = opt.out()
    combined = constructions.average_gamblers(
        _gambler(g1_ref), _gambler(g2_ref), eps)
    _valid(combined, "combined gambler failed validation")
    return _write_gambler(combined, out, {
        "command": "combine", "g1": g1_ref, "g2": g2_ref,
        "epsilon": str(eps), "out": str(out)})


def _cmd_simulate(opt: _Options) -> int:
    gambler_ref, seq_path = str(opt("gambler")), opt("seq")
    mode = opt("mode", "log2")
    out = opt.out()
    sgales = opt("sgale", []) or []
    spec = _gambler(gambler_ref)
    src, n = _load_sequence(opt)
    s_values = [(str(s), _fraction(s, "--sgale")) for s in sgales]
    config = {"command": "simulate", "gambler": gambler_ref,
              "seq": str(seq_path), "n": n, "mode": mode,
              "sgale": [str(s) for s in sgales], "out": str(out)}
    # run before the echo, so that a horizon or an alphabet the run
    # refuses is refused before anything is printed
    trace = engine.run_martingale(spec, src, n, mode=mode)
    _echo(config)
    with open(out, "w", encoding="utf-8", newline="") as fh:
        engine.write_trajectory_csv(trace, fh, s_values, config=config)
    final = trace.final_capital.bits
    print(f"final log2 capital after {n} steps: "
          f"{'-inf' if final == core.BANKRUPT_LOG2 else final}")
    return EXIT_OK


def _cmd_verify(opt: _Options) -> int:
    check = opt("check")
    config = {"command": "verify", "check": check}

    if check == "parity":
        h = opt.integer("h")
        variant = opt("variant", "F")
        n, seed = opt.integer("n", 10_000), opt.integer("seed", 1)
        src = sequences.f_family(h, variant, sequences.prng_source(seed))
        config.update({"h": h, "variant": variant, "n": n, "seed": seed})
        _echo(config)
        result = sequences.verify_parity_structure(h, src, n)
        return _verdict(
            result.ok,
            f"parity structure verified on {src.describe()} up to index {n}",
            f"parity structure violated at block q={result.first_violation}")
    if check not in ("spec", "martingale", "speeds"):
        raise _UsageError(f"unknown check {check!r}")

    gambler_ref = config["gambler"] = str(opt("gambler"))
    if check == "spec":
        # the file is loaded unvalidated: listing its violations is the check
        report = core.validate_gambler(_read_gambler(gambler_ref))
        _echo(config)
        return _verdict(report.ok, "gambler is structurally valid",
                        "\n".join(f"violation {v}" for v in report))

    # validated first: an unknown transition target would make either
    # check raise instead of answering
    spec = _gambler(gambler_ref)
    if check == "martingale":
        depth = config["depth"] = opt.integer("depth", 10)
        _echo(config)
        return _verdict(engine.check_martingale_property(spec, depth),
                        f"fair-betting identity holds to depth {depth}",
                        f"fair-betting identity violated below depth {depth}")
    n_max = config["n_max"] = opt.integer("n_max", 100_000)
    _echo(config)
    return _verdict(engine.check_speed_bounds(spec, n_max),
                    f"head positions stay within the bound for all n <= {n_max}",
                    f"head positions stray beyond the bound before n={n_max}")


def _cmd_sweep(opt: _Options) -> int:
    h = opt.integer("h")
    out = opt.out()
    if h < 1:  # as ``f_family`` refuses it, also for a --seq file
        raise ValueError("h must be at least 1")
    if opt("seq", None):
        src, n = _load_sequence(opt)
    else:
        n = opt.integer("n")
        src = sequences.f_family(h, opt("seq_variant", "F"),
                                 sequences.prng_source(opt.integer("seq_seed", 1)))
    budget = analysis.SweepBudget(
        max_t=opt.integer("max_t", 4),
        max_q=opt.integer("max_q", 6),
        bet_denominator_max=opt.integer("bet_denom", 8),
        samples=opt.integer("samples", 500),
        seed=opt.integer("rng_seed", 0),
    )
    include_refs = opt("include", []) or []
    include = [_gambler(str(ref)) for ref in include_refs]
    _echo({"command": "sweep", "h": h, "n": n, "seq": src.describe(),
           "budget": budget.to_obj(), "include": [str(r) for r in include_refs],
           "out": str(out)})
    report = analysis.adversarial_sweep(h, src, n, budget, include=include)
    analysis.write_jsonl(out, report.to_objs())
    print(f"max sampled exponent: "
          f"{analysis.encode_float(report.max_sampled_exponent)} "
          f"(best overall: {report.best_overall_id})")
    return EXIT_OK


def _cmd_instability(opt: _Options) -> int:
    h, seed, n = opt.integer("h"), opt.integer("seed"), opt.integer("n")
    eps = _fraction(opt("epsilon", "1/10"), "--epsilon")
    out = opt.out()
    if h < 2:  # refused before the config is echoed, like any other bad input
        raise ValueError("instability needs h >= 2 (two distinct variants)")
    _echo({"command": "instability", "h": h, "seed": seed, "n": n,
           "epsilon": str(eps), "out": str(out)})
    report = analysis.instability_experiment(h, seed, n, eps)
    analysis.write_jsonl(out, report.to_objs())
    for tag in ("fprime", "fdoubleprime"):
        row = report.matrix[tag]
        print(f"{tag}: X={analysis.encode_float(row['X'])} "
              f"Z={analysis.encode_float(row['Z'])}")
    print(f"averaged: X={analysis.encode_float(report.averaged['X'])} "
          f"Z={analysis.encode_float(report.averaged['Z'])}")
    return EXIT_OK


def _cmd_estimate_dim(opt: _Options) -> int:
    seq_path = opt("seq")
    gambler_refs = opt("gambler", []) or []
    if not gambler_refs:
        raise _UsageError("estimate-dim needs at least one --gambler")
    out = opt.out()
    src, n = _load_sequence(opt)
    gamblers = [_gambler(str(ref)) for ref in gambler_refs]
    _echo({"command": "estimate-dim", "seq": str(seq_path), "n": n,
           "gambler": [str(r) for r in gambler_refs], "out": str(out)})
    report = analysis.estimate_predim_upper(src, gamblers, n)
    analysis.write_jsonl(out, report.to_objs())
    print(f"aggregate upper bound: {report.aggregate}")
    return EXIT_OK


def _cmd_report(opt: _Options) -> int:
    path = opt("infile")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = [json.loads(line) for line in fh if line.strip()]
        except json.JSONDecodeError as exc:
            raise OSError(f"malformed report {path}: {exc}") from exc
    if not all(isinstance(obj, dict) for obj in lines):
        raise OSError(f"malformed report {path}: a line is not a JSON object")
    runs = [obj for obj in lines if obj.get("type") == "run"]
    for obj in lines:
        if obj.get("type") == "config":
            print("config: " + json.dumps(obj, sort_keys=True))
    print(f"{len(runs)} runs")
    for obj in runs:
        fields = (f"{key}={value if isinstance(value, str) else json.dumps(value)}"
                  for key, value in obj.items()
                  if key not in ("type", "gambler_id", "seq_id"))
        print(f"  {obj.get('gambler_id')} on {obj.get('seq_id')}: " + " ".join(fields))
    for obj in lines:
        if obj.get("type") == "summary":
            print("summary: " + json.dumps(obj, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="galelab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    configured = argparse.ArgumentParser(add_help=False)
    configured.add_argument("--config")
    writes = argparse.ArgumentParser(add_help=False, parents=[configured])
    writes.add_argument("--out")

    def command(name, func, summary, *int_flags, parents=(writes,)):
        p = sub.add_parser(name, help=summary, parents=list(parents))
        for flag in int_flags:
            p.add_argument(flag, type=int)
        p.set_defaults(func=func)
        return p

    p = command("gen-seq", _cmd_gen_seq, "generate a sequence file",
                "--h", "--seed", "--n")
    p.add_argument("--variant", choices=_FAMILIES + ("raw",))

    p = command("build-gambler", _cmd_build_gambler, "build and save a gambler",
                "--h", "--symbol")
    p.add_argument("--kind", choices=tuple(_KINDS))

    p = command("combine", _cmd_combine, "average two gamblers into one")
    for flag in ("--g1", "--g2", "--epsilon"):
        p.add_argument(flag)

    p = command("simulate", _cmd_simulate, "run a gambler over a sequence file",
                "--n")
    p.add_argument("--gambler")
    p.add_argument("--seq")
    p.add_argument("--mode", choices=("log2", "exact"))
    p.add_argument("--sgale", action="append")

    p = command("verify", _cmd_verify, "structural and cross checks",
                "--depth", "--n-max", "--h", "--seed", "--n",
                parents=(configured,))
    p.add_argument("--check", choices=("spec", "martingale", "speeds", "parity"))
    p.add_argument("--gambler")
    p.add_argument("--variant", choices=_FAMILIES)

    p = command("sweep", _cmd_sweep, "sample random gamblers against a sequence",
                "--h", "--n", "--seq-seed", "--samples", "--max-t", "--max-q",
                "--bet-denom", "--rng-seed")
    p.add_argument("--seq")
    p.add_argument("--seq-variant", choices=_FAMILIES)
    p.add_argument("--include", action="append")

    p = command("instability", _cmd_instability,
                "variant winners across both variants", "--h", "--seed", "--n")
    p.add_argument("--epsilon")

    p = command("estimate-dim", _cmd_estimate_dim,
                "witness-based dimension upper bound", "--n")
    p.add_argument("--seq")
    p.add_argument("--gambler", action="append")

    p = command("report", _cmd_report, "summarize a JSON-lines report",
                parents=())
    p.add_argument("--in", dest="infile", required=True)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        return args.func(_Options(args))
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (OSError, sequences.SourceExhausted) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
