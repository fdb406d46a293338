"""Multihead finite-state gamblers and parity-derived sequence families.

A library for simulating finite-state betting devices with several
oblivious reading heads, generating the prime-indexed parity sequence
families they exploit, building the explicit winning gamblers and the
capital-averaging combinator, and measuring capital growth exactly or in
the log domain.
"""

from .core import (
    Alphabet,
    GamblerSpec,
    ProbVector,
    PositionalState,
    BettingState,
    ValidationReport,
    Violation,
    validate_gambler,
    gambler_to_json,
    gambler_from_json,
    save_gambler,
    load_gambler,
)
from .sequences import (
    ExpansionSet,
    SequenceSource,
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
from .engine import (
    RunTrace,
    SpeedProfile,
    check_martingale_property,
    check_speed_bounds,
    measure_speeds,
    positions,
    run_martingale,
    sgale_log2,
    success_exponent,
    window_exponents,
    write_trajectory_csv,
)
from .constructions import (
    AveragingAudit,
    average_gamblers,
    averaging_audit,
    build_parity_gambler,
    build_variant_gambler,
    round_dyadic,
    rounding_resolution,
    single_minded_gambler,
    uniform_gambler,
)
from .analysis import (
    DimensionReport,
    InstabilityReport,
    SweepBudget,
    SweepReport,
    adversarial_sweep,
    estimate_predim_upper,
    instability_experiment,
)

__version__ = "0.1.0"
