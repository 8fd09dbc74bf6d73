"""Probabilistic shaping toolkit for prime-field constellations.

Covers exact symbol-sum distributions over F_p, Maxwell-Boltzmann
shaping of ASK and circular-QAM alphabets, constant-composition
distribution matching, AWGN mutual-information evaluation, SNR-gap
optimization, and systematic shaping chains.
"""

__version__ = "0.1.0"

from .awgn_mi import capacity_gamma
from .constellations import (
    Constellation,
    CqamParams,
    ShellStructure,
    Stretch,
    build_ask,
    build_cqam,
    build_cqam_stretched,
    figure_of_merit,
    min_distance,
)
from .field import Prime, ask_amplitudes, is_prime
from .optimizer import (
    ShapingSolution,
    UnreachableRateError,
    optimize_cqam,
    optimize_shaped_ask,
    optimize_time_sharing,
    snr_for_rate,
)
from .pas import (
    CodeSpec,
    empirical_distributions,
    encode,
    generate_frames,
    map_frame,
    split_frames,
)
from .shaping import (
    CompositionPlan,
    MaxwellBoltzmann,
    ask_energy,
    ccdm_decode,
    ccdm_encode,
    cqam_prior,
    mb_ask_prior,
)
from .sumdist import (
    SymbolDistribution,
    sum_distribution_dft,
    uniformity_gap,
)

__all__ = [
    "__version__",
    "CodeSpec",
    "CompositionPlan",
    "Constellation",
    "CqamParams",
    "MaxwellBoltzmann",
    "Prime",
    "ShapingSolution",
    "ShellStructure",
    "Stretch",
    "SymbolDistribution",
    "UnreachableRateError",
    "ask_amplitudes",
    "ask_energy",
    "build_ask",
    "build_cqam",
    "build_cqam_stretched",
    "capacity_gamma",
    "ccdm_decode",
    "ccdm_encode",
    "cqam_prior",
    "empirical_distributions",
    "encode",
    "figure_of_merit",
    "generate_frames",
    "is_prime",
    "map_frame",
    "mb_ask_prior",
    "min_distance",
    "optimize_cqam",
    "optimize_shaped_ask",
    "optimize_time_sharing",
    "snr_for_rate",
    "split_frames",
    "sum_distribution_dft",
    "uniformity_gap",
]
