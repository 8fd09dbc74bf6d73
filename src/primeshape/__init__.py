"""Probabilistic shaping toolkit for prime-field constellations.

Covers exact symbol-sum distributions over F_p, Maxwell-Boltzmann
shaping of ASK and circular-QAM alphabets, constant-composition
distribution matching, AWGN mutual-information evaluation, SNR-gap
optimization, and systematic shaping chains.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
