"""Analytic model chain for actively Q-boosted split-ring sensing pixels:
ring-on-line coupling and matching, compression, noise propagation, SNR
budgeting, and a design synthesizer, with independent numerical verifiers
for every closed form."""

__version__ = "0.1.0"
