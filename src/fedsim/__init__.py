"""Deterministic federated-optimization workbench.

Implements a multi-step inertial-momentum training rule next to four
standard baselines (plain averaging, client momentum, control variates,
adaptive server), with runtime verification of the update-rule identities
and a reproducible, path-keyed randomness model.
"""
