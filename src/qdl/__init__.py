"""Exact arithmetic in Z[zeta_8], complete exponential sums, local densities,
and desk-scale divisor-sum experiments, with brute-force oracles throughout."""

__version__ = "0.1.0"


class InvariantError(RuntimeError):
    """An internal invariant of a computation failed: a program fault, not a
    bad input.  The command line maps it to exit code 2."""
