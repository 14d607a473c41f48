"""Frozen empirical constants for the qualitative bounds the suite enforces.

Wherever a bound is stated with an unspecified implicit constant, the suite
uses a constant calibrated once on the acceptance grids and frozen here with
headroom.  These are empirical regression bounds, not proved constants; a
failure means the implementation regressed (or the grid moved), not that
mathematics broke.  Values noted "calibrated" were measured by the sweeps in
the test suite at the grids documented there.
"""

# default supports of the delta-method weights (deviates from the first-cut
# (1/2, 1) choice for omega_2: at desk scale the inner q-window must contain
# several integers for every admissible d, which forces a wider support)
OMEGA1_SUPPORT = (0.5, 2.0)
OMEGA2_SUPPORT = (0.25, 4.0)

# |N1~(p^k)| <= C * p^(2 m_p), |N1~(p^(k+1)) - N1~(p^k)| <= C * p^(4m_p - 2k - 2)
PROP63_BOUND_C = 4.0          # calibrated max ~ 1.3 (full) on the criterion grid
# calibrated on p in {2,3,5}, k <= 6, M in {1,2}; read by criterion 4 and by the
# truncated oracle of tests/test_singular.py, as sigma_p is exact at every p.
# At m_p = 0 and p = 1 (mod 8) it fails: the tail C p^(-2k-2)/(1 - p^-2) is
# 1.10-1.55x short of the true error at all 12 such p in [17, 281] (p = 17,
# k = 2: 4.84e-7 against 3.33e-7)
PROP63_DIFF_C = 8.0

# N2~(c, p^h; p^k) <= C (h+k+1) p^(2 m_p) and the matching difference bound
PROP72_BOUND_C = 4.0
PROP72_DIFF_C = 8.0

# |log G_p(1)| <= C / p^2 and |(log G_p)'(1)| <= C log p / p^2 for the corrected
# Euler factors G_p of sum rho(q) q^(-s-1) (singular.c_constants tail)
LOG_G_TAIL_C = 7.0            # calibrated max ~ 6.0 over p <= 1e6
DLOG_G_TAIL_C = 7.0           # calibrated max ~ 6.0 over p <= 1e6
