"""The four benchmark workloads: their seeded inputs, operations and checks.

Each workload builds its inputs from the seed in ``__init__`` (this is part
of the measured set-up), runs one warm-up operation on inputs outside the
timed list, hands out the timed operations in rounds, and checks every
result afterwards against a computation made apart from the program (see
``reference.py``).  No timed operation repeats the inputs of an earlier one,
so a result cache in the program can never serve one.

A round is a fixed mix of operation sizes in seeded order: one operation
where sizes barely differ, one cutoff per band in euler-product, the whole
pair family in lattice-count.  A run attempts whole rounds only, so every
run sees the same mix whatever its seed.

``verify`` returns one status per operation:

* ``OK``     -- the result passed every check;
* ``KNOWN``  -- the check fails through the fault in ``c_constants``'s
               reported c_0 error (counted as failed; see README);
* ``WRONG``  -- any other failed check or exception (counted as failed, and
               the run reports ``correct: false``).
"""

from __future__ import annotations

import math

import numpy as np

import reference as ref
# timed calls go through the module attributes, so that a traced run's
# wrappers (tracing.py) see them
from qdl import dedekind, experiments, expsums, singular
from qdl.cyclotomic import CycInt
from qdl.experiments import ArchWeight, ExperimentConfig
from qdl.residues import IntPoly
from qdl.weights import make_bump

OK, KNOWN, WRONG = "ok", "known-fault", "wrong"


def _capacity(seconds: float, rounds_per_s: float) -> int:
    """Rounds to build: enough for a machine well over the measured speed."""
    return max(8, math.ceil(seconds * rounds_per_s))


class ExpsumGeneric:
    """s1_fast(a1, a2; 21) with M = 1: the generic (Smith form) path."""

    name = "expsum-generic"
    Q = 21
    COORD = 8            # alpha coordinates in [-COORD, COORD]
    ROUNDS_PER_S = 30.0  # one operation per round; measured 8-18/s
    TOL = 1e-8           # the oracle tolerance of the acceptance suite

    def __init__(self, seed: int, seconds: float):
        rng = np.random.default_rng([seed, 1])
        n = _capacity(seconds, self.ROUNDS_PER_S) + 1
        seen: set = set()
        inputs = []
        while len(inputs) < n:
            a = tuple(int(x) for x in rng.integers(-self.COORD, self.COORD + 1, 8))
            if a not in seen:
                seen.add(a)
                inputs.append((CycInt(*a[:4]), CycInt(*a[4:])))
        self.cong = expsums.CongruenceData.trivial()
        self._warm, inputs = inputs[-1], inputs[:-1]
        self.rounds = [[x] for x in inputs]

    def warmup(self):
        self.run(self._warm)

    def run(self, op):
        return expsums.s1_fast(op[0], op[1], self.Q, self.cong).value

    def verify(self, ops, results):
        """S1(q) = S1(3) S1(7), each factor a literal residue-pair sum."""
        factors = [ref.S1Literal(p) for p in (3, 7)]
        statuses, nonzero = [], 0
        for (a1, a2), got in zip(ops, results):
            want = np.prod([f(a1.coords(), a2.coords()) for f in factors])
            statuses.append(OK if abs(got - want) <= self.TOL else WRONG)
            nonzero += abs(want) > self.TOL
        return statuses, {"nonzero_share": nonzero / max(len(ops), 1)}


class LatticeCount:
    """One weight pair of criterion 9's M = 2 leg per operation: the lattice
    count theorem2_lhs plus sigma_infinity for that pair.

    The lattice count of one pair costs from 0.5x to 2x the median, so a run
    that sampled pairs would inherit that spread.  Instead every round runs
    all PAIRS pairs of one fixed family, each at its own scale
    (X1, X2) = (9 t, 9 / t) from a grid of SCALES values of t; pair j takes
    scale index (STEP j + r) in round r, so a round spreads its scales over
    the whole grid and no (pair, scale) input repeats.  The seed orders the
    rounds and the pairs within them and picks the Monte Carlo seeds.
    """

    name = "lattice-count"
    PAIRS = 12
    SCALES = 48          # at most SCALES rounds; measured 0.7-1.5 rounds/s
    STEP = SCALES // PAIRS
    LOG_T = 0.1          # log t evenly spaced in [-LOG_T, LOG_T]
    SIGMA_SAMPLES = 250
    REF_SAMPLES = 500
    SIGMA_Z = 6.0        # sigma_inf agreement in combined standard errors

    def __init__(self, seed: int, seconds: float):
        rng = np.random.default_rng([seed, 2])
        self.pairs = ArchWeight.rotated_generic_pairs(self.PAIRS + 1)
        ts = np.exp(np.linspace(-self.LOG_T, self.LOG_T, self.SCALES))
        scales = [(9.0 * float(t), 9.0 / float(t)) for t in ts]
        # distinct Monte Carlo seeds, one per operation
        sigma_seed = iter(int(rng.integers(2 ** 31)) + np.arange(self.SCALES * self.PAIRS + 1))
        self.rounds = [[(int(j), scales[(self.STEP * j + r) % self.SCALES], int(next(sigma_seed)))
                        for j in rng.permutation(self.PAIRS)]
                       for r in rng.permutation(self.SCALES)]
        self._warm = (self.PAIRS, (9.0, 9.0), int(next(sigma_seed)))

    def warmup(self):
        self.run(self._warm)

    def _config(self, scale):
        return ExperimentConfig(X1=scale[0], X2=scale[1], M=2,
                                beta1p=(1, 0, 0, 0), beta2p=(1, 0, 0, 0))

    def run(self, op):
        j, scale, seed = op
        phi1, phi2 = self.pairs[j]
        lhs = experiments.theorem2_lhs(self._config(scale), phi1, phi2)
        s_inf = experiments.sigma_infinity(phi1, phi2, self.SIGMA_SAMPLES, seed)
        return lhs, s_inf

    def verify(self, ops, results):
        """lhs equals a numpy enumeration of both support boxes; sigma_inf
        agrees with the swapped integral sigma_inf(phi2, phi1) computed apart."""
        statuses, nonzero = [], 0
        for (j, scale, seed), (lhs, (s, se)) in zip(ops, results):
            phi1, phi2 = self.pairs[j]
            cfg = self._config(scale)
            want = ref.lattice_count(phi1, phi2, cfg.X1, cfg.X2, cfg.M,
                                     cfg.beta1p, cfg.beta2p)
            lhs_ok = abs(lhs - want) <= 1e-12 * abs(want)
            s2, se2 = ref.sigma_infinity(phi2, phi1, self.REF_SAMPLES, seed + 2 ** 32)
            sig_ok = abs(s - s2) <= self.SIGMA_Z * math.hypot(se, se2)
            statuses.append(OK if lhs_ok and sig_ok else WRONG)
            nonzero += want > 0
        return statuses, {"nonzero_lhs_share": nonzero / max(len(ops), 1)}


class EulerProduct:
    """c_constants("euler-product", P) at a distinct prime cutoff P per op.

    The cost grows with the number of primes up to P, so the cutoffs are
    split into STRATA equal bands and each round takes one unused cutoff
    from every band.  The rho_prime_power cache is shared across operations,
    as it is within one process of a user.
    """

    name = "euler-product"
    P0 = 50            # cutoffs lie in [P0, P0 + STRATA * WIDTH)
    STRATA = 4
    WIDTH = 90         # at most WIDTH rounds; measured 1.4-3.5 rounds/s

    def __init__(self, seed: int, seconds: float):
        rng = np.random.default_rng([seed, 3])
        strata = [self.P0 + k * self.WIDTH + rng.permutation(self.WIDTH)
                  for k in range(self.STRATA)]
        self.rounds = [[int(strata[k][r]) for k in rng.permutation(self.STRATA)]
                       for r in range(self.WIDTH)]
        self._warm = self.P0 - 1

    def warmup(self):
        self.run(self._warm)

    def run(self, P):
        return singular.c_constants("euler-product", P)

    def verify(self, ops, results):
        """c_{-1} and c_0 within the reported errors of their limits; a c_0
        miss is the known fault of the reported c_0 error."""
        lim = ref.laurent_limits()
        statuses, ratios = [], []
        for P, r in zip(ops, results):
            if abs(r["c_minus1"] - lim["c_minus1"]) > r["c_minus1_error"]:
                statuses.append(WRONG)
                continue
            gap = abs(r["c_0"] - lim["c_0"])
            ratios.append(gap / r["c_0_error"])
            statuses.append(OK if gap <= r["c_0_error"] else KNOWN)
        info = {"c_minus1_limit": lim["c_minus1"], "c_0_limit": lim["c_0"]}
        if ratios:
            info["c_0_gap_over_reported_error_median"] = float(np.median(ratios))
        return statuses, info


class Rankin:
    """rankin_partial(d1, d2, 500, B=1) for a distinct seeded pair of S3
    cubics, with criterion 11's weight phi = bump on (1, 2)."""

    name = "rankin"
    Q = 500
    COEF = 9             # cubic coefficients in [-COEF, COEF]
    ROUNDS_PER_S = 40.0  # one operation per round; measured 14-23/s
    TOL = 1e-9

    def __init__(self, seed: int, seconds: float):
        rng = np.random.default_rng([seed, 4])
        n = _capacity(seconds, self.ROUNDS_PER_S) + 1
        self.phi = make_bump(1.0, 2.0, "plain")
        seen: set = set()
        cubics = []
        while len(cubics) < 2 * n:
            c = tuple(int(x) for x in rng.integers(-self.COEF, self.COEF + 1, 4))
            if c[3] == 0 or c in seen:
                continue
            seen.add(c)
            desc = dedekind.classify(IntPoly(*c))
            if desc.galois_type == "S3":
                cubics.append((c, desc))
        ops = [(cubics[2 * i], cubics[2 * i + 1]) for i in range(n)]
        self._warm, ops = ops[-1], ops[:-1]
        self.rounds = [[x] for x in ops]

    def warmup(self):
        self.run(self._warm)

    def run(self, op):
        (_, d1), (_, d2) = op
        return dedekind.rankin_partial(d1, d2, self.Q, 1, self.phi)

    def verify(self, ops, results):
        """The sum again, with lambda(p) from a vectorized root count."""
        statuses = []
        for ((c1, _), (c2, _)), got in zip(ops, results):
            want = ref.rankin_sum(c1, c2, self.Q, self.phi)
            statuses.append(OK if abs(got - want) <= self.TOL * max(1.0, abs(want))
                            else WRONG)
        return statuses, {}


WORKLOADS = {w.name: w for w in (ExpsumGeneric, LatticeCount, EulerProduct, Rankin)}
