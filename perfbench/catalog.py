"""The fixed job catalog the analyze workloads draw from.

The catalog is finite and built without a seed, so every job in it has a
report digest recorded in ``digests.json``; a seed only chooses which
catalog jobs a run uses and in what order.

* ``BODY``: Brieskorn-Pham (BP) equations ``z0^p + z1^q + z2^r`` with cover
  order ``l = lcm(p, q, r) <= 60``, and a few non-diagonal chain equations
  ``z0^p + z0*z1^q + z1*z2^r``.  Each comes with three numerators: ``1``, a
  witness monomial ``z^k`` for the criterion when it fails (which makes the
  verdict OBSTRUCTED), and a mixed-weight power ``(1+z0+z1+z2)^m`` that
  exercises the parser and the quasihomogeneous decomposition.
* ``TAIL``: pairwise coprime BP exponents with ``l`` in the thousands.
* ``HEAVY``: the largest BP systems, up to ``(23, 29, 31)`` with
  ``l = 20677``; they run once per analyze-bp run, in its first round.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

VARIABLES = ("z0", "z1", "z2")


@dataclass(frozen=True)
class Job:
    """One analyze job: equation, numerator and weights as the job file holds them."""

    job_id: str
    s: str
    g: str
    weights: Tuple[Fraction, ...]
    # exponent vectors of g's terms; all coefficients are positive, so no
    # term cancels and the weighted degrees below are exactly g's
    g_exponents: Tuple[Tuple[int, ...], ...]

    def payload(self) -> dict:
        return {
            "variables": list(VARIABLES),
            "weights": [str(a) for a in self.weights],
            "s": self.s,
            "g": self.g,
        }

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.payload(), handle)

    @property
    def cover_order(self) -> int:
        return math.lcm(*(a.denominator for a in self.weights))


def brute_witness(weights, target: Fraction) -> Optional[Tuple[int, ...]]:
    """Exhaustive search for k >= 0 with sum k_i a_i == target.

    Every k_0..k_{n-2} up to its bound is tried; the last coordinate is the
    one value that could close the sum.
    """
    if target < 0:
        return None
    *head, last = weights
    for k in itertools.product(*(range(int(target / a) + 1) for a in head)):
        rest = target - sum((c * a for c, a in zip(k, head)), Fraction(0))
        if rest >= 0 and (rest / last).denominator == 1:
            return k + (int(rest / last),)
    return None


def _monomial(k) -> str:
    parts = [f"{v}^{e}" if e > 1 else v for v, e in zip(VARIABLES, k) if e]
    return "*".join(parts) if parts else "1"


def _power_exponents(m: int):
    return tuple(
        e for e in itertools.product(range(m + 1), repeat=3) if sum(e) <= m
    )


def _jobs_for(name: str, s: str, weights, mixed_power: int) -> List[Job]:
    kappa = sum(weights, Fraction(0))
    jobs = [Job(f"{name}-one", s, "1", weights, ((0, 0, 0),))]
    witness = brute_witness(weights, 1 - kappa)
    if witness is not None and any(witness):
        jobs.append(Job(f"{name}-witness", s, _monomial(witness), weights, (witness,)))
    jobs.append(
        Job(
            f"{name}-mixed{mixed_power}",
            s,
            f"(1+z0+z1+z2)^{mixed_power}",
            weights,
            _power_exponents(mixed_power),
        )
    )
    return jobs


def _bp(p: int, q: int, r: int, mixed_power: int) -> List[Job]:
    weights = (Fraction(1, p), Fraction(1, q), Fraction(1, r))
    return _jobs_for(f"bp-{p}-{q}-{r}", f"z0^{p}+z1^{q}+z2^{r}", weights, mixed_power)


def _chain(p: int, q: int, r: int, mixed_power: int) -> List[Job]:
    a0 = Fraction(1, p)
    a1 = (1 - a0) / q
    a2 = (1 - a1) / r
    return _jobs_for(
        f"chain-{p}-{q}-{r}", f"z0^{p}+z0*z1^{q}+z1*z2^{r}", (a0, a1, a2), mixed_power
    )


def _build_body() -> List[Job]:
    jobs = []
    for p, q, r in itertools.combinations_with_replacement(range(2, 13), 3):
        if math.lcm(p, q, r) <= 60:
            jobs += _bp(p, q, r, 2 + (p + q + r) % 3)
    for p, q, r in itertools.product(range(2, 5), repeat=3):
        chain = _chain(p, q, r, 2)
        if chain[0].cover_order <= 60:
            jobs += chain
    return jobs


BODY: List[Job] = _build_body()

TAIL: List[Job] = [
    job
    for triple in [
        (7, 11, 13),
        (7, 11, 15),
        (7, 11, 16),
        (7, 12, 13),
        (7, 13, 15),
        (8, 11, 13),
        (9, 11, 13),
        (11, 13, 14),
    ]
    for job in _bp(*triple, 2)
    if job.job_id.endswith("-one")
]

HEAVY: List[Job] = [
    _bp(23, 29, 31, 2)[0],
    _bp(13, 17, 19, 2)[-1],
]

CATALOG: Dict[str, Job] = {job.job_id: job for job in BODY + TAIL + HEAVY}
