"""Recovering a diamond sublattice from its image under a surjection.

Given a lattice epimorphism onto the canonical 5-element diamond and
preimages of the three atoms, the pipeline runs the standard repair
sequence: stabilise the two side preimages against each other, absorb
their meet into the first, project everything into the generated
interval, then take the classical double-primed triple.  On inputs whose
relevant interval is modular this always lands on a diamond mapping back
onto the atoms; on raw nonmodular lattices it can fail, and the report
records the failing stage rather than raising, because that failure is
informative.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .lattice import _scan, beta_gamma_iteration, is_modular
from .limits import CongforgeError

STAGES = ("stabilize", "adjoin_meet", "prime", "double_prime", "verify")


class NotSurjectiveError(CongforgeError):
    pass


class ImageMismatchError(CongforgeError):
    pass


class NotModularError(CongforgeError):
    pass


@dataclass
class M3WitnessReport:
    input_triple: tuple
    m: int | None = None
    adjusted_triple: tuple | None = None
    final_triple: tuple | None = None
    bottom: int | None = None
    top: int | None = None
    stages: dict = field(default_factory=dict)  # stage -> {"ok": bool, "detail": ...}
    failure_stage: str | None = None

    @property
    def success(self):
        return self.failure_stage is None

    def to_json(self):
        return json.dumps(
            {
                "input_triple": list(self.input_triple),
                "m": self.m,
                "adjusted_triple": list(self.adjusted_triple)
                if self.adjusted_triple
                else None,
                "final_triple": list(self.final_triple) if self.final_triple else None,
                "bottom": self.bottom,
                "top": self.top,
                "stages": self.stages,
                "failure_stage": self.failure_stage,
                "success": self.success,
            },
            indent=2,
        )


def _expect_canonical_m3(target):
    from .fixtures import m3

    if target != m3():
        raise ValueError("the homomorphism target must be the canonical 5-element diamond")


def m3_witness(lat, hom, alpha, beta, gamma):
    """Run the diamond-recovery pipeline for preimages of the three atoms.

    hom must be a surjection of lat onto the canonical diamond with
    hom(alpha), hom(beta), hom(gamma) the three atoms in order.  Every
    stage re-verifies that the transformed elements still map to the
    right atoms; nothing is assumed.
    """
    _expect_canonical_m3(hom.target)
    if not hom.surjective:
        raise NotSurjectiveError("the homomorphism does not cover the diamond")
    a, b, c = 1, 2, 3
    for x, img, name in ((alpha, a, "alpha"), (beta, b, "beta"), (gamma, c, "gamma")):
        if hom(x) != img:
            raise ImageMismatchError(
                "%s maps to %d, expected atom %d" % (name, hom(x), img)
            )

    J, M = lat.join, lat.meet
    report = M3WitnessReport(input_triple=(alpha, beta, gamma))

    # stage 1: iterate the side preimages to a fixpoint; at the fixpoint
    # the joins with alpha agree
    m, bm, cm = beta_gamma_iteration(lat, alpha, beta, gamma)
    report.m = m
    images_ok = hom(bm) == b and hom(cm) == c
    joins_equal = int(J[alpha, bm]) == int(J[alpha, cm])
    report.stages["stabilize"] = {
        "ok": bool(images_ok and joins_equal),
        "detail": {"m": m, "beta_m": bm, "gamma_m": cm, "joins_equal": joins_equal},
    }
    if not report.stages["stabilize"]["ok"]:
        report.failure_stage = "stabilize"
        return report
    beta, gamma = bm, cm

    # stage 2: absorb the meet of the sides so beta ^ gamma <= alpha
    alpha2 = int(J[alpha, M[beta, gamma]])
    ok = (
        hom(alpha2) == a
        and bool(lat.leq[M[beta, gamma], alpha2])
        and int(J[alpha2, beta]) == int(J[alpha2, gamma])
    )
    report.stages["adjoin_meet"] = {"ok": ok, "detail": {"alpha": alpha2}}
    if not ok:
        report.failure_stage = "adjoin_meet"
        return report
    alpha = alpha2

    # stage 3: project into the interval generated by the triple
    ap = int(M[alpha, J[beta, gamma]])
    bp = int(J[beta, M[alpha, gamma]])
    cp = int(J[gamma, M[alpha, beta]])
    report.adjusted_triple = (ap, bp, cp)
    ok = hom(ap) == a and hom(bp) == b and hom(cp) == c
    report.stages["prime"] = {"ok": ok, "detail": {"triple": [ap, bp, cp]}}
    if not ok:
        report.failure_stage = "prime"
        return report

    # stage 4: the classical double-primed triple
    app = int(J[ap, M[bp, cp]])
    bpp = int(M[bp, J[ap, cp]])
    cpp = int(M[cp, J[ap, bp]])
    report.final_triple = (app, bpp, cpp)
    ok = hom(app) == a and hom(bpp) == b and hom(cpp) == c
    report.stages["double_prime"] = {"ok": ok, "detail": {"triple": [app, bpp, cpp]}}
    if not ok:
        report.failure_stage = "double_prime"
        return report

    # stage 5: the five elements must form a diamond hitting the atoms
    meets = {int(M[app, bpp]), int(M[app, cpp]), int(M[bpp, cpp])}
    joins = {int(J[app, bpp]), int(J[app, cpp]), int(J[bpp, cpp])}
    detail = {"meets": sorted(meets), "joins": sorted(joins)}
    ok = len(meets) == 1 and len(joins) == 1
    if ok:
        o, i = meets.pop(), joins.pop()
        report.bottom, report.top = o, i
        distinct = len({o, app, bpp, cpp, i}) == 5
        ok = distinct
        detail["distinct"] = distinct
    report.stages["verify"] = {"ok": ok, "detail": detail}
    if not ok:
        report.failure_stage = "verify"
    return report


def abx_check(lat):
    """Exhaustively verify the exchange biconditional on a modular lattice:
    whenever x ^ x' <= B and x v x' >= A,
        A <= x' v (x ^ B)   iff   x ^ (x' v A) <= B.

    Holds on every modular lattice; a counterexample would indicate a bug
    and is returned as (False, (x, x', A, B)).
    """
    modular, triple = is_modular(lat)
    if not modular:
        raise NotModularError("input is not modular; witness triple %r" % (triple,))
    J, M, leq, n = lat.join, lat.meet, lat.leq, lat.size
    col = np.arange(n)[:, None]

    def violated(x):
        # axes (x, x', A, B): the hypothesis, then the two sides compared
        below_join = leq.T[J[x]][:, :, :, None]  # A <= x v x'
        above_meet = leq[M[x]][:, :, None, :]  # x ^ x' <= B
        left = leq[col, J[col, M[x][:, None, :]][:, :, None, :]]  # A <= x' v (x ^ B)
        right = leq[M[x][:, J]]  # x ^ (x' v A) <= B
        return below_join & above_meet & (left != right)

    return _scan(n, n**3, violated, first=True)
