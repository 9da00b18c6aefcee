#!/usr/bin/env python3
"""Walk through saturation of the uncertainty relations for canonical states.

Prints the star-moment matrices of (q, p) for the ground and squeezed
states, the three relation verdicts, and the annihilated combinations that
certify saturation.
"""

from fractions import Fraction

from dq import (
    check_annihilating_transform,
    check_relations,
    coordinate,
    gelfand_norm,
    ground,
    squeezed,
)
from dq.observables import constant
from dq.series import I_UNIT


def show(state, label, xs):
    checks = check_relations(state, xs)
    mm = checks.mm
    print(f"== {label} ==")
    print("covariance part a:")
    for row in mm.a:
        print("   [" + ", ".join(str(x) for x in row) + "]")
    print("skew part b:")
    for row in mm.b:
        print("   [" + ", ".join(str(x) for x in row) + "]")
    for name, r in checks.reports[:3]:
        print(f"{name:>6}: {r.relation.value:16} lhs={r.lhs} rhs={r.rhs}")
    print()
    return checks


def main():
    q = coordinate(1, "q", 1)
    p = coordinate(1, "p", 1)

    g = ground(1)
    checks = show(g, "ground state", [q, p])
    qip = q + constant(1, I_UNIT) * p
    print("rho(conj(q+ip) * (q+ip)) =", gelfand_norm(g, qip))
    print("saturation witness (u1, u2):", checks.witness)
    print()

    s = squeezed(4)
    show(s, "squeezed state (s=4)", [q, p])
    res = check_annihilating_transform(
        s, [q, p], [[Fraction(5, 4)]], [[Fraction(-3, 4)]]
    )
    print("transformed ladder annihilated:", res.all_in_ideal, "->", res.rs.relation.value)
    print()

    print("== singular covariance part: (q, p, q+p) on the ground state ==")
    direction = check_relations(g, [q, p, q + p]).direction
    print("annihilated real combination of deviations:", [str(x) for x in direction])


if __name__ == "__main__":
    main()
