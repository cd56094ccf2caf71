"""Tour of a hexagonal prism unit ball and three of its planar sections.

The ambient space is R^3 normed so that the unit ball is a right prism over
a hexagon. Its dual ball has eight extreme functionals. Depending on how a
two-dimensional subspace sits inside the prism, best coapproximations out of
it can exist everywhere, nowhere, or fail in the strongest possible sense.
"""

from fractions import Fraction

import coapprox as ca

H = Fraction(1, 2)

TOP = [(1, 0, 1), (-1, 0, 1), (H, H, 1), (-H, H, 1), (-H, -H, 1), (H, -H, 1)]
VERTICES = [p for v in TOP for p in (v, tuple(-Fraction(c) for c in v))]


def show(title, value):
    print(f"{title}: {value}")


def main():
    prism = ca.make_custom(vertices=VERTICES)
    show("dimension", prism.dim)
    show("extreme dual functionals", len(prism.dual_extreme))
    for g in prism.dual_extreme:
        print("   ", tuple(str(c) for c in g))

    census = ca.face_census(prism.vertices, prism.dual_extreme)
    show("face census (dim -> count)", census)

    print()
    print("A flat section: span{e1, e2}")
    flat = ca.subspace([(1, 0, 0), (0, 1, 0)])
    for x in [(3, -2, 5), (Fraction(1, 2), 4, -1)]:
        res = ca.solve_best_coapprox(prism, flat, x)
        shown = "(" + ", ".join(str(Fraction(c)) for c in x) + ")"
        print(f"  best coapproximation to {shown}: {tuple(str(c) for c in res.y0)}")
    print("  dropping the last coordinate is always the answer here.")

    print()
    print("A tilted section: span{(3/4,-1/4,1), (-3/4,-1/4,1)}")
    tilted = ca.subspace(
        [(Fraction(3, 4), Fraction(-1, 4), 1), (Fraction(-3, 4), Fraction(-1, 4), 1)]
    )
    anti = ca.is_anti_coproximinal(prism, tilted)
    strong = ca.is_strongly_anti_coproximinal(prism, tilted)
    show("  anti-coproximinal", anti.status)
    show("  strongly anti-coproximinal", strong.status)
    show("  functionals norming smooth section points", len(strong.jy.functionals))
    show("  missed facet functional", tuple(str(c) for c in strong.missed))
    print(
        "  no point outside ever has a best coapproximation, yet the point"
        f" {tuple(str(c) for c in strong.interior_point)}"
    )
    print(
        f"  admits a relaxed one at the origin with tolerance {strong.epsilon0}."
    )

    print()
    print("A steep section: span{(7/8,1/8,1), (7/8,-1/8,1)}")
    steep = ca.subspace(
        [(Fraction(7, 8), Fraction(1, 8), 1), (Fraction(7, 8), Fraction(-1, 8), 1)]
    )
    res = ca.is_strongly_anti_coproximinal(prism, steep)
    show("  strongly anti-coproximinal", res.status)
    print("  this section meets the interior of every facet, so even relaxed")
    print("  coapproximations are impossible: the defect is 1 everywhere outside.")
    x = (1, 0, 0)
    show("  defect of (1,0,0) against the origin", ca.eps_coapprox_defect(prism, steep, x, (0, 0, 0)))


if __name__ == "__main__":
    main()
