"""Norming sets in the sum norm, and why its subspaces are never strongly anti.

The dual ball of the sum norm is the cube of sign vectors. A proper subspace
only ever needs a few of them: walking the sign cells of the arrangement cut
out by the component hyperplanes yields the minimal set of sign vectors that
computes the norm on the whole subspace. Counting those cells gives a bound
strictly below the total number of sign vectors, which is exactly why no
proper subspace of this space can be strongly anti-coproximinal.
"""

from fractions import Fraction

import coapprox as ca

BASIS = [(0, 1, 1), (-1, 0, 1)]


def main():
    print(f"basis rows: {BASIS}")
    print(f"coordinates where all rows vanish: {sorted(ca.zero_set(BASIS)) or 'none'}")

    ns = ca.minimal_norming_set(BASIS)
    print(f"minimal norming set ({ns.size} sign vectors):")
    for s, beta in zip(ns.signs, ns.witnesses):
        print(
            f"  {tuple(int(c) for c in s)}"
            f"  witnessed inside its cell by coefficients {tuple(str(b) for b in beta)}"
        )

    y = ca.subspace(BASIS)
    sp = ca.make_l1(3)
    probe = ca.embed(y, (Fraction(2), Fraction(-1, 3)))
    best = max(sum(a * b for a, b in zip(s, probe)) for s in ns.signs)
    print(f"norm check on a span point {tuple(str(c) for c in probe)}:")
    print(f"  max over the norming set = {best} = actual norm {ca.norm(sp, probe)}")

    res = ca.l1_is_anti_coproximinal(BASIS)
    print(f"anti-coproximinal: {res.status} (norming set spans rank {res.rank} of 3)")

    for b in [(1, 0, 0), (0, 1, 1)]:
        out = ca.l1_best_coapprox(BASIS, b)
        if out.exists:
            print(f"best coapproximation to {b}: {tuple(str(c) for c in out.y0)}")
        else:
            print(f"best coapproximation to {b}: none exists")

    verdict = ca.classify(sp, y, verify=True)
    cert, generic = verdict.certificates, verdict.generic
    print(
        f"strong classification is impossible here: |norming set| = {cert['norming_size']}"
        f" <= bound {cert['bound']} < {cert['sign_vectors']} sign vectors,"
    )
    print(
        "  so some sign vector never norms a smooth span point"
        f" (for instance {tuple(int(c) for c in generic.certificates['missed_facet'])}),"
        f" and the full engine confirms: {generic.strongly_anti}"
    )


if __name__ == "__main__":
    main()
