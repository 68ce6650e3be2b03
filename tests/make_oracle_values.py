#!/usr/bin/env python3
"""Regenerate tests/_oracle_values.py with mpmath at 50 significant digits.

Run from the repository root:

    python tests/make_oracle_values.py

The generated module holds frozen high-precision reference values so the
test suite stays hermetic (no mpmath import at test time for the anchor
checks) and fast. Values are printed with 25 digits, far below the 50-digit
working precision, so every literal is correctly rounded.
"""

from __future__ import annotations

import mpmath as mp

mp.mp.dps = 50


def c(z) -> str:
    z = mp.mpc(z)
    return "complex(%s, %s)" % (mp.nstr(z.real, 25), mp.nstr(z.imag, 25))


def r(x) -> str:
    return mp.nstr(mp.mpf(x), 25)


def main() -> None:
    lines = [
        '"""Frozen high-precision reference values (generated, do not edit).',
        "",
        "Regenerate with:  python tests/make_oracle_values.py",
        '"""',
        "",
    ]

    # --- log-gamma / digamma / trigamma anchors (principal branch) ---
    lg_points = [
        mp.mpc(2.5, 3.0),
        mp.mpc(0.1, -4.0),
        mp.mpc(-3.2, 0.7),
        mp.mpc(7.25, 0.0),
        mp.mpc(0.75, 0.4),
        mp.mpc(-0.5, 0.0001),
        mp.mpc(1.25, -40.0),
    ]
    lines.append("LOG_GAMMA = [")
    for z in lg_points:
        lines.append("    (%s, %s)," % (c(z), c(mp.loggamma(z))))
    lines.append("]")
    lines.append("")

    psi_points = [mp.mpc(1.5, 0.0), mp.mpc(0.5, 2.0), mp.mpc(-2.3, 1.1),
                  mp.mpc(4.0, -3.0), mp.mpc(0.25, -0.75)]
    lines.append("DIGAMMA = [")
    for z in psi_points:
        lines.append("    (%s, %s)," % (c(z), c(mp.psi(0, z))))
    lines.append("]")
    lines.append("")
    lines.append("TRIGAMMA = [")
    for z in psi_points:
        lines.append("    (%s, %s)," % (c(z), c(mp.psi(1, z))))
    lines.append("]")
    lines.append("")

    # --- Kummer phi(a, b, z) anchors across both evaluation regimes ---
    kummer_cases = [
        (mp.mpc(1.5, 0.4), mp.mpc(2.0), mp.mpc(0, 0.6)),
        (mp.mpc(1.5, 0.4), mp.mpc(2.0), mp.mpc(0, 10.0)),
        (mp.mpc(1.5, 0.4), mp.mpc(2.0), mp.mpc(0, 25.0)),
        (mp.mpc(1.5, 0.4), mp.mpc(2.0), mp.mpc(0, 29.9)),
        (mp.mpc(1.5, 0.4), mp.mpc(2.0), mp.mpc(0, 30.1)),
        (mp.mpc(1.5, 0.4), mp.mpc(2.0), mp.mpc(0, 44.0)),
        (mp.mpc(1.5, 0.4), mp.mpc(2.0), mp.mpc(0, -27.0)),
        (mp.mpc(0.75, -0.4), mp.mpc(0.5), mp.mpc(0, 18.0)),
        (mp.mpc(0.75, 0.0), mp.mpc(1.5), mp.mpf(-24.0)),
        (mp.mpc(0.75, 0.0), mp.mpc(1.5), mp.mpf(12.0)),
        (mp.mpc(-1.25, 0.7), mp.mpc(2.5, -0.3), mp.mpc(3.0, 4.0)),
        (mp.mpc(-3.0, 0.0), mp.mpc(1.25), mp.mpc(0, 21.0)),
        (mp.mpc(1.0, 0.0), mp.mpc(1.0), mp.mpc(0, 17.0)),
        (mp.mpc(0.5, 0.0), mp.mpc(1.0), mp.mpc(2.0, 35.0)),
        # kernel parameters a = 1+alpha+i beta_im, b = 1+2 alpha at the
        # edges alpha = -0.45, 1.5: the seed radius of the Taylor branch
        # (|z| = 1) and its last steps before the switch at |z| = 30
        (mp.mpc(0.55, 0.7), mp.mpc(0.1), mp.mpc(0, 1.0)),
        (mp.mpc(0.55, 0.7), mp.mpc(0.1), mp.mpc(0, 29.9)),
        (mp.mpc(0.55, -0.7), mp.mpc(0.1), mp.mpc(0, -30.0)),
        (mp.mpc(2.5, -0.7), mp.mpc(4.0), mp.mpc(0, -1.0)),
        (mp.mpc(2.5, -0.7), mp.mpc(4.0), mp.mpc(0, -29.9)),
        (mp.mpc(2.5, 0.7), mp.mpc(4.0), mp.mpc(0, 30.0)),
    ]
    lines.append("KUMMER = [")
    for a, b, z in kummer_cases:
        lines.append("    (%s, %s, %s, %s)," % (c(a), c(b), c(z),
                                                c(mp.hyp1f1(a, b, z))))
    lines.append("]")
    lines.append("")

    # --- Barnes log-G anchors: single points and conjugate-pair sums ---
    # ln G(1+z) via mpmath.barnesg with the principal log; every anchor z
    # below was checked to stay on the principal sheet (|Im ln G| < pi).
    barnes_points = [
        mp.mpc(0.5, 0.0),
        mp.mpc(1.75, 0.0),
        mp.mpc(-0.3, 0.9),
        mp.mpc(0.25, -1.2),
        mp.mpc(0.0, 2.0),
        mp.mpc(3.5, 1.5),
    ]
    lines.append("LOG_BARNES_G = [")
    for z in barnes_points:
        lines.append("    (%s, %s)," % (c(z), c(mp.log(mp.barnesg(1 + z)))))
    lines.append("]")
    lines.append("")
    pair_cs = [mp.mpf("0.056697508641708582944"), mp.mpf("0.3"), mp.mpf("1.7")]
    lines.append("BARNES_CONJ_PAIR = [")
    for cc in pair_cs:
        val = mp.log(mp.barnesg(1 + 1j * cc)) + mp.log(mp.barnesg(1 - 1j * cc))
        lines.append("    (%s, %s)," % (r(cc), r(val.real)))
    lines.append("]")
    lines.append("")

    # --- Bessel J anchors (both regimes of the series/asymptotic switch) ---
    bessel_cases = [
        (mp.mpf(0.75), mp.mpf(0.3)),
        (mp.mpf(0.75), mp.mpf(5.0)),
        (mp.mpf(0.75), mp.mpf(11.9)),
        (mp.mpf(0.75), mp.mpf(12.1)),
        (mp.mpf(0.75), mp.mpf(33.0)),
        (mp.mpf(-0.25), mp.mpf(2.0)),
        (mp.mpf(-0.25), mp.mpf(26.0)),
        (mp.mpf(1.5), mp.mpf(9.0)),
        (mp.mpf(0.5), mp.mpf(14.0)),
        (mp.mpf(0.0), mp.mpf(7.5)),
    ]
    lines.append("BESSEL_J = [")
    for nu, x in bessel_cases:
        lines.append("    (%s, %s, %s)," % (r(nu), r(x), r(mp.besselj(nu, x))))
    lines.append("]")
    lines.append("")

    # --- Euler-Mascheroni anchor used by the moment formulas ---
    lines.append("EULER_GAMMA = %s" % r(mp.euler))
    lines.append("")

    with open("tests/_oracle_values.py", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print("wrote tests/_oracle_values.py")


if __name__ == "__main__":
    main()
