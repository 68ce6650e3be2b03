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
import numpy as np

mp.mp.dps = 50

# sub-steps of the segment 0 -> z along which ln G(1+z) is continued
BARNES_PATH_STEPS = 24

# |x| of the points z = +-2ix of KUMMER_RAYS: the seed radius |z| = 1, the
# march's radii 2.25 and 29.0625 and points between, |z| = 30 just above
# the old switch, both sides of the switch at |z| = 34, and the asymptotic
# branch
KUMMER_RAY_X = (0.3, 0.5, 0.8, 1.125, 2.9, 6.1, 9.7, 13.3, 14.53125, 14.9, 15.0, 15.1,
                16.9, 17.1, 21.0, 40.0, 75.0, 150.0)


def c(z) -> str:
    z = mp.mpc(z)
    return "complex(%s, %s)" % (mp.nstr(z.real, 25), mp.nstr(z.imag, 25))


def r(x) -> str:
    return mp.nstr(mp.mpf(x), 25)


def log_barnes_g_continued(z):
    """ln G(1+z) on the analytic branch with ln G(1) = 0: the principal
    logs of the ratios G(1+z_k)/G(1+z_{k-1}) at z_k = k z / n, summed.
    Each ratio stays close to 1, so its principal log is the continuation;
    mpmath's principal log of G(1+z) itself can differ from it by 2 pi i."""
    total = mp.mpc(0)
    prev = mp.mpf(1)
    for k in range(1, BARNES_PATH_STEPS + 1):
        cur = mp.barnesg(1 + z * k / BARNES_PATH_STEPS)
        total += mp.log(cur / prev)
        prev = cur
    return total


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
        # (|z| = 1) and its steps at |z| = 30
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

    # --- Kummer phi and phi' left of the imaginary axis, |z| <= 34 ---
    # where phi is recessive, ~e^z (b - a at or near 0), and two points
    # where it is not; phi' is (a/b) phi(a+1, b+1, z)
    lines.append("KUMMER_LEFT = [")
    for a, b, z in [(1.0, 1.0, -30.0), (2.0, 2.0, -25.0), (1.2, 1.2, -15.0 - 15.0j),
                    (1.0, 1.001, -30.0), (0.75, 1.5, -24.0), (0.1, 1.5, -33.0)]:
        am, bm, zm = mp.mpc(a), mp.mpc(b), mp.mpc(z)
        lines.append("    (%s, %s, %s, %s, %s)," % (
            c(am), c(bm), c(zm), c(mp.hyp1f1(am, bm, zm)),
            c(am / bm * mp.hyp1f1(am + 1, bm + 1, zm))))
    lines.append("]")
    lines.append("")

    # --- Kummer anchors on the asymptotic branch at kernel parameters ---
    # a = 1+alpha+i beta_im, b = 1+2 alpha formed in double as the kernel
    # forms them, at the alpha edges, z = +-2ix out to |z| = 400
    lines.append("KUMMER_KERNEL = [")
    for alpha in (-0.45, 1.5):
        for beta_im in (-0.7, 0.7):
            a, b = 1.0 + alpha + 1j * beta_im, 1.0 + 2.0 * alpha
            for x in (40.0, 100.0, 200.0):
                for z in (2j * x, -2j * x):
                    lines.append("    (%s, %s, %s, %s)," % (
                        c(a), c(b), c(z), c(mp.hyp1f1(mp.mpc(a), mp.mpc(b), mp.mpc(z)))))
    lines.append("]")
    lines.append("")

    # --- Kummer phi and phi' on the kernel rays, both branches ---
    # a = 1+alpha+i beta_im, b = 1+2 alpha formed in double as the kernel
    # forms them, z = +-2ix from the series (|z| <= 1) through the Taylor
    # steps and the switch at |z| = 34 out to |z| = 300; phi' is
    # (a/b) phi(a+1, b+1, z)
    lines.append("KUMMER_RAYS = [")
    for alpha in (-0.45, 0.0, 1.5):
        for beta_im in (-0.7, 0.0, 0.7):
            a, b = 1.0 + alpha + 1j * beta_im, 1.0 + 2.0 * alpha
            am, bm = mp.mpc(a), mp.mpc(b)
            for x in KUMMER_RAY_X:
                for z in (2j * x, -2j * x):
                    zm = mp.mpc(z)
                    lines.append("    (%s, %s, %s, %s, %s)," % (
                        c(a), c(b), c(z), c(mp.hyp1f1(am, bm, zm)),
                        c(am / bm * mp.hyp1f1(am + 1, bm + 1, zm))))
    lines.append("]")
    lines.append("")

    # --- Bessel kernel (the beta = 0 reduction) from mpmath's Bessel J ---
    # K(x, y) = (P(x) Q(y) - Q(x) P(y)) / (2 (x - y)) with
    # P(z) = sign(z) sqrt|z| J_{a+1/2}(|z|), Q(z) = sqrt|z| J_{a-1/2}(|z|),
    # at the alpha edges, all sign combinations and |x| up to 100, so both
    # Kummer branches (switch at |2x| = 34) are covered
    bessel_kernel_cases = [
        (-0.45, 0.3, 2.0),
        (-0.45, -26.0, 7.5),
        (-0.45, -60.0, -59.5),
        (0.0, 7.5, -14.0),
        (0.25, 2.0, 26.0),
        (0.35, -2.0, -3.5),
        (0.5, -14.0, -11.9),
        (0.75, 5.0, 33.0),
        (0.75, -100.0, 100.5),
        (1.0, -0.3, 12.1),
        (1.5, 9.0, -33.0),
        (1.5, 40.0, 41.0),
    ]
    lines.append("BESSEL_KERNEL = [")
    for alpha, x, y in bessel_kernel_cases:
        a, xm, ym = mp.mpf(alpha), mp.mpf(x), mp.mpf(y)

        def pq(z):
            root = mp.sqrt(abs(z))
            return (mp.sign(z) * root * mp.besselj(a + mp.mpf(1) / 2, abs(z)),
                    root * mp.besselj(a - mp.mpf(1) / 2, abs(z)))

        (px, qx), (py, qy) = pq(xm), pq(ym)
        val = (px * qy - qx * py) / (2 * (xm - ym))
        lines.append("    (%s, %s, %s, %s)," % (r(a), r(xm), r(ym), r(val)))
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
    # 25 random points with -0.9 < Re z < 4 and |Im z| < 3
    rng = np.random.default_rng(3)
    random_points = rng.uniform(-0.9, 4.0, 25) + 1j * rng.uniform(-3.0, 3.0, 25)
    lines.append("LOG_BARNES_G_CONTINUED = [")
    for z in random_points:
        zc = mp.mpc(complex(z))
        lines.append("    (%s, %s)," % (c(zc), c(log_barnes_g_continued(zc))))
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
