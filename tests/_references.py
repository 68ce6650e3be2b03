"""Reference Bessel kernel from scipy, independent of chfdet."""

import numpy as np
from scipy.special import jv


def bessel_kernel(alpha, x, y):
    """The beta = 0 reduction of the kernel from scipy's Bessel J, in real
    arithmetic: with P(z) = sign(z) sqrt|z| J_{a+1/2}(|z|) and
    Q(z) = sqrt|z| J_{a-1/2}(|z|), K(x, y) = (P(x) Q(y) - Q(x) P(y)) / (2 (x - y)).
    Needs x, y != 0 and x != y."""

    def pq(z):
        mag = np.abs(z)
        root = np.sqrt(mag)
        return np.sign(z) * root * jv(alpha + 0.5, mag), root * jv(alpha - 0.5, mag)

    px, qx = pq(x)
    py, qy = pq(y)
    return (px * qy - qx * py) / (2.0 * (x - y))
