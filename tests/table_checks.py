"""Exact references shared by the tests: values in mpmath, which each test
imports with ``pytest.importorskip`` and passes in."""
import math


def exact_sums(mp, alpha, n_trunc):
    """Deficit, completeness, sum rule and tensor overlap in mpmath.

    Each tail comes from the partial fractions of f(n, b) = n^2/(n^2 - b^2)^2,
    [(n-b)^-2 + (n+b)^-2]/4 + [(n-b)^-1 - (n+b)^-1]/(4b), summed by trigamma
    and digamma. They are taken at the working precision plus about
    -log10(alpha) digits: b1 = alpha/pi cancels that many in the digamma
    difference, and b2 = 2 - alpha/pi would round to 2, the trigamma's pole,
    below alpha = 10**-dps.
    """
    with mp.extradps(max(0, math.ceil(-math.log10(alpha)))):
        return _exact_sums(mp, alpha, n_trunc)


def _exact_sums(mp, alpha, n_trunc):
    def tail(n, b):
        x = n + 1
        return (mp.psi(1, x - b) + mp.psi(1, x + b)) / 4 \
            + (mp.psi(0, x + b) - mp.psi(0, x - b)) / (4 * b)

    def head(n, b):
        return tail(0, b) - tail(n, b)

    a = mp.mpf(alpha)
    sin_sq = mp.sin(a) ** 2
    scales = (2 * a * sin_sq / mp.pi**3, 2 * (2 * mp.pi - a) * sin_sq / mp.pi**3)
    poles = (a / mp.pi, 2 - a / mp.pi)
    sums = [head(n_trunc, b) for b in poles]
    # sum (-1)^n f(n, b) = 2*(even n) - all, and f(2m, b) = f(m, b/2)/4
    alts = [head(n_trunc // 2, b / 2) / 2 - s for b, s in zip(poles, sums)]
    return {
        "deficit": sum(k * tail(n_trunc, b) for k, b in zip(scales, poles)),
        "completeness": sum(k * s for k, s in zip(scales, sums)),
        "sum_rule": sum(k * alt for k, alt in zip(scales, alts)),
        "tensor": (alts[0] / sums[0]) * (alts[1] / sums[1]),
    }
