"""The chi-square tail probability, without scipy.

``chi2_sf(dof, x) = igamc(dof / 2, x / 2)`` takes the branches, coefficients and order of
operations of Cephes inside ``scipy.special.chdtrc`` (what ``scipy.stats.chi2.sf`` calls),
Cephes' own ``expm1`` included: up to 40 degrees of freedom it is bit-identical to ``chdtrc``.
Above that, near ``x = dof``, Cephes takes a uniform asymptotic series that is not ported: the
power series and continued fraction kept here agree with ``chdtrc`` to 2e-14 relative. For
a > 20 ``igam_fac`` takes its ``log1pmx`` form, which Cephes takes only from a = 200 on,
because ``pow(x / fac, a)`` loses up to about a ulps.
"""

import math
from functools import reduce

MACHEP = 1.1102230246251565e-16
MAXLOG = 709.782712893384
BIG, BIGINV = 4.503599627370496e15, 2.220446049250313e-16
MAXITER = 2000
EULER = 0.5772156649015329
LS2PI = 0.9189385332046728  # log(sqrt(2 pi))
LANCZOS_G = 6.024680040776729583740234375
# Coefficients are the doubles the Cephes literals round to, highest degree first.
# Stirling correction (A) and log Gamma on [2, 3) as x B(x) / C(x).
LGAM_A = (0.0008116141674705085, -0.0005950619042843014, 0.0007936503404577169,
          -0.002777777777300997, 0.08333333333333319)
LGAM_B = (-1378.2515256912086, -38801.631513463784, -331612.9927388712, -1162370.974927623,
          -1721737.0082083966, -853555.6642457654)
LGAM_C = (1.0, -351.81570143652345, -17064.210665188115, -220528.59055385445,
          -1139334.4436798252, -2532523.0717758294, -2018891.4143353277)
# Lanczos sum scaled by exp(g); the denominator is x (x + 1) ... (x + 11).
LANCZOS_NUM = (0.006061842346248907, 0.5098416655656676, 19.519927882476175, 449.9445569063168,
               6955.999602515376, 75999.29304014542, 601859.6171681099, 3481712.154980646,
               14605578.087685067, 43338889.32467614, 86363131.2881386, 103794043.11634454,
               56906521.913471565)
LANCZOS_DENOM = (1.0, 66.0, 1925.0, 32670.0, 357423.0, 2637558.0, 13339535.0, 45995730.0,
                 105258076.0, 150917976.0, 120543840.0, 39916800.0, 0.0)
# (2k)! / B_2k, the Euler-Maclaurin coefficients of zeta.
ZETA_A = (12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1892437580.3183792, 74724249600.0,
          -2950130727918.164, 116467828143500.67, -4597978722407473.0, 1.8152105401943546e+17,
          -7.166165256175667e+18)
EXPM1_P = (0.00012617719307481058, 0.030299440770744195, 1.0)
EXPM1_Q = (3.0019850513866446e-06, 0.002524483403496841, 0.22726554820815503, 2.0)


def chi2_sf(dof: float, x: float) -> float:
    """P(X > x) for X chi-square with ``dof`` > 0 degrees of freedom."""
    return 1.0 if x < 0.0 else igamc(dof / 2.0, x / 2.0)


def igamc(a: float, x: float) -> float:
    """Regularised upper incomplete gamma Q(a, x) for a > 0 and x >= 0."""
    if x == 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    if x > 1.1:
        return 1.0 - igam_series(a, x) if x < a else igamc_continued_fraction(a, x)
    if (-0.4 / math.log(x) if x <= 0.5 else x * 1.1) < a:
        return 1.0 - igam_series(a, x)
    return igamc_series(a, x)


def igam_fac(a: float, x: float) -> float:
    """x^a exp(-x) / Gamma(a)."""
    if abs(a - x) > 0.4 * abs(a):
        ax = a * math.log(x) - x - lgam(a)
        return 0.0 if ax < -MAXLOG else math.exp(ax)
    fac = a + LANCZOS_G - 0.5
    res = math.sqrt(fac / math.e) / ratevl(a, LANCZOS_NUM, LANCZOS_DENOM)
    if a <= 20:  # Cephes: a < 200 and x < 200
        return res * (math.exp(a - x) * math.pow(x / fac, a))
    num = x - a - LANCZOS_G + 0.5
    return res * math.exp(a * log1pmx(num / fac) + x * (0.5 - LANCZOS_G) / fac)


def igamc_continued_fraction(a: float, x: float) -> float:
    """Q(a, x) by the continued fraction DLMF 8.9.2."""
    ax = igam_fac(a, x)
    if ax == 0.0:
        return 0.0
    c, y = 0.0, 1.0 - a
    z = x + y + 1.0
    pkm2, qkm2, pkm1, qkm1 = 1.0, x, x + 1.0, z * x
    ans = pkm1 / qkm1
    for _ in range(MAXITER):
        c, y, z = c + 1.0, y + 1.0, z + 2.0
        yc = y * c
        pk, qk = pkm1 * z - pkm2 * yc, qkm1 * z - qkm2 * yc
        t = 1.0
        if qk != 0:
            r = pk / qk
            t, ans = abs((ans - r) / r), r
        pkm2, pkm1, qkm2, qkm1 = pkm1, pk, qkm1, qk
        if abs(pk) > BIG:
            pkm2, pkm1, qkm2, qkm1 = (v * BIGINV for v in (pkm2, pkm1, qkm2, qkm1))
        if t <= MACHEP:
            break
    return ans * ax


def igam_series(a: float, x: float) -> float:
    """The lower P(a, x) by the power series DLMF 8.11.4."""
    ax = igam_fac(a, x)
    if ax == 0.0:
        return 0.0
    r, c, ans = a, 1.0, 1.0
    for _ in range(MAXITER):
        r += 1.0
        c *= x / r
        ans += c
        if c <= MACHEP * ans:
            break
    return ans * ax / a


def igamc_series(a: float, x: float) -> float:
    """Q(a, x) for small x by DLMF 8.7.3, written to avoid cancellation."""
    fac, total = 1.0, 0.0
    for n in range(1, MAXITER):
        fac *= -x / n
        term = fac / (a + n)
        total += term
        if abs(term) <= MACHEP * abs(total):
            break
    logx = math.log(x)
    return -expm1(a * logx - lgam1p(a)) - math.exp(a * logx - lgam(a)) * total


def polevl(x: float, coef) -> float:
    return reduce(lambda acc, c: acc * x + c, coef)


def ratevl(x: float, num, denom) -> float:
    """num(x) / denom(x) of equal degree, in powers of 1/x when |x| > 1."""
    if abs(x) > 1:
        return polevl(1 / x, num[::-1]) / polevl(1 / x, denom[::-1])
    return polevl(x, num) / polevl(x, denom)


def lgam(x: float) -> float:
    """log Gamma(x) for x > 0."""
    if x >= 13.0:
        return (x - 0.5) * math.log(x) - x + LS2PI + polevl(1.0 / (x * x), LGAM_A) / x
    z, p, u = 1.0, 0.0, x
    while u >= 3.0:
        p -= 1.0
        u = x + p
        z *= u
    while u < 2.0:
        z /= u
        p += 1.0
        u = x + p
    if u == 2.0:
        return math.log(z)
    x = x + (p - 2.0)
    return math.log(z) + x * polevl(x, LGAM_B) / polevl(x, LGAM_C)


def lgam1p(x: float) -> float:
    """log Gamma(1 + x), by its Taylor series when x is within 1/2 of 0 or 1."""
    if abs(x) <= 0.5:
        return lgam1p_taylor(x)
    if abs(x - 1) < 0.5:
        return math.log(x) + lgam1p_taylor(x - 1)
    return lgam(x + 1)


def lgam1p_taylor(x: float) -> float:
    if x == 0:
        return 0.0
    res, xfac = -EULER * x, -x
    for n in range(2, 42):
        xfac *= -x
        coeff = zeta(n) * xfac / n
        res += coeff
        if abs(coeff) < MACHEP * abs(res):
            break
    return res


def zeta(x: float) -> float:
    """Riemann zeta(x), Cephes' Hurwitz zeta(x, 1), for x > 1."""
    s = b = 1.0
    for n in range(2, 11):
        b = math.pow(n, -x)
        s += b
        if abs(b / s) < MACHEP:
            return s
    w = 10.0
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a = 1.0
    for i, coef in enumerate(ZETA_A):
        a *= x + 2 * i
        b /= w
        t = a * b / coef
        s += t
        if abs(t / s) < MACHEP:
            break
        a *= x + (2 * i + 1)
        b /= w
    return s


def log1pmx(x: float) -> float:
    """log(1 + x) - x."""
    if abs(x) >= 0.5:
        return math.log1p(x) - x
    xfac, res = x, 0.0
    for n in range(2, MAXITER):
        xfac *= -x
        term = xfac / n
        res += term
        if abs(term) < MACHEP * abs(res):
            break
    return res


def expm1(x: float) -> float:
    """exp(x) - 1, by Cephes' rational on |x| <= 0.5."""
    if abs(x) > 0.5:
        return math.exp(x) - 1.0
    xx = x * x
    r = x * polevl(xx, EXPM1_P)
    r = r / (polevl(xx, EXPM1_Q) - r)
    return r + r
