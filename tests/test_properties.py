"""Property tests of the checked Ray and quadric-residual arithmetic and of
the chi-square tail.

Vectors have some exact zeros and a common scale from 1e-150 to 1e150, and
some are strided views. Each fast path must equal its reference bit for bit.
``chi2_sf`` sums the closed form of the integer-dof tail, not Cephes' series,
so up to 40 degrees of freedom it must lie within 1e-12 relative of
``scipy.special.chdtrc``.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import chdtrc

from qreduce import Ray, quadric_residual
from qreduce.ensemble import chi2_sf
from qreduce.hilbert import NONZERO_THRESHOLD, vector_norm

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

# An exact zero, or a magnitude far above NONZERO_THRESHOLD relative to the
# norm, so the phase-fixing component is never a rounding decision.
PART = st.just(0.0) | st.floats(1e-3, 1.0).flatmap(lambda m: st.sampled_from([m, -m]))


@st.composite
def vectors(draw, sizes=st.integers(1, 6), exponents=st.integers(-150, 150)):
    """A nonzero complex vector with exact zeros, scaled by 10**exponent."""
    n = draw(sizes)
    parts = draw(st.lists(st.tuples(PART, PART), min_size=n, max_size=n)
                 .filter(lambda ps: any(re or im for re, im in ps)))
    z = np.array([complex(re, im) for re, im in parts]) * 10.0 ** draw(exponents)
    stride = draw(st.integers(1, 3))
    if stride == 1:
        return z
    wide = np.zeros(n * stride, dtype=complex)
    wide[::stride] = z
    return wide[::stride]


def reference_canonical(z):
    """canonicalize's arithmetic, with a loop for the phase-fixing component.

    The phase is fixed in place: numpy's out-of-place product can differ in
    the last bit (``[1+1j]`` gives an imaginary part of 1e-17, not 0).
    """
    z = z / np.linalg.norm(z)
    mags = np.abs(z)
    k = next(j for j in range(z.size) if mags[j] > NONZERO_THRESHOLD)
    z *= mags[k] / z[k]
    return z


@PROPERTY
@given(vectors())
def test_vector_norm_is_numpys_norm(z):
    assert vector_norm(z) == np.linalg.norm(z)


@PROPERTY
@given(vectors())
def test_ray_equals_the_reference_arithmetic(z):
    vector = Ray(z).vector
    expected = reference_canonical(z)
    assert vector.tobytes() == expected.tobytes()


@PROPERTY
@given(vectors(sizes=st.just(4)))
def test_quadric_residual_equals_the_numpy_scalar_formula(z):
    n2 = float(np.vdot(z, z).real)
    x, y, zz, w = z
    assert quadric_residual(z) == float(2.0 * abs(x * w - y * zz) / n2)


@PROPERTY
@given(vectors(exponents=st.integers(-75, 75)),
       st.tuples(PART, PART).filter(any), st.integers(-75, 75))
def test_ray_ignores_global_phase_and_scale(z, c, exponent):
    scale = complex(*c) * 10.0 ** exponent
    assert Ray(scale * z).approx_eq(Ray(z))


@st.composite
def chi2_arguments(draw):
    """(dof, x): x is 0, subnormal, 1e-300 to 1e4, or at a branch edge of chdtrc.

    chdtrc's igamc(a, x / 2) with a = dof / 2 branches at x / 2 = 0.5, 1.1, a
    and a / 1.1, and below 0.5 at x / 2 = exp(-0.4 / a). Edge draws lie within
    a few hundred ulps or within 10 % of one.
    """
    dof = draw(st.integers(1, 40))
    a = dof / 2
    edge = 2 * draw(st.sampled_from([0.5, 1.1, a, a / 1.1, math.exp(-0.4 / a)]))
    x = draw(st.just(0.0)
             | st.floats(5e-324, 2.2250738585072014e-308)
             | st.floats(-300.0, 4.0).map(lambda e: 10.0 ** e)
             | st.integers(-256, 256).map(lambda k: edge * (1.0 + k * 2.0 ** -52))
             | st.floats(0.9, 1.1).map(lambda f: edge * f))
    return dof, x


@settings(PROPERTY, max_examples=1500)
@given(chi2_arguments())
def test_chi2_sf_within_1e_12_of_chdtrc(args):
    dof, x = args
    ours, ref = chi2_sf(dof, x), float(chdtrc(dof, x))
    if ref < 1e-290:  # the relative gap of a subnormal or zero means nothing
        assert ours < 1e-280 and ref < 1e-280
    else:
        assert abs(ours - ref) <= 1e-12 * ref
