"""Property tests of the checked Ray, quadric-residual and amplitude
arithmetic and of the chi-square tail.

Vectors have some exact zeros and a common scale from 1e-150 to 1e150, and
some are strided views. Each fast path must equal its reference bit for bit:
a loop over Python floats that adds the squares in component order and
writes each complex product out in real and imaginary parts. Row j of a
stack of 1, 7 or 128 rows must equal the call on row j alone.
``chi2_sf`` sums the closed form of the integer-dof tail, not Cephes' series,
so up to 40 degrees of freedom it must lie within 1e-12 relative of
``scipy.special.chdtrc``.
``step_normals`` under an active read-ahead must equal the direct draw,
whether the ring holds the request or not.
"""

import math
import os

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import chdtrc

import qreduce.dynamics as dynamics
from qreduce import Ray, quadric_residual, step_normals
from qreduce.dynamics import NOISE_GROUP, _amplitudes
from qreduce.ensemble import chi2_sf
from qreduce.hilbert import NONZERO_THRESHOLD, canonicalize, row_squared_norms

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


def reference_squared_norm(z):
    """``|z_0|^2 + |z_1|^2 + ...`` added in component order, one float at a time."""
    total = None
    for c in z.tolist():
        square = c.real * c.real + c.imag * c.imag
        total = square if total is None else total + square
    return total


def reference_canonical(z):
    """canonicalize's arithmetic as a loop over Python floats.

    Divide by the norm, find the first component of modulus above the
    threshold, turn every component by its conjugate phase and set it to
    its modulus.
    """
    nrm = math.sqrt(reference_squared_norm(z))
    parts = [(c.real / nrm, c.imag / nrm) for c in z.tolist()]
    mags = [math.sqrt(re * re + im * im) for re, im in parts]
    k = next(j for j in range(len(mags)) if mags[j] > NONZERO_THRESHOLD)
    fr, fi = parts[k][0] / mags[k], -parts[k][1] / mags[k]
    out = [complex(re * fr - im * fi, re * fi + im * fr) for re, im in parts]
    out[k] = complex(mags[k], 0.0)
    return np.array(out)


def reference_residual(z):
    """2|x*w - y*z| / <z|z>, each complex product written out in Python floats."""
    x, y, zz, w = z.tolist()
    re = (x.real * w.real - x.imag * w.imag) - (y.real * zz.real - y.imag * zz.imag)
    im = (x.real * w.imag + x.imag * w.real) - (y.real * zz.imag + y.imag * zz.real)
    return 2.0 * float(np.hypot(re, im)) / reference_squared_norm(z)


@PROPERTY
@given(vectors())
def test_squared_norm_is_the_fixed_order_sum(z):
    assert row_squared_norms(z[None], "psi", "")[0] == reference_squared_norm(z)


@PROPERTY
@given(vectors())
def test_ray_equals_the_reference_arithmetic(z):
    vector = Ray(z).vector
    expected = reference_canonical(z)
    assert vector.tobytes() == expected.tobytes()


@PROPERTY
@given(vectors(sizes=st.just(4)))
def test_quadric_residual_equals_the_fixed_order_formula(z):
    assert quadric_residual(z) == reference_residual(z)


@st.composite
def stacks(draw, sizes=st.integers(1, 6)):
    """(rows, j, z): a stack of 1, 7 or 128 rows whose row j is the vector z.

    The other rows are random, each at its own scale from 1e-150 to 1e150,
    and the stack is a column-strided view for strides 2 and 3.
    """
    z = draw(vectors(sizes=sizes))
    n_rows = draw(st.sampled_from([1, 7, 128]))
    j = draw(st.integers(0, n_rows - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (n_rows, z.size)
    rows = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
        * 10.0 ** rng.integers(-150, 151, (n_rows, 1))
    rows[j] = z
    stride = draw(st.integers(1, 3))
    if stride > 1:
        wide = np.zeros((n_rows, z.size * stride), dtype=complex)
        wide[:, ::stride] = rows
        rows = wide[:, ::stride]
    return rows, j, z


def rows_match_single_calls(block_call, single_call, rows, j, z):
    """Row j of ``block_call(rows)`` has the bytes of ``single_call(z)``."""
    return np.asarray(block_call(rows)[j]).tobytes() == np.asarray(single_call(z)).tobytes()


@PROPERTY
@given(stacks())
def test_canonicalize_row_j_is_the_single_row_call(stack):
    assert rows_match_single_calls(canonicalize, canonicalize, *stack)


@PROPERTY
@given(stacks(sizes=st.just(4)))
def test_quadric_residual_row_j_is_the_single_row_call(stack):
    assert rows_match_single_calls(quadric_residual, quadric_residual, *stack)


@PROPERTY
@given(stacks(), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_amplitudes_row_j_is_the_single_row_call(stack, extra, seed):
    # |rows| as probabilities of the live components, with a random basis of
    # a space of ``extra`` more dimensions, start phases, eigenvalues and times
    rows, j, z = stack
    live = z.size
    rng = np.random.default_rng(seed)
    basis = rng.standard_normal((live + extra, live)) + 1j * rng.standard_normal((live + extra, live))
    phase0 = np.exp(2j * np.pi * rng.random(live))
    lam = rng.standard_normal(live) * 3.0
    t = rng.random(len(rows)) * 200.0
    block = _amplitudes(basis, np.abs(rows), phase0, lam, t[:, None])
    single = _amplitudes(basis, np.abs(z), phase0, lam, t[j])
    assert block[j].tobytes() == single.tobytes()


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


# Near the edge of noise group 0, or anywhere in the first groups.
ENTRY = (st.sampled_from([0, 1, NOISE_GROUP - 1, NOISE_GROUP, NOISE_GROUP + 1])
         | st.integers(0, 5000))


@st.composite
def loop_requests(draw, seed, n_steps, start, count):
    """Requests of a loop that read ahead (seed, n_steps, count, start), in step order.

    An ``in`` request lies in the ring, with a count no larger than the one
    before (the loops' counts never rise); the others fall back: another
    seed, a count above the ring's width, an entry below its start, or a
    step past ``n_steps``.
    """
    steps = sorted(draw(st.lists(st.integers(0, n_steps + 2), min_size=1, max_size=12)))
    kinds = ["in", "seed", "above"] + (["below"] if start else [])
    requests, top = [], count
    for step in steps:
        kind = draw(st.sampled_from(kinds))
        if kind == "in":
            c = draw(st.integers(start + 1, top))
            top = c
            requests.append((seed, step, c, draw(st.integers(start, c - 1)), step < n_steps))
        elif kind == "seed":
            requests.append(((seed + 1) % 2**64, step, count, start, False))
        elif kind == "above":
            requests.append((seed, step, count + draw(st.integers(1, 3000)), start, False))
        else:
            requests.append((seed, step, count, draw(st.integers(0, start - 1)), False))
    return requests


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**64 - 1), start=ENTRY, width=st.integers(1, 3000),
       n_steps=st.integers(1, 200), data=st.data())
def test_step_normals_under_a_read_ahead_is_the_direct_draw(seed, start, width, n_steps, data):
    count = start + width
    requests = data.draw(loop_requests(seed, n_steps, start, count))
    direct = dynamics._draw
    drawn_here = []

    def counted(*args):
        drawn_here.append(args)
        return direct(*args)

    with dynamics._read_ahead(seed, n_steps, count, start):
        ahead = dynamics._NOISE.ahead
        dynamics._draw = counted  # after the fork: the companion keeps the real one
        try:
            for s, step, c, first, _ in requests:
                for _ in range(2):  # the second call must not see the first's writes
                    out = step_normals(s, step, c, first)
                    assert np.array_equal(out, direct(s, step, c, first))
                    out[:] = np.nan
        finally:
            dynamics._draw = direct
    if (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) > 1):
        assert ahead is not None
        # every request the ring holds was served from it, and no other
        assert len(drawn_here) == 2 * sum(not held for *_, held in requests)
