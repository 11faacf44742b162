import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from quantizer_oracle import reference_in_range, reference_quantize

from disopt.quantizer import UniformQuantizer


def test_step_size():
    q = UniformQuantizer(bits=3, interval_length=1.0)
    assert q.step == 1.0 / 8


def test_midpoint_maps_to_itself():
    q = UniformQuantizer(bits=2, interval_length=1.0, midpoint=np.array([0.3, -0.1]))
    x = np.array([0.3, -0.1])
    assert np.array_equal(q.quantize(x), x)
    assert np.array_equal(q.quantization_error(x), np.zeros(2))


def test_hand_evaluated_levels():
    q = UniformQuantizer(bits=2, interval_length=1.0)
    assert q.quantize(np.array([0.3])) == pytest.approx(0.25)
    assert q.quantization_error(np.array([0.3])) == pytest.approx(0.05)
    q1 = UniformQuantizer(bits=1, interval_length=1.0)
    assert q1.quantize(np.array([-0.4])) == pytest.approx(-0.5)


def test_error_bound_values():
    assert UniformQuantizer(bits=1, interval_length=1.0).error_bound() == 0.25
    assert UniformQuantizer(bits=5, interval_length=1.0).error_bound() == 1 / 64
    # the widest accepted quantizer: 2**-1024 is subnormal, not an overflow
    assert UniformQuantizer(bits=1023, interval_length=1.0).error_bound() == 2.0**-1024
    column = UniformQuantizer(bits=2, interval_length=np.array([[1.0], [0.5]]))
    assert np.array_equal(column.error_bound(), [[0.125], [0.0625]])


def test_brute_force_error_sweep_b5():
    q = UniformQuantizer(bits=5, interval_length=1.0)
    x = np.linspace(-0.5, 0.5, 100_001)
    assert np.max(np.abs(q.quantization_error(x))) <= 1 / 64 + 1e-15


def test_refinement_halves_the_bound():
    sweep = np.linspace(-0.5, 0.5, 20_001)
    prev = np.inf
    for b in range(1, 9):
        q = UniformQuantizer(bits=b, interval_length=1.0)
        assert q.error_bound() == pytest.approx(1.0 / 2 ** (b + 1))
        worst = np.max(np.abs(q.quantization_error(sweep)))
        assert worst <= prev + 1e-15
        prev = worst


def test_idempotent_on_in_range_inputs(rng):
    q = UniformQuantizer(bits=3, interval_length=1.0)
    x = rng.uniform(-0.5, 0.5, 1000)
    once = q.quantize(x)
    assert np.array_equal(q.quantize(once), once)


def test_sign_symmetric_around_midpoint(rng):
    mid = 0.2
    q = UniformQuantizer(bits=4, interval_length=1.0, midpoint=mid)
    v = rng.uniform(0, 0.5, 500)
    up = q.quantize(mid + v) - mid
    down = q.quantize(mid - v) - mid
    assert np.allclose(up, -down, atol=0)


def test_saturation_clamps_to_outermost_level():
    q = UniformQuantizer(bits=2, interval_length=1.0)
    assert q.quantize(np.array([3.0])) == pytest.approx(0.5)
    assert q.quantize(np.array([-3.0])) == pytest.approx(-0.5)
    assert q.saturates(np.array([0.51]))
    assert not q.saturates(np.array([0.5]))


def test_shape_mismatch_raises():
    q = UniformQuantizer(bits=2, interval_length=1.0, midpoint=np.zeros(2))
    with pytest.raises(ValueError, match="shape"):
        q.quantize(np.zeros(3))


@pytest.mark.parametrize("shape", [(), (1,), (2, 1), (3, 1)])
def test_shape_mismatch_raises_into_buffers(shape):
    # a float64 array skips the conversion, not the midpoint-shape check:
    # each of these broadcasts against the (2,) midpoint into its buffers,
    # so only that check stops it
    q = UniformQuantizer(bits=2, interval_length=1.0, midpoint=np.zeros(2))
    out, scratch = np.empty((2, *np.broadcast_shapes(shape, (2,))))
    with pytest.raises(ValueError, match="midpoint shape"):
        q.quantize(np.zeros(shape), out=out, scratch=scratch)


_POINTS = [[0.3, -0.1], [0.6, 2.0], [-0.0, -1.3]]


@pytest.mark.parametrize(
    "x",
    [
        _POINTS,
        np.array([[0, 1], [-1, 3], [2, -2]]),
        np.array(_POINTS, dtype=np.float32),
        np.array(_POINTS, dtype=">f8"),  # float64, not in native byte order
    ],
    ids=["list", "int", "float32", "big-endian"],
)
def test_every_other_input_is_converted_to_float64_into_buffers(x):
    q = UniformQuantizer(bits=3, interval_length=2.0, midpoint=np.array([0.0, 0.25]))
    out, scratch = np.full((2, 3, 2), np.nan)
    got = q.quantize(x, out=out, scratch=scratch)
    assert got is out
    assert got.tobytes() == reference_quantize(q, x).tobytes()


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        UniformQuantizer(bits=0, interval_length=1.0)
    with pytest.raises(ValueError):
        UniformQuantizer(bits=1, interval_length=-0.5)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
@pytest.mark.parametrize("column", [False, True])
def test_interval_lengths_must_be_positive(bad, column):
    # exact communication is no quantizer, never a zero-length interval
    length = np.array([[1.0], [bad], [2.0]]) if column else bad
    with pytest.raises(ValueError, match="must be positive"):
        UniformQuantizer(bits=2, interval_length=length)


@pytest.mark.parametrize("column", [False, True])
def test_a_step_that_underflows_is_rejected(column):
    # 2**-51 / 2**1023 is the smallest subnormal and 2**-52 / 2**1023
    # rounds to 0; a zero step would quantize every offset to the
    # midpoint, and a zero offset to 0/0 = NaN
    def length(value):
        return np.array([[1.0], [value]]) if column else value

    assert UniformQuantizer(bits=1023, interval_length=length(2.0**-51)).step.min() == 2.0**-1074
    for bits, value in [(1023, 2.0**-52), (225, 3e-294)]:
        with pytest.raises(ValueError, match=f"interval_length / 2\\*\\*{bits} underflows to 0"):
            UniformQuantizer(bits=bits, interval_length=length(value))


@settings(max_examples=300, deadline=None)
@given(
    bits=st.integers(min_value=1, max_value=10),
    length=st.floats(min_value=1e-3, max_value=10, allow_nan=False),
    offset=st.floats(min_value=-0.5, max_value=0.5, allow_nan=False),
)
def test_in_range_error_never_exceeds_bound(bits, length, offset):
    q = UniformQuantizer(bits=bits, interval_length=length)
    x = np.array([offset * length])
    err = abs(q.quantization_error(x)[0])
    assert err <= q.error_bound() * (1 + 1e-12)


_ENTRIES = st.one_of(
    st.floats(min_value=-4.0, max_value=4.0),
    st.sampled_from([np.inf, -np.inf, np.nan, 0.0]),
)


@settings(max_examples=300, deadline=None)
@given(
    bits=st.integers(min_value=1, max_value=1023),
    n=st.integers(min_value=1, max_value=4),
    p=st.integers(min_value=1, max_value=3),
    length=st.sampled_from(["scalar", "column"]),
    vector_midpoint=st.booleans(),
    data=st.data(),
)
def test_cached_constants_match_the_per_call_oracle(
    bits, n, p, length, vector_midpoint, data
):
    positive = st.floats(min_value=1e-3, max_value=8.0)
    if length == "scalar":
        interval = data.draw(positive)
    else:
        interval = np.array(data.draw(st.lists(positive, min_size=n, max_size=n)))[:, None]
    midpoint = 0.0
    if vector_midpoint:
        midpoint = np.array(
            data.draw(st.lists(st.floats(-1.0, 1.0), min_size=p, max_size=p))
        )
    x = np.array(data.draw(st.lists(_ENTRIES, min_size=n * p, max_size=n * p)))
    x = x.reshape(n, p)
    q = UniformQuantizer(bits=bits, interval_length=interval, midpoint=midpoint)
    with np.errstate(all="ignore"):  # the oracle's offset / step overflows at large bits
        want = reference_quantize(q, x)
    got = q.quantize(x)
    out, scratch = np.full((2, *want.shape), np.nan)
    into = q.quantize(x, out=out, scratch=scratch)
    assert np.array_equal(got, want, equal_nan=True)
    # into NaN-filled buffers: the same values, and ``out`` returned
    assert into is out
    assert np.array_equal(into, want, equal_nan=True)
    assert np.array_equal(q.in_range(x), reference_in_range(q, x))
    # a leading block axis changes nothing per coordinate
    block = np.stack([x, -x])
    assert np.array_equal(q.in_range(block), reference_in_range(q, block))


def _offset_grid(bits: int) -> np.ndarray:
    """Offsets in units of the step: every exact tie (m + 0.5) between
    levels, the doubles on either side of it, and points past the cap."""
    cap = 2 ** (bits - 1)
    ties = np.arange(-cap - 1, cap + 1) + 0.5
    beyond = np.array([cap + 1.0, 4.0 * cap, 1e300])
    return np.concatenate(
        [ties, np.nextafter(ties, -np.inf), np.nextafter(ties, np.inf), beyond, -beyond]
    )


# signed zeros, NaN of either sign and the infinities, as raw inputs
_SPECIALS = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf])


@pytest.mark.parametrize(
    "bits, interval, midpoint",
    [
        (3, 1.0, 0.0),
        (1, 2.0, -0.0),
        # a vector midpoint on the level grid, a negative zero included
        (3, 1.0, np.array([-0.25, -0.0, 0.0, 0.375])),
        # an (n, 1) interval column, one step per row
        (2, np.array([[0.5], [1.0], [3.0]]), 0.0),
    ],
)
def test_levels_match_the_oracle_bit_for_bit(bits, interval, midpoint):
    # np.array_equal takes -0.0 for 0.0 and any NaN for any other; the
    # bytes tell a signed zero and a NaN's sign bit apart
    q = UniformQuantizer(bits=bits, interval_length=interval, midpoint=midpoint)
    offsets = _offset_grid(bits)
    if np.ndim(interval) == 2:
        x = offsets * q.step  # (n, 1) steps times a row of offsets
        x = np.concatenate([x, np.broadcast_to(_SPECIALS, (len(x), 6))], axis=1)
    else:
        x = offsets[:, None] * q.step + midpoint
        x = np.concatenate([x, np.broadcast_to(_SPECIALS[:, None], (6, x.shape[1]))])
        x = np.concatenate([x, np.broadcast_to(midpoint, (1, x.shape[1]))])
    want = reference_quantize(q, x).tobytes()
    assert q.quantize(x).tobytes() == want
    out, scratch = np.full((2, *x.shape), np.nan)
    assert q.quantize(x, out=out, scratch=scratch).tobytes() == want


_COLUMN = np.array([[0.5], [1.0], [3.0]])  # an (n, 1) interval column


@pytest.mark.parametrize(
    "midpoint, zero_d",
    [
        (np.array([0.25]), True),
        (np.array([0.25, 0.25, 0.25]), True),
        (np.array([-0.25, 0.0, 0.375]), False),
        # bit-equal is not ==: a signed zero keeps the vector
        (np.array([0.0, -0.0]), False),
        (np.array([-0.0, -0.0, -0.0]), True),
    ],
)
def test_a_constant_midpoint_is_one_0d_operand_with_the_oracles_bytes(midpoint, zero_d):
    q = UniformQuantizer(bits=2, interval_length=_COLUMN, midpoint=midpoint)
    assert q._mid.ndim == (0 if zero_d else 1) and q.midpoint.shape == midpoint.shape
    p = midpoint.shape[0]
    offsets = np.concatenate([_offset_grid(2), _SPECIALS])
    for x in (
        offsets.reshape(-1, 1, 1) * q.step + midpoint,  # (K, n, p), a block of states
        np.resize(offsets, (3, p)) * q.step + midpoint,  # (n, p), one round
        np.resize(offsets, (p,)) + midpoint,  # (p,), broadcast to the column
    ):
        want = reference_quantize(q, x).tobytes()
        assert q.quantize(x).tobytes() == want
        if x.ndim <= 2:
            out, scratch = np.full((2, 3, p), np.nan)
            assert q.quantize(x, out, scratch).tobytes() == want
        assert q.in_range(x).tobytes() == reference_in_range(q, x).tobytes()


def test_a_negative_zero_at_a_positive_zero_midpoint_quantizes_to_the_midpoint():
    # the offset is -0.0, and mid + copysign(0, -0.0) = 0.0 + -0.0 = +0.0
    for midpoint in (0.0, np.zeros(1), np.zeros(3)):
        q = UniformQuantizer(bits=3, interval_length=_COLUMN, midpoint=midpoint)
        x = np.full((3, np.size(midpoint)), -0.0)
        got = q.quantize(x)
        assert got.tobytes() == np.zeros_like(x).tobytes()
        assert got.tobytes() == reference_quantize(q, x).tobytes()


def test_an_offset_far_outside_the_interval_saturates_without_overflow():
    # the step, 1e-246 / 2**209, is ~1.2e-309, so 0.5 / step overflows; the
    # offset is clamped to the cap's reach before it is divided, so the call
    # gives the outermost level with no warning, under any error state
    q = UniformQuantizer(bits=209, interval_length=1e-246)
    reach = q.step * 2.0**208
    x = np.array([0.5, -0.5, np.inf, -np.inf, 1e-246, -reach])
    want = np.array([reach, -reach, reach, -reach, reach, -reach])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert q.quantize(x).tobytes() == want.tobytes()
        with np.errstate(all="raise"):
            assert q.quantize(x).tobytes() == want.tobytes()


def test_replace_recomputes_the_cached_constants():
    q = UniformQuantizer(bits=3, interval_length=1.0)
    x = np.array([0.3, 0.45, 0.6])
    finer = replace(q, bits=5)
    assert finer.step == 1 / 32
    assert np.array_equal(finer.quantize(x), reference_quantize(finer, x))
    assert np.array_equal(finer.quantize(x), [0.3125, 0.4375, 0.5])
    wider = replace(q, interval_length=2.0)
    assert wider.step == 1 / 4
    assert np.array_equal(wider.in_range(x), [True, True, True])
    assert np.array_equal(wider.quantize(x), reference_quantize(wider, x))
