"""Property tests: XDR round-trips for arbitrary values."""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import XDRError
from repro.rpc.xdr import XDRDecoder, XDREncoder

#: struct code -> (XDR scalar kind, smallest value, largest value).
_SCALARS = {
    "I": ("uint", 0, (1 << 32) - 1),
    "i": ("int", -(1 << 31), (1 << 31) - 1),
    "Q": ("uhyper", 0, (1 << 64) - 1),
    "q": ("hyper", -(1 << 63), (1 << 63) - 1),
}
_CODES = st.lists(st.sampled_from(sorted(_SCALARS)), min_size=1, max_size=8)


def _scalar_value(code: str):
    _kind, lo, hi = _SCALARS[code]
    return st.one_of(st.integers(lo, hi), st.sampled_from([lo, hi, lo - 1, hi + 1]))


def _outcome(fn):
    """The result of ``fn()``, or XDRError if it raised one."""
    try:
        return fn()
    except XDRError:
        return XDRError


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=(1 << 32) - 1))
def test_uint_roundtrip(value):
    enc = XDREncoder()
    enc.pack_uint(value)
    dec = XDRDecoder(enc.getvalue())
    assert dec.unpack_uint() == value
    dec.done()


@settings(max_examples=200)
@given(st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1))
def test_int_roundtrip(value):
    enc = XDREncoder()
    enc.pack_int(value)
    assert XDRDecoder(enc.getvalue()).unpack_int() == value


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_uhyper_roundtrip(value):
    enc = XDREncoder()
    enc.pack_uhyper(value)
    assert XDRDecoder(enc.getvalue()).unpack_uhyper() == value


@settings(max_examples=200)
@given(st.binary(max_size=2048))
def test_opaque_roundtrip(data):
    enc = XDREncoder()
    enc.pack_opaque(data)
    encoded = enc.getvalue()
    assert len(encoded) % 4 == 0  # always aligned
    dec = XDRDecoder(encoded)
    assert dec.unpack_opaque() == data
    dec.done()


@settings(max_examples=200)
@given(st.text(max_size=512))
def test_string_roundtrip(text):
    enc = XDREncoder()
    enc.pack_string(text)
    assert XDRDecoder(enc.getvalue()).unpack_string() == text


@settings(max_examples=100)
@given(st.lists(st.binary(max_size=64), max_size=32))
def test_array_roundtrip(items):
    enc = XDREncoder()
    enc.pack_array(items, lambda e, b: e.pack_opaque(b))
    assert XDRDecoder(enc.getvalue()).unpack_array(
        lambda d: d.unpack_opaque()
    ) == items


@settings(max_examples=100)
@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("uint"), st.integers(0, (1 << 32) - 1)),
            st.tuples(st.just("string"), st.text(max_size=64)),
            st.tuples(st.just("opaque"), st.binary(max_size=64)),
            st.tuples(st.just("bool"), st.booleans()),
        ),
        max_size=20,
    )
)
def test_heterogeneous_sequence_roundtrip(fields):
    """Any interleaving of types round-trips (alignment invariant)."""
    enc = XDREncoder()
    for kind, value in fields:
        getattr(enc, f"pack_{kind}")(value)
    dec = XDRDecoder(enc.getvalue())
    for kind, value in fields:
        assert getattr(dec, f"unpack_{kind}")() == value
    dec.done()


@settings(max_examples=300)
@given(st.data())
def test_pack_struct_matches_scalar_sequence(data):
    """Same bytes, or the same XDRError on an out-of-range value."""
    codes = data.draw(_CODES)
    values = [data.draw(_scalar_value(code)) for code in codes]
    shape = struct.Struct(">" + "".join(codes))

    def scalars():
        enc = XDREncoder()
        for code, value in zip(codes, values):
            getattr(enc, f"pack_{_SCALARS[code][0]}")(value)
        return enc.getvalue()

    assert _outcome(lambda: XDREncoder().pack_struct(shape, *values).getvalue()) \
        == _outcome(scalars)


@settings(max_examples=300)
@given(_CODES, st.binary(max_size=72))
def test_unpack_struct_matches_scalar_sequence(codes, raw):
    """Same values and cursor, or the same XDRError on a short buffer."""
    shape = struct.Struct(">" + "".join(codes))

    def scalars():
        dec = XDRDecoder(raw)
        values = tuple(getattr(dec, f"unpack_{_SCALARS[code][0]}")() for code in codes)
        return values, dec.remaining

    def whole():
        dec = XDRDecoder(raw)
        return dec.unpack_struct(shape), dec.remaining

    assert _outcome(whole) == _outcome(scalars)
