import hashlib

import numpy as np
import pytest

from clanmc import ConfigurationError, RngStream


def test_same_label_same_draws():
    a = RngStream(1234).substream("walk", 7).normal(size=8)
    b = RngStream(1234).substream("walk", 7).normal(size=8)
    assert np.array_equal(a, b)


def test_distinct_labels_distinct_draws():
    s = RngStream(1234)
    base = s.substream("walk", 0).normal(size=8)
    assert not np.array_equal(base, s.substream("walk", 1).normal(size=8))
    assert not np.array_equal(base, s.substream("other", 0).normal(size=8))
    assert not np.array_equal(base, RngStream(1235).substream("walk", 0).normal(size=8))


def test_repeated_substream_is_stateless():
    s = RngStream(99)
    first = s.substream("p", 3).normal(size=4)
    second = s.substream("p", 3).normal(size=4)
    assert np.array_equal(first, second)


def test_seed_validation():
    with pytest.raises(ConfigurationError):
        RngStream(-1)
    with pytest.raises(ConfigurationError):
        RngStream(2**64)
    with pytest.raises(ConfigurationError):
        RngStream(5).substream("p", -2)


@pytest.mark.parametrize("seed", [1.7, 1.0, True, "5", None])
def test_non_integer_seed_refused(seed):
    with pytest.raises(ConfigurationError, match="master seed"):
        RngStream(seed)


@pytest.mark.parametrize("index", [1.5, 1.0, True, "1", None])
def test_non_integer_index_refused(index):
    # int(1.5) would give the generator of index 1
    with pytest.raises(ConfigurationError, match="substream index"):
        RngStream(5).substream("p", index)


def test_numpy_integers_accepted():
    s = RngStream(np.uint64(5))
    assert s.master_seed == 5 and type(s.master_seed) is int
    a = s.substream("p", np.int64(3)).normal(size=4)
    assert np.array_equal(a, RngStream(5).substream("p", 3).normal(size=4))


@pytest.mark.parametrize("index", [2**64, 2**70])
def test_index_past_64_bits_refused(index):
    with pytest.raises(ConfigurationError, match="substream index"):
        RngStream(5).substream("p", index)
    RngStream(5).substream("p", 2**64 - 1)


@pytest.mark.parametrize("purpose", [5, None, b"p", ("p",)])
def test_non_str_purpose_refused(purpose):
    with pytest.raises(ConfigurationError, match="substream purpose"):
        RngStream(5).substream(purpose, 0)


@pytest.mark.parametrize("purpose", ["\ud800", "walk\udfff", "\udc80\ud800"])
def test_unencodable_purpose_refused(purpose):
    with pytest.raises(ConfigurationError, match="substream purpose"):
        RngStream(5).substream(purpose, 0)


def test_non_ascii_purpose_keeps_its_stream():
    # the key is blake2b of the UTF-8 purpose, a 0x1f and the little-endian index
    msg = "Überlebensmaß".encode("utf-8") + b"\x1f" + (7).to_bytes(8, "little")
    digest = hashlib.blake2b(msg, digest_size=16, key=(5).to_bytes(8, "little")).digest()
    want = np.random.Generator(np.random.Philox(key=int.from_bytes(digest, "little")))
    got = RngStream(5).substream("Überlebensmaß", 7)
    assert np.array_equal(got.normal(size=4), want.normal(size=4))
