import numpy as np
import pytest

from einverse import ShapeError, random_tensor, sampling
from einverse.sampling import _u64_stream

LONG = 100_000
MASK = (1 << 64) - 1


class SplitMix64:
    """Scalar SplitMix64, one output per call: the reference the vectorised stream matches.

    It writes out its constants rather than importing the module's, so the two
    implementations share no code.
    """

    def __init__(self, seed):
        self._state = seed & MASK

    def next_u64(self):
        self._state = (self._state + 0x9E3779B97F4A7C15) & MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)

    def next_symmetric(self):
        """Uniform double in [-1, 1): the top 53 bits scaled to [0, 1), then mapped."""
        return 2.0 * ((self.next_u64() >> 11) * 2.0**-53) - 1.0


def scalar_entries(n, seed, complex_entries):
    """Entries drawn one by one from the scalar generator (the reference)."""
    gen = SplitMix64(seed)
    out = np.empty(n, dtype=np.complex128)
    for i in range(n):
        re = gen.next_symmetric()
        out[i] = complex(re, gen.next_symmetric() if complex_entries else 0.0)
    return out


def test_known_answer_seed_zero():
    expected = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    gen = SplitMix64(0)
    assert [gen.next_u64() for _ in expected] == expected
    assert _u64_stream(0, 3).tolist() == expected


@pytest.mark.parametrize("complex_entries", [False, True])
def test_known_answer_entries_seed_zero(complex_entries):
    # pins the map from stream to entries without the scalar reference: the first
    # four doubles at seed 0 are two complex entries' parts, or the first two real entries
    doubles = [float.fromhex(x) for x in ("0x1.8882a0e5ec772p-1", "-0x1.18761955e46a0p-3",
                                          "-0x1.e4ee8b9dffdb0p-1", "0x1.e22ee2a1c9320p-1")]
    expected = np.array(doubles).view(np.complex128) if complex_entries else doubles[:2]
    got = random_tensor((2,), 1, 0, complex_entries).data
    assert got.tobytes() == np.asarray(expected, dtype=np.complex128).tobytes()


@pytest.mark.parametrize("seed", [0, -7, 2**70 + 3])
def test_vector_stream_matches_scalar_stream(seed):
    gen = SplitMix64(seed)
    assert _u64_stream(seed, LONG).tolist() == [gen.next_u64() for _ in range(LONG)]


@pytest.mark.parametrize("complex_entries", [False, True])
@pytest.mark.parametrize("seed", [0, -7, 2**70 + 3])
def test_random_tensor_matches_scalar_draws(seed, complex_entries):
    n = LONG // 2 if complex_entries else LONG
    t = random_tensor((n,), 1, seed, complex_entries)
    expected = scalar_entries(n, seed, complex_entries)
    # bit for bit, so signed zeros and every last digit count
    assert t.data.tobytes() == expected.tobytes()


@pytest.mark.parametrize("extents, split", [((3, 4, 5), 1), ((1,), 0), ((2, 3, 2, 3), 2)])
def test_random_tensor_shape_and_entries(extents, split):
    t = random_tensor(extents, split, 11)
    assert t.extents == extents and t.split == split
    expected = scalar_entries(int(np.prod(extents)), 11, True)
    assert t.data.ravel().tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "extents, split, message",
    [((-1, 2), 1, r"extents must all be >= 1, got \(-1, 2\)"),
     ((2, 3), 3, "split 3 out of range for 2 extents")],
)
def test_random_tensor_refuses_a_bad_shape_before_drawing(extents, split, message, monkeypatch):
    drawn = []
    monkeypatch.setattr(sampling, "_u64_stream", lambda *args: drawn.append(args))
    with pytest.raises(ShapeError, match=message):
        random_tensor(extents, split, 0)
    assert drawn == []
