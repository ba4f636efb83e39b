import hashlib

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from spp import Rng
from spp import rng as rng_module
from spp.rng import splitmix64

from helpers import peak_transient_bytes

# Published splitmix64 outputs for seed 0 (same constants as Java's
# SplittableRandom).  Rng(seed) is this sequence from seed, so these pin the
# stream itself.
SPLITMIX_SEED0 = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

# First 16 raw outputs for seed 42, frozen from the verified implementation.
GOLDEN_U64_SEED42 = [
    0xBDD732262FEB6E95,
    0x28EFE333B266F103,
    0x47526757130F9F52,
    0x581CE1FF0E4AE394,
    0x09BC585A244823F2,
    0xDE4431FA3C80DB06,
    0x37E9671C45376D5D,
    0xCCF635EE9E9E2FA4,
    0x5705B8770B3D7DD5,
    0x9E54D738297F77AE,
    0x3474724A775B19BF,
    0x7E348A0E451650BE,
    0x836DED897F3E46E6,
    0x851F977347ED6DB7,
    0xAA47E31C02E78EDC,
    0x341452C54D7C33F2,
]

GOLDEN_DOUBLES_SEED42 = [
    0.7415648787718233,
    0.1599103928769201,
    0.27860113025513866,
    0.34419071652363753,
    0.03803016854024621,
    0.8682280765465323,
    0.21840519371218436,
    0.8006318767135033,
    0.3399310389170206,
    0.6184820663561348,
    0.20490183179877552,
    0.4929891857946924,
    0.5133961163221494,
    0.5200132996032402,
    0.6651594107997011,
    0.20343510930023068,
]

# sha256 of Rng(seed).doubles(count).tobytes(), frozen from a loop of
# splitmix64 calls.  The counts are recovery-64's and cli-512's per-step
# dropout draws and recovery-64's task build.
PINNED_DOUBLES_SHA256 = {
    (1, 2048): "a9eb20924a5d9a1986983e458f10ea041bfb87e3d77087a0f7f48dcd07f2b53b",
    (1, 16384): "6103ce84f69224e78c6fc63fd66ceada419893f3bb8641d53b44f4044b3f9998",
    (1, 135168): "9ffd1fc5a700aa9f29b09a65d700516f65a1a22ff8263211adfe9216c50f4fad",
    (42, 2048): "a27dd57ce1099c86adf1710246ff05696dc9ad79f648f02ef2777662a5b45f1a",
    (42, 16384): "2bc143aefdfc4b2a0e9419e50251bcd05b2d93f03a29f9c803d0949fdc7da52b",
    (42, 135168): "e89b45dbe368ae27e4d583d0e3227df5fa933b1b0e500c00a16b4aa59c29e13f",
    (2**64 - 1, 2048): "b65d1fc7d1b43301a005b8d7926f7fd48e1415f359d2ba18cf08c3ad6c7a9f60",
    (2**64 - 1, 16384): "94fb4527389fa1571d42a02b60580b027877b129fabb91a23b22ccc2d72ebcd6",
    (2**64 - 1, 135168): "372f8c030905bc798124c5319dbb9ef8d94a3382aeab22a33402c803caf039d2",
}

CHUNK = rng_module._CHUNK
MASK = 2**64 - 1


def test_splitmix64_published_vectors():
    state = 0
    outs = []
    for _ in range(3):
        state, value = splitmix64(state)
        outs.append(value)
    assert outs == SPLITMIX_SEED0
    r = Rng(0)
    assert [r.next_u64() for _ in range(3)] == SPLITMIX_SEED0
    assert Rng(0).doubles(3).tolist() == [(w >> 11) * 2.0**-53 for w in SPLITMIX_SEED0]


def test_golden_stream_seed42():
    r = Rng(42)
    assert [r.next_u64() for _ in range(16)] == GOLDEN_U64_SEED42
    r = Rng(42)
    assert [r.next_double() for _ in range(16)] == GOLDEN_DOUBLES_SEED42


def test_same_seed_same_stream_distinct_seeds_differ():
    a = [Rng(9).next_u64() for _ in range(8)]
    b = [Rng(9).next_u64() for _ in range(8)]
    c = [Rng(10).next_u64() for _ in range(8)]
    assert a == b
    assert a != c


def test_bulk_doubles_equals_scalar_stream():
    scalar = Rng(3)
    bulk = Rng(3)
    want = np.array([scalar.next_double() for _ in range(100)])
    got = bulk.doubles(100)
    assert np.array_equal(got, want)


class SplitMixLoop:
    """The reference: ``splitmix64`` called once per word."""

    def __init__(self, state):
        self.s = state

    def word(self):
        self.s, out = splitmix64(self.s)
        return out

    def doubles(self, n):
        return np.array([(self.word() >> 11) * 2.0**-53 for _ in range(n)])


# Every phase but shrinking: each shrink step replays thousands of words
# through the pure-Python loop, so a failure took minutes to report instead
# of seconds.  The examples generated are the same.
NO_SHRINK = [phase for phase in Phase if phase is not Phase.shrink]

# Draw counts on both sides of the chunk size and across several chunks.
COUNTS = st.one_of(st.sampled_from([0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 5]),
                   st.integers(0, 2 * CHUNK + 1))

DRAWS = st.one_of(
    st.tuples(st.just("next_u64")),
    st.tuples(st.just("next_double")),
    st.tuples(st.just("doubles"), COUNTS),
    st.tuples(st.just("uniform"), st.integers(1, 40), st.integers(1, 40)),
    st.tuples(st.just("read_s")),
    st.tuples(st.just("write_s"), st.integers(0, MASK)),
)


@settings(max_examples=40, derandomize=True, deadline=None, phases=NO_SHRINK)
@given(st.integers(0, MASK), st.lists(DRAWS, max_size=8))
def test_any_interleaving_of_draws_equals_the_one_at_a_time_oracle(seed, ops):
    """Any mix of draws and reads and writes of ``Rng._s`` is the splitmix64 loop."""
    r = Rng(seed)
    oracle = SplitMixLoop(seed)
    for op, *args in ops:
        if op == "next_u64":
            assert r.next_u64() == oracle.word()
        elif op == "next_double":
            assert r.next_double() == oracle.doubles(1)[0]
        elif op == "doubles":
            assert r.doubles(*args).tobytes() == oracle.doubles(*args).tobytes()
        elif op == "uniform":
            rows, cols = args
            want = np.minimum(-2.0 + oracle.doubles(rows * cols) * 5.0, np.nextafter(3.0, -2.0))
            assert r.uniform(-2.0, 3.0, rows, cols).tobytes() == want.tobytes()
        elif op == "read_s":
            assert r._s == oracle.s
        else:
            r._s = oracle.s = args[0]
    assert r._s == oracle.s


@settings(max_examples=20, derandomize=True, deadline=None, phases=NO_SHRINK)
@given(st.integers(0, MASK), st.lists(COUNTS, max_size=4))
def test_any_split_of_lane_draws_equals_the_scalar_stream(seed, counts):
    """Bulk draws, a chunk of words computed side by side at a time, split at
    any counts, give Rng's own one-word-at-a-time stream and state."""
    bulk, scalar = Rng(seed), Rng(seed)
    got = np.concatenate([bulk.doubles(count) for count in counts] + [np.empty(0)])
    want = np.array([scalar.next_double() for _ in range(sum(counts))])
    assert got.tobytes() == want.tobytes()
    assert bulk._s == scalar._s
    assert bulk.next_u64() == scalar.next_u64()


@pytest.mark.parametrize("seed,count", sorted(PINNED_DOUBLES_SHA256))
def test_doubles_match_pinned_hashes(seed, count):
    digest = hashlib.sha256(Rng(seed).doubles(count).tobytes()).hexdigest()
    assert digest == PINNED_DOUBLES_SHA256[seed, count]


@pytest.mark.parametrize("count", [5, 1031])
def test_numpy_integer_count_gives_the_same_draws(count):
    assert Rng(9).doubles(np.int64(count)).tobytes() == Rng(9).doubles(count).tobytes()


def assert_doubles_hold_only_chunk_scratch(exponents):
    # The scratch is two arrays of at most CHUNK words.  2 KiB more covers
    # the array headers, the Python integers and the ~1 KiB that NumPy's
    # in-place operations take on a one-word chunk.
    for k in exponents:
        for count in (2**k - 1, 2**k, 2**k + 1):
            scratch = 2 * 8 * min(count, CHUNK)
            assert peak_transient_bytes(Rng(count).doubles, count) <= 8 * count + scratch + 2048


def test_refill_transient_memory_is_bounded():
    # Draws shorter than one chunk: the scratch is in proportion to the count.
    assert CHUNK == 2**12
    assert_doubles_hold_only_chunk_scratch(range(12))


def test_lane_path_memory_is_bounded():
    # Draws of about one chunk and more, up to 2**17 + 1 words: the scratch
    # stays at one chunk's whatever the count.
    assert CHUNK == 2**12
    assert_doubles_hold_only_chunk_scratch(range(12, 18))


def test_doubles_in_unit_interval_with_53_bit_grid():
    r = Rng(1)
    xs = r.doubles(1000)
    assert (xs >= 0.0).all() and (xs < 1.0).all()
    # Every value sits on the 2**-53 lattice.
    scaled = xs * 2.0**53
    assert np.array_equal(scaled, np.floor(scaled))


def test_uniform_bounds_and_mean():
    r = Rng(17)
    m = r.uniform(-2.0, 3.0, 100, 50)
    assert (m >= -2.0).all() and (m < 3.0).all()
    assert abs(m.mean() - 0.5) < 0.05


def test_uniform_row_major_draw_order():
    a = Rng(23).uniform(0.0, 1.0, 2, 3)
    b = Rng(23).doubles(6).reshape(2, 3)
    assert np.array_equal(a, b)


def test_uniform_stays_below_hi_even_for_tiny_intervals():
    lo = 1.0
    hi = np.nextafter(lo, 2.0)
    r = Rng(5)
    vals = r.uniform(lo, hi, 10, 10)
    assert (vals >= lo).all() and (vals < hi).all()


def test_uniform_rejects_bad_interval():
    r = Rng(0)
    with pytest.raises(ValueError):
        r.uniform(1.0, 1.0, 2, 2)
    with pytest.raises(ValueError):
        r.uniform(2.0, 1.0, 2, 2)
    with pytest.raises(ValueError, match="dimensions must be positive"):
        r.uniform(0.0, 1.0, 0, 3)
    with pytest.raises(ValueError, match="count must be >= 0"):
        r.doubles(-1)
