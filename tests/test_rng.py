"""Reference outputs and stream behavior for the deterministic generator."""

import numpy as np
import pytest

from framecalc.rng import SplitMix64, mix64, mix64_int

# first four outputs of the reference sequence for seed 0
SEED0_FIRST = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
]


def test_seed0_reference_outputs():
    rng = SplitMix64(0)
    assert [int(x) for x in rng.raw(4)] == SEED0_FIRST


def test_blocks_concatenate():
    whole = SplitMix64(12345).raw(17)
    split = SplitMix64(12345)
    parts = np.concatenate([split.raw(5), split.raw(0), split.raw(12)])
    assert np.array_equal(whole, parts)


def test_mix64_matches_scalar_reference():
    zs = [0, 1, 2**63, 2**64 - 1, 0x123456789ABCDEF0]
    arr = mix64(np.array(zs, dtype=np.uint64))
    for z, a in zip(zs, arr):
        assert mix64_int(z) == int(a)


def test_seed_wraps_mod_2_64():
    assert SplitMix64(2**64 + 5).seed == 5


def test_derive_is_stable_and_position_independent():
    a = SplitMix64(7).derive(3)
    b = SplitMix64(7).derive(3)
    assert a.seed == b.seed
    assert np.array_equal(a.raw(8), b.raw(8))
    parent = SplitMix64(7)
    parent.raw(100)
    assert parent.derive(3).seed == a.seed


def test_derive_children_differ():
    seeds = {SplitMix64(0).derive(i).seed for i in range(64)}
    assert len(seeds) == 64


def test_derive_negative_index_rejected():
    with pytest.raises(ValueError):
        SplitMix64(0).derive(-1)


def test_uniforms_in_unit_interval():
    u = SplitMix64(2).uniforms(10_000)
    assert np.all(u >= 0.0)
    assert np.all(u < 1.0)
    first = int(SplitMix64(2).raw(1)[0])
    assert u[0] == (first >> 11) * 2.0**-53


def test_gaussian_moments():
    g = SplitMix64(3).gaussians(200_000)
    assert abs(float(np.mean(g))) < 0.01
    assert abs(float(np.std(g)) - 1.0) < 0.01


def test_gaussian_odd_count_is_prefix_of_even():
    a = SplitMix64(4).gaussians(7)
    b = SplitMix64(4).gaussians(8)
    assert np.array_equal(a, b[:7])


def test_complex_gaussians_unit_second_moment():
    z = SplitMix64(5).complex_gaussians(100_000)
    assert abs(float(np.mean(np.abs(z) ** 2)) - 1.0) < 0.01


def test_integers_in_range():
    k = SplitMix64(6).integers(1000, 7)
    assert np.all((k >= 0) & (k < 7))
    with pytest.raises(ValueError):
        SplitMix64(6).integers(1, 0)


def test_subset_sorted_within_range():
    sub = SplitMix64(8).subset(20)
    assert sub == sorted(set(sub))
    assert all(0 <= i < 20 for i in sub)


def test_sample_distinct_sorted():
    got = SplitMix64(9).sample(10, 4)
    assert len(got) == 4
    assert got == sorted(set(got))
    assert SplitMix64(9).sample(5, 0) == []
    with pytest.raises(ValueError):
        SplitMix64(9).sample(3, 4)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_normals_and_unit_vector_follow_the_field(field):
    direct = SplitMix64(31).gaussians(5) if field == "real" else SplitMix64(31).complex_gaussians(5)
    got = SplitMix64(31).normals(5, field)
    assert got.dtype == np.complex128
    assert got.tobytes() == direct.astype(np.complex128).tobytes()
    u = SplitMix64(31).unit_vector(5, field)
    assert u.tobytes() == (got / np.linalg.norm(got)).tobytes()
    if field == "real":
        assert not np.any(u.imag)
    with pytest.raises(ValueError):
        SplitMix64(31).unit_vector(0, field)
