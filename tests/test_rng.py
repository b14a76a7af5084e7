"""Counter-based noise streams: addressing, prefix stability, independence."""

import pickle

import numpy as np
import pytest

from chaoslab import rng
from chaoslab.rng import (
    NoisePlan,
    SLOT_DATA,
    SLOT_DIFFUSION,
    SLOT_LANGEVIN,
    child_seed,
)


class TestAddressing:
    def test_same_address_same_draws(self):
        a = NoisePlan(42).normals(0, SLOT_DIFFUSION, 17, 8, 3)
        b = NoisePlan(42).normals(0, SLOT_DIFFUSION, 17, 8, 3)
        np.testing.assert_array_equal(a, b)

    def test_rows_are_prefix_stable(self):
        # row k never depends on how many rows are generated
        plan = NoisePlan(7)
        small = plan.normals(0, SLOT_DIFFUSION, 3, 5, 2)
        large = plan.normals(0, SLOT_DIFFUSION, 3, 64, 2)
        np.testing.assert_array_equal(small, large[:5])

    def test_distinct_steps_slots_domains_differ(self):
        plan = NoisePlan(0)
        base = plan.normals(0, SLOT_DIFFUSION, 0, 4, 2)
        assert not np.array_equal(base, plan.normals(0, SLOT_DIFFUSION, 1, 4, 2))
        assert not np.array_equal(base, plan.normals(0, SLOT_LANGEVIN, 0, 4, 2))
        assert not np.array_equal(base, plan.normals(1, SLOT_DIFFUSION, 0, 4, 2))
        assert not np.array_equal(base, NoisePlan(1).normals(0, SLOT_DIFFUSION, 0, 4, 2))

    def test_uniforms_in_unit_interval(self):
        u = NoisePlan(3).uniforms(0, SLOT_DATA, 5, 1000)
        assert u.min() >= 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.05

    def test_moments_are_standard(self):
        z = NoisePlan(9).normals(0, SLOT_DIFFUSION, 0, 20000, 2).ravel()
        assert abs(z.mean()) < 0.02
        assert abs(z.var() - 1.0) < 0.03

    def test_rows_are_independent_streams(self):
        # correlation between particle rows across many steps is negligible
        plan = NoisePlan(11)
        draws = np.stack([plan.normals(0, SLOT_DIFFUSION, s, 2, 1)[:, 0] for s in range(4000)])
        corr = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
        assert abs(corr) < 0.05


M64 = (1 << 64) - 1


def splitmix_fold(*values):
    """The key words' mixing function, written out independently of chaoslab.rng."""
    acc = 0x243F6A8885A308D3
    for v in values:
        acc = (acc + (v & M64) + 0x9E3779B97F4A7C15) & M64
        acc = ((acc ^ (acc >> 30)) * 0xBF58476D1CE4E5B9) & M64
        acc = ((acc ^ (acc >> 27)) * 0x94D049BB133111EB) & M64
        acc ^= acc >> 31
    return acc


class TestKeys:
    @pytest.mark.parametrize("seed, domain, slot, step", [
        (0, 0, SLOT_DIFFUSION, 0), (123, 1, SLOT_LANGEVIN, 249), (2**63 + 5, 0, SLOT_DATA, 7),
    ])
    def test_draws_follow_the_hand_built_key(self, seed, domain, slot, step):
        key = np.array([splitmix_fold(seed, domain), splitmix_fold(slot, seed)], dtype=np.uint64)
        counter = np.array([0, 0, step, 1], dtype=np.uint64)
        want = np.random.Generator(np.random.Philox(counter=counter, key=key))
        plan = NoisePlan(seed)
        for _ in range(2):  # the second call reads the cached key
            got = plan.normals(domain, slot, step, 5, 2)
            np.testing.assert_array_equal(got, np.random.Generator(
                np.random.Philox(counter=counter, key=key)).standard_normal((5, 2)))
        np.testing.assert_array_equal(plan.uniforms(domain, slot, step, 4), want.random(4))

    def test_plan_pickles_and_compares_equal(self):
        plan = NoisePlan(77).child("rep", 3)
        plan.normals(0, SLOT_DIFFUSION, 0, 2, 1)
        back = pickle.loads(pickle.dumps(plan))
        assert back == plan and hash(back) == hash(plan)
        np.testing.assert_array_equal(back.normals(0, SLOT_DIFFUSION, 4, 3, 1),
                                      plan.normals(0, SLOT_DIFFUSION, 4, 3, 1))


def fresh(seed, domain, slot, step):
    """A generator built for the one address, as every draw did before streams were kept."""
    key = np.array([splitmix_fold(seed, domain), splitmix_fold(slot, seed)], dtype=np.uint64)
    counter = np.array([0, 0, step, 1], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


class TestReusedStreams:
    """A kept stream addressed by its counter draws what a fresh generator draws."""

    def test_shuffled_steps_on_interleaved_streams(self):
        plan = NoisePlan(2024)
        steps = np.random.default_rng(0).permutation(40).tolist() + [2**63 + 1, 3, 3]
        addresses = [(0, SLOT_DIFFUSION), (1, SLOT_DIFFUSION), (0, SLOT_DATA), (1, SLOT_LANGEVIN)]
        for i, step in enumerate(steps):
            domain, slot = addresses[i % len(addresses)]
            n = 1 + (7 * i) % 13
            np.testing.assert_array_equal(plan.normals(domain, slot, step, n, 2),
                                          fresh(2024, domain, slot, step).standard_normal((n, 2)))
            np.testing.assert_array_equal(plan.uniforms(domain, slot, step, n),
                                          fresh(2024, domain, slot, step).random(n))

    def test_odd_lengths_leave_no_buffered_words(self):
        # 3 uniforms leave a word of the Philox block unread; the next draw must not use it
        plan = NoisePlan(5)
        for step in (0, 1, 0):
            plan.uniforms(0, SLOT_DATA, step, 3)
            np.testing.assert_array_equal(plan.uniforms(0, SLOT_DATA, step + 1, 5),
                                          fresh(5, 0, SLOT_DATA, step + 1).random(5))

    def test_zero_row_draws(self):
        plan = NoisePlan(8)
        assert plan.normals(0, SLOT_DIFFUSION, 2, 0, 3).shape == (0, 3)
        assert plan.uniforms(0, SLOT_DATA, 2, 0).shape == (0,)
        np.testing.assert_array_equal(plan.normals(0, SLOT_DIFFUSION, 2, 4, 3),
                                      fresh(8, 0, SLOT_DIFFUSION, 2).standard_normal((4, 3)))

    def test_plan_pickles_without_its_streams(self):
        plan = NoisePlan(77).child("rep", 1)
        plan.normals(0, SLOT_DIFFUSION, 9, 16, 1)
        blob = pickle.dumps(plan)
        assert blob == pickle.dumps(NoisePlan(plan.run_seed))
        back = pickle.loads(blob)
        for step in (9, 0, 9):
            np.testing.assert_array_equal(back.normals(0, SLOT_DIFFUSION, step, 5, 1),
                                          fresh(plan.run_seed, 0, SLOT_DIFFUSION, step)
                                          .standard_normal((5, 1)))

    def test_the_stream_cache_is_bounded(self):
        for seed in range(rng._STREAM_CACHE + 40):
            NoisePlan(seed).uniforms(seed % 2, SLOT_DATA, 0, 1)
        info = rng._stream.cache_info()
        assert info.maxsize == rng._STREAM_CACHE <= 1024
        assert info.currsize <= rng._STREAM_CACHE
        # an evicted stream is rebuilt with the same draws
        np.testing.assert_array_equal(NoisePlan(0).uniforms(0, SLOT_DATA, 3, 6),
                                      fresh(0, 0, SLOT_DATA, 3).random(6))


class TestChildren:
    def test_child_deterministic_and_stable_across_processes(self):
        # string keys hash stably (no dependence on PYTHONHASHSEED)
        assert child_seed(1, "rep", 3) == child_seed(1, "rep", 3)
        assert child_seed(1, "rep", 3) != child_seed(1, "rep", 4)
        assert child_seed(1, "rep", 3) != child_seed(2, "rep", 3)
        assert NoisePlan(5).child("a", 1).run_seed == child_seed(5, "a", 1)

    def test_children_are_decorrelated(self):
        a = NoisePlan(5).child("x", 0).normals(0, SLOT_DIFFUSION, 0, 1000, 1)[:, 0]
        b = NoisePlan(5).child("x", 1).normals(0, SLOT_DIFFUSION, 0, 1000, 1)[:, 0]
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.1
