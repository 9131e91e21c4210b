"""Each model draws its samples in one Generator call. The points, and the Generator's state
after them, are bitwise those of one draw per point in turn, the loop each test keeps as
its oracle."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diracmech.models import CustomModel, KlauderModel, RelativisticParticle
from diracmech.models.klauder import R_SAMPLE_FLOOR

from conftest import on_shell_point

SEEDS = st.integers(0, 2**63 - 1)
COUNTS = st.integers(0, 12)
BOUND = st.floats(-10.0, 10.0)


def assert_same_draws(points, oracle, rng, oracle_rng):
    assert [x.coords.tobytes() for x in points] == [x.coords.tobytes() for x in oracle]
    assert rng.random() == oracle_rng.random()  # the next draw: the state after is the same


@given(SEEDS, COUNTS, st.tuples(BOUND, BOUND), st.tuples(BOUND, BOUND))
@settings(max_examples=200, deadline=None)
@example(seed=0, count=0, r_bounds=(0.1, 5.0), momentum_bounds=(-5.0, 5.0))
@example(seed=1, count=1, r_bounds=(1, 5), momentum_bounds=(-5, 5))  # integer JSON bounds
@example(seed=0, count=1, r_bounds=(0.0, 0.0), momentum_bounds=(0.0, -0.0))  # signed zeros
def test_klauder_sample_is_the_per_point_draws(seed, count, r_bounds, momentum_bounds):
    model = KlauderModel(alpha=1.0, k=1.0)
    r_range = (min(r_bounds), max(max(r_bounds), R_SAMPLE_FLOOR))
    # low <= high with -0.0 before 0.0, as the oracle's uniform(low, high) needs them: sorted
    # alone keeps (0.0, -0.0), which compare equal, and uniform(0.0, -0.0) rejects it
    momentum_range = tuple(sorted(momentum_bounds, key=lambda v: (v, math.copysign(1.0, v))))
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    points = model.sample(rng, count, r_range, momentum_range)
    lo = max(r_range[0], R_SAMPLE_FLOOR)
    oracle = []
    for _ in range(count):
        r = oracle_rng.uniform(lo, r_range[1])
        phi, p_r, p_phi = oracle_rng.uniform(*momentum_range, size=3)
        oracle.append(model.polar_chart.point([r, phi, p_r, p_phi]))
    assert_same_draws(points, oracle, rng, oracle_rng)


@given(SEEDS, COUNTS, st.integers(1, 4))
@settings(max_examples=100, deadline=None)
@example(seed=0, count=0, spatial_dim=1)
@example(seed=1, count=1, spatial_dim=3)
def test_particle_sample_is_the_per_point_draws(seed, count, spatial_dim):
    model = RelativisticParticle(mass=1.3, spatial_dim=spatial_dim)
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    points = model.sample(rng, count)
    oracle = [on_shell_point(model, oracle_rng.uniform(-5.0, 5.0, spatial_dim).tolist(),
                             oracle_rng.uniform(-5.0, 5.0, spatial_dim).tolist())
              for _ in range(count)]
    assert_same_draws(points, oracle, rng, oracle_rng)


@given(SEEDS, COUNTS, st.integers(1, 3))
@settings(max_examples=100, deadline=None)
@example(seed=0, count=0, n_pairs=1)
@example(seed=1, count=1, n_pairs=3)
def test_custom_sample_is_the_per_point_draws(seed, count, n_pairs):
    model = CustomModel(labels=tuple(f"q{i}" for i in range(n_pairs))
                        + tuple(f"p{i}" for i in range(n_pairs)))
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    points = model.sample(rng, count)
    oracle = [model.chart.point(oracle_rng.uniform(-3.0, 3.0, model.chart.dim))
              for _ in range(count)]
    assert_same_draws(points, oracle, rng, oracle_rng)
