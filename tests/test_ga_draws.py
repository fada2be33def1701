"""The GA's generations: draws made per mating, children built as arrays.

`ga_search` must match the per-mating loop of `helpers.reference_ga_search`
bit for bit, and one `_next_population` call must match one
`helpers.reference_generation` call.
"""

import warnings

import numpy as np
import pytest

from pfclab.plant import position_plant
from pfclab.synth import GaConfig, ObjectiveConfig, _next_population, ga_search
from pfclab.tf import RationalTF

from helpers import reference_ga_search, reference_generation

G_PEND = position_plant()
EASY = RationalTF((1.0,), (-1.0, 1.0))  # 1/(s-1)

# population, elitism and rates at their edges; an odd slot count drops
# the last mating's second child after its draws
EDGE_CONFIGS = [
    dict(population=2, elitism=0),
    dict(population=2, elitism=1, crossover_rate=1.0),
    dict(population=3, elitism=0, mutation_rate=1.0),
    dict(population=3, elitism=2, crossover_rate=0.0),
    dict(population=9, elitism=2, mutation_rate=0.0),
    dict(population=9, elitism=0, mutation_scale=0.0),
    dict(population=8, elitism=7, crossover_rate=1.0, mutation_rate=1.0),
    dict(population=11, elitism=4, crossover_rate=0.0, mutation_rate=1.0),
    dict(population=40),
]


def assert_same_search(obj, cfg, n):
    got, want = ga_search(obj, cfg, n), reference_ga_search(obj, cfg, n)
    assert got.history == want.history
    assert got.best_q.q == want.best_q.q
    assert got.best_F == want.best_F


@pytest.mark.parametrize("knobs", EDGE_CONFIGS)
def test_ga_search_matches_the_per_mating_loop(knobs):
    for plant in (EASY, G_PEND):
        obj = ObjectiveConfig(plant=plant)
        for n in (1, 2, 3):
            for seed in range(5):
                assert_same_search(obj, GaConfig(generations=6, seed=seed, **knobs), n)


def test_ga_search_matches_the_per_mating_loop_at_the_defaults():
    obj = ObjectiveConfig(plant=G_PEND)
    for seed in range(3):
        assert_same_search(obj, GaConfig(generations=4, seed=seed), 3)


def test_blend_of_an_overflowing_range_raises_as_uniform_does():
    obj = ObjectiveConfig(plant=EASY)
    # GaConfig refuses a range whose first blend span overflows, so the
    # spans grow past the largest double over the generations instead
    cfg = GaConfig(population=6, generations=10, crossover_rate=1.0, init_range=(-4e307, 4e307))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the search raises without a warning
        with pytest.raises(OverflowError, match="Range exceeds valid bounds"):
            ga_search(obj, cfg, 1)
    # the per-mating reference warns on its way to rng.uniform's error
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(OverflowError, match="Range exceeds valid bounds"):
            reference_ga_search(obj, cfg, 1)


def test_tournaments_with_tied_and_nan_fitness():
    # min(..., key=fit.__getitem__) keeps the first entrant unless a later
    # one is strictly fitter, so ties go to the first and NaN never wins
    # against an earlier entrant; fitness values here tie and go NaN often
    cfg = GaConfig(population=30, elitism=3)
    for seed in range(20):
        data = np.random.default_rng([seed, 1])
        pop = data.uniform(-12.0, 12.0, (30, 10))
        fit = data.integers(0, 4, 30).astype(float)
        fit[data.random(30) < 0.3] = np.nan
        got = _next_population(np.random.default_rng(seed), pop, fit, cfg)
        want = reference_generation(np.random.default_rng(seed), pop, fit, cfg)
        assert got.tobytes() == want.tobytes()


def test_an_overflowing_mutation_raises_on_a_kept_child_only():
    obj = ObjectiveConfig(plant=G_PEND)
    knobs = dict(population=2, elitism=1, mutation_rate=1.0, mutation_scale=1e3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the factors overflow without a warning
        with pytest.raises(OverflowError, match="mutated gene overflowed"):
            ga_search(obj, GaConfig(generations=2, **knobs), 1)
        # on seed 5 only the dropped second child overflows
        got = ga_search(obj, GaConfig(generations=1, seed=5, **knobs), 1)
    # the per-mating reference warns about that child and finishes
    with pytest.warns(RuntimeWarning, match="overflow"):
        want = reference_ga_search(obj, GaConfig(generations=1, seed=5, **knobs), 1)
    assert got.history == want.history
    assert got.best_q.q == want.best_q.q
