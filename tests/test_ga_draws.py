"""The GA's two passes: draws read off raw PCG64 words, children built as arrays.

`WordDraws` must consume exactly the words numpy's own calls consume and
return exactly their values; `ga_search` must then match the per-mating
loop of `helpers.reference_ga_search` bit for bit.
"""

import numpy as np
import pytest

from pfclab.plant import position_plant
from pfclab.synth import (
    GaConfig,
    ObjectiveConfig,
    WordDraws,
    _draw_matings,
    _next_population,
    ga_search,
    word_bound,
)
from pfclab.tf import RationalTF

from helpers import reference_ga_search, reference_generation

G_PEND = position_plant()
EASY = RationalTF((1.0,), (-1.0, 1.0))  # 1/(s-1)

# 2**31 + 5 rejects about half of all 32-bit halves
BOUNDS = (2, 3, 199, 200, 201, 2**16 + 1, 2**31 + 5)


def units(words):
    return (words >> 11) * 2.0**-53


def buffered_half(rng):
    state = rng.bit_generator.state
    return state["uinteger"] if state["has_uint32"] else None


@pytest.mark.parametrize("N", BOUNDS)
def test_bounded_draws_match_integers(N):
    # numpy keeps a drawn word's high half for the next 32-bit draw, past
    # 64-bit draws; random() and standard_normal() calls in between, and a
    # half already waiting on odd seeds, check that it carries
    for seed in range(50):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        if seed % 2:
            assert ours.integers(0, 7, 1) == theirs.integers(0, 7, 1)
        draws = WordDraws(ours)
        plan = np.random.default_rng([seed, N])
        for _ in range(12):
            k = int(plan.integers(0, 8))
            assert draws.integers(N, k) == theirs.integers(0, N, k).tolist()
            j = int(plan.integers(0, 4))
            if plan.random() < 0.5:
                assert units(draws.words(j)).tolist() == theirs.random(j).tolist()
            else:
                assert draws.standard_normal(j).tolist() == theirs.standard_normal(j).tolist()
        # the same words were read, and the same half waits
        assert ours.bit_generator.state["state"] == theirs.bit_generator.state["state"]
        assert draws._half == buffered_half(theirs)


def test_words_give_random_doubles():
    for seed in range(50):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        n = 1 + seed % 17
        assert units(WordDraws(ours).words(n)).tolist() == theirs.random(n).tolist()


def test_word_bound_is_the_unit_comparison():
    w = WordDraws(np.random.default_rng(7)).words(4000)
    u = units(w)
    rates = [0.0, 5e-324, 0.1, 0.5, 0.9, 1.0, u[0], u[1], u[2], u[3]]
    rates += [np.nextafter(u[4], 0.0), np.nextafter(u[5], 1.0), float(u.min()), float(u.max())]
    for r in rates:
        # and the words whose units lie next to r, with all low bits clear or set
        m = int(r * 2.0**53)
        near = [k for k in range(m - 2, m + 3) if 0 <= k < 2**53]
        words = np.concatenate([w, [k << 11 | low for k in near for low in (0, 2047)]]).astype(np.uint64)
        assert ((words < word_bound(r)) == (units(words) < r)).all(), r


@pytest.mark.parametrize("N", (0, 1, 2**32, 2**32 + 1, 2**40))
def test_bounds_numpy_draws_another_way_are_refused(N):
    draws = WordDraws(np.random.default_rng(0))
    with pytest.raises(ValueError, match="outside"):
        draws.integers(N, 3)


def test_only_pcg64_is_read():
    with pytest.raises(ValueError, match="PCG64"):
        WordDraws(np.random.Generator(np.random.MT19937(0)))


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


@pytest.mark.filterwarnings("ignore:overflow encountered in subtract:RuntimeWarning")
def test_blend_of_an_overflowing_range_raises_as_uniform_does():
    obj = ObjectiveConfig(plant=EASY)
    # GaConfig refuses a range whose first blend span overflows, so the
    # spans grow past the largest double over the generations instead
    cfg = GaConfig(population=6, generations=10, crossover_rate=1.0, init_range=(-4e307, 4e307))
    for search in (ga_search, reference_ga_search):
        with pytest.raises(OverflowError, match="Range exceeds valid bounds"):
            search(obj, cfg, 1)


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
        got = _next_population(pop, fit, _draw_matings(WordDraws(np.random.default_rng(seed)), cfg, 10), cfg)
        want = reference_generation(np.random.default_rng(seed), pop, fit, cfg)
        assert got.tobytes() == want.tobytes()
