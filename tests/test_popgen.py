"""Tests for population generation and the class transform."""

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from echosim import (
    Mindedness,
    MixtureSpec,
    OpinionDist,
    class_counts,
    clipped_normal_mixture,
    evenly_spaced,
    read_population_csv,
    round_half_up,
    transform,
    write_population_csv,
)

M = Mindedness


def mix_80_20(n=200, seed=0):
    return MixtureSpec(n=n, fractions={M.CLOSE: 0.8, M.OPEN: 0.2}, rng_seed=seed)


class TestRounding:
    def test_half_goes_up(self):
        assert round_half_up(2.5) == 3
        assert round_half_up(2.4) == 2
        assert round_half_up(2.6) == 3
        assert round_half_up(0.5) == 1
        assert round_half_up(0.0) == 0


class TestEvenlySpaced:
    def test_three_agents(self):
        pop = evenly_spaced(3, 0.5)
        assert np.array_equal(pop.opinions, np.array([0.0, 0.5, 1.0]))

    def test_two_agents(self):
        assert np.array_equal(evenly_spaced(2, 0.1).opinions, np.array([0.0, 1.0]))

    def test_spacing_exact(self):
        pop = evenly_spaced(11, 0.2)
        assert np.max(np.abs(np.diff(pop.opinions) - 0.1)) <= 1e-15
        assert np.all(pop.epsilons == 0.2)

    def test_too_small_rejected(self):
        # a mixture laid out evenly spaced keeps the same rule and message,
        # and its spec rejects the size before any population is drawn
        builds = (
            lambda: evenly_spaced(1, 0.2),
            lambda: MixtureSpec(n=1, fractions={M.OPEN: 1.0}, opinion_dist=OpinionDist.EVENLY_SPACED),
        )
        for build in builds:
            with pytest.raises(ValueError, match="^n must be at least 2, got 1$"):
                build()

    @pytest.mark.parametrize(
        "n, epsilon, message",
        [
            (10, True, "epsilon must be a number"),
            (10, "0.2", "epsilon must be a number"),
            (2.5, 0.2, "n must be an integer"),
            (True, 0.2, "n must be an integer"),
        ],
    )
    def test_strict_numbers(self, n, epsilon, message):
        with pytest.raises(ValueError, match=message):
            evenly_spaced(n, epsilon)


class TestClassCounts:
    def test_80_20(self):
        assert class_counts(mix_80_20()) == {M.CLOSE: 160, M.OPEN: 40}

    def test_last_class_absorbs(self):
        spec = MixtureSpec(
            n=10, fractions={M.CLOSE: 0.33, M.MODERATE: 0.33, M.OPEN: 0.34}
        )
        counts = class_counts(spec)
        assert counts[M.CLOSE] == 3 and counts[M.MODERATE] == 3 and counts[M.OPEN] == 4
        assert sum(counts.values()) == 10

    def test_empty_last_class_at_small_n(self):
        # 0.5 of 3 rounds up to 2 twice; the moderate count is capped at
        # the one agent left, as it is when open is not named at all
        spec = MixtureSpec(n=3, fractions={M.CLOSE: 0.5, M.MODERATE: 0.5, M.OPEN: 0.0})
        assert class_counts(spec) == {M.CLOSE: 2, M.MODERATE: 1, M.OPEN: 0}
        spec.fractions = {M.CLOSE: 0.5, M.MODERATE: 0.5}
        assert class_counts(spec) == {M.CLOSE: 2, M.MODERATE: 1}

    def test_counts_sum_to_n(self):
        for n in range(1, 40):
            spec = MixtureSpec(
                n=n, fractions={M.CLOSE: 0.2, M.MODERATE: 0.45, M.OPEN: 0.35}
            )
            assert sum(class_counts(spec).values()) == n

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            MixtureSpec(n=10, fractions={M.CLOSE: 0.5, M.OPEN: 0.6})
        with pytest.raises(ValueError):
            MixtureSpec(n=10, fractions={M.CLOSE: -0.1, M.OPEN: 1.1})
        with pytest.raises(ValueError):
            MixtureSpec(n=10, fractions={})

    def test_near_one_tolerated(self):
        MixtureSpec(n=10, fractions={M.CLOSE: 0.3 + 1e-12, M.OPEN: 0.7})


class TestMixture:
    def test_opinions_clipped(self):
        spec = MixtureSpec(n=500, fractions={M.OPEN: 1.0}, sd=0.6, rng_seed=1)
        pop = clipped_normal_mixture(spec)
        assert np.all(pop.opinions >= 0.0) and np.all(pop.opinions <= 1.0)
        assert np.any(pop.opinions == 0.0) and np.any(pop.opinions == 1.0)

    def test_epsilons_match_counts(self):
        pop = clipped_normal_mixture(mix_80_20())
        assert int(np.sum(pop.epsilons == 0.01)) == 160
        assert int(np.sum(pop.epsilons == 0.45)) == 40

    def test_average_openness(self):
        # 0.8 * 0.01 + 0.2 * 0.45 = 0.098 exactly at n=200
        pop = clipped_normal_mixture(mix_80_20())
        assert abs(float(np.mean(pop.epsilons)) - 0.098) <= 1e-12

    def test_seed_reproducibility(self):
        # 2**63 - 1 is the largest seed an integer key takes
        for seed in (5, 2**63 - 1):
            a = clipped_normal_mixture(mix_80_20(seed=seed))
            b = clipped_normal_mixture(mix_80_20(seed=seed))
            assert np.array_equal(a.opinions, b.opinions)
            assert np.array_equal(a.epsilons, b.epsilons)

    def test_seed_sensitivity(self):
        a = clipped_normal_mixture(mix_80_20(seed=0))
        b = clipped_normal_mixture(mix_80_20(seed=1))
        assert not np.array_equal(a.opinions, b.opinions)

    def test_evenly_spaced_variant(self):
        spec = MixtureSpec(
            n=5,
            fractions={M.CLOSE: 0.4, M.OPEN: 0.6},
            opinion_dist=OpinionDist.EVENLY_SPACED,
            rng_seed=2,
        )
        pop = clipped_normal_mixture(spec)
        assert np.array_equal(pop.opinions, np.linspace(0, 1, 5))
        assert int(np.sum(pop.epsilons == 0.01)) == 2

    def test_custom_epsilons(self):
        spec = MixtureSpec(
            n=10,
            fractions={M.MODERATE: 1.0},
            epsilons={M.MODERATE: 0.18},
        )
        pop = clipped_normal_mixture(spec)
        assert np.all(pop.epsilons == 0.18)
        assert np.all(pop.mindedness == M.MODERATE)

    @pytest.mark.parametrize("sd", [0.0, -0.1])
    def test_sd_must_be_positive(self, sd):
        with pytest.raises(ValueError, match="sd must be positive"):
            MixtureSpec(n=10, fractions={M.OPEN: 1.0}, sd=sd)

    def test_missing_epsilon_rejected(self):
        with pytest.raises(ValueError):
            MixtureSpec(n=10, fractions={M.CLOSE: 1.0}, epsilons={M.OPEN: 0.45})

    def test_seed_and_size_must_be_integers(self):
        # True would seed the generator with 1, 5.7 would draw 5 agents
        for bad in ({"rng_seed": True}, {"rng_seed": 1.5}, {"n": 5.7}, {"n": True}):
            with pytest.raises(ValueError, match="must be an integer"):
                MixtureSpec(**{"n": 10, "fractions": {M.OPEN: 1.0}, **bad})

    def test_ids_sequential(self):
        pop = clipped_normal_mixture(mix_80_20(n=20))
        assert pop.ids.tolist() == list(range(20))


class TestTransform:
    def test_fraction_zero_is_identity(self):
        base = clipped_normal_mixture(mix_80_20())
        out = transform(base, M.CLOSE, 0.0, 0.2, rng_seed=3)
        assert np.array_equal(out.opinions, base.opinions)
        assert np.array_equal(out.epsilons, base.epsilons)

    def test_fraction_one_converts_all(self):
        base = clipped_normal_mixture(mix_80_20())
        out = transform(base, M.CLOSE, 1.0, 0.2, rng_seed=3)
        assert np.sum(out.mindedness == M.CLOSE) == 0
        assert np.sum(out.mindedness == M.MODERATE) == 160

    def test_opinions_and_ids_unchanged(self):
        base = clipped_normal_mixture(mix_80_20())
        out = transform(base, M.CLOSE, 0.5, 0.2, rng_seed=4)
        assert np.array_equal(out.opinions, base.opinions)
        assert np.array_equal(out.ids, base.ids)

    def test_count_rounds_half_up(self):
        base = clipped_normal_mixture(mix_80_20())  # 160 close
        out = transform(base, M.CLOSE, 0.253, 0.2, rng_seed=0)
        converted = np.sum(out.mindedness == M.MODERATE)
        assert converted == round_half_up(0.253 * 160) == 40

    def test_only_from_class_touched(self):
        base = clipped_normal_mixture(mix_80_20())
        out = transform(base, M.CLOSE, 0.5, 0.2, rng_seed=4)
        opens = base.mindedness == M.OPEN
        assert opens.any()
        assert np.array_equal(out.epsilons[opens], base.epsilons[opens])

    def test_seeded_choice(self):
        base = clipped_normal_mixture(mix_80_20())
        a = transform(base, M.CLOSE, 0.5, 0.2, rng_seed=7)
        b = transform(base, M.CLOSE, 0.5, 0.2, rng_seed=7)
        c = transform(base, M.CLOSE, 0.5, 0.2, rng_seed=8)
        assert np.array_equal(a.epsilons, b.epsilons)
        assert not np.array_equal(a.epsilons, c.epsilons)

    def test_fraction_bounds(self):
        base = clipped_normal_mixture(mix_80_20())
        with pytest.raises(ValueError):
            transform(base, M.CLOSE, 1.1, 0.2)

    @pytest.mark.parametrize(
        "args, message",
        [
            ({"fraction": True}, "fraction must be a number"),
            ({"fraction": "0.5"}, "fraction must be a number"),
            ({"epsilon_new": float("inf")}, "epsilon_new must be finite"),
            ({"rng_seed": 1.5}, "rng_seed must be an integer"),
            ({"rng_seed": True}, "rng_seed must be an integer"),
        ],
    )
    def test_strict_numbers(self, args, message):
        base = clipped_normal_mixture(mix_80_20(n=20))
        with pytest.raises(ValueError, match=message):
            transform(base, M.CLOSE, **{"fraction": 0.5, **args})


class TestPopulationCsv:
    def test_round_trip(self):
        base = clipped_normal_mixture(mix_80_20(n=30, seed=9))
        text = write_population_csv(base)
        again = read_population_csv(text)
        assert np.array_equal(again.opinions, base.opinions)
        assert np.array_equal(again.epsilons, base.epsilons)
        assert np.array_equal(again.ids, base.ids)
        assert np.array_equal(again.injected, base.injected)

    def test_header(self):
        text = write_population_csv(evenly_spaced(2, 0.1))
        assert text.splitlines()[0] == "agent_id,opinion,epsilon,mindedness,injected"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            read_population_csv("agent_id,opinion,epsilon,mindedness,injected\n")

    @pytest.mark.parametrize("flag", ["True", "yes", "1", ""])
    def test_injected_other_than_true_or_false_rejected(self, flag):
        text = f"agent_id,opinion,epsilon,mindedness,injected\n0,0.5,0.1,close,{flag}\n"
        with pytest.raises(ValueError, match="injected must be true or false"):
            read_population_csv(text)

    def test_mindedness_must_be_the_label_of_epsilon(self):
        text = "agent_id,opinion,epsilon,mindedness,injected\n0,0.3,0.45,open,false\n1,0.5,0.01,open,false\n"
        with pytest.raises(ValueError, match="line 3: mindedness 'open', but epsilon 0.01 is 'close'"):
            read_population_csv(text)

    @pytest.mark.parametrize("column", ["agent_id", "opinion", "epsilon", "mindedness", "injected"])
    def test_missing_column_named(self, column):
        header = "agent_id,opinion,epsilon,mindedness,injected".replace(column, "other")
        with pytest.raises(ValueError, match=f"population csv has no {column} column"):
            read_population_csv(f"{header}\n0,0.5,0.1,close,false\n")

    @pytest.mark.parametrize(
        "row, message",
        [
            ("0,abc,0.1,close,false", "line 3: opinion must be a number, got 'abc'"),
            ("0,0.5,,close,false", "line 3: epsilon must be a number, got ''"),
            ("1.0,0.5,0.1,close,false", "line 3: agent_id must be an integer, got '1.0'"),
            ("0,0.5,0.1,closed,false", "line 3: mindedness must be close, moderate or open, got 'closed'"),
            ("0,0.5", "line 3: epsilon must be a number, got None"),
            ("0,0.5,0.1,close,false,zzz", "line 3: unexpected cell 'zzz' past the header"),
            ("0,1.5,0.1,close,false", "line 3: opinions must lie in [0, 1], got 1.5"),
            ("0,0.5,-0.1,close,false", "line 3: epsilon must be finite and nonnegative, got -0.1"),
            ("1,0.5,0.1,close,false", "line 3: agent id 1 repeats line 2"),
            ("99999999999999999999,0.5,0.1,close,false", "line 3: agent_id must fit in int64, got '99999999999999999999'"),
            ("0,0.5,0_1,open,false", "line 3: epsilon must be a number, got '0_1'"),
            ("1_0,0.5,0.1,close,false", "line 3: agent_id must be an integer, got '1_0'"),
            # the csv module raises before it counts the line it was reading
            pytest.param(
                f"0,{'5' * 200_000},0.1,close,false", "line 3: field larger than field limit (131072)", id="long cell"
            ),
        ],
    )
    def test_bad_cell_named(self, row, message):
        text = f"agent_id,opinion,epsilon,mindedness,injected\n1,0.2,0.1,close,false\n{row}\n"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_population_csv(text)

    def test_header_past_the_csv_field_limit_named(self):
        text = f"agent_id,opinion,epsilon,mindedness,injected{'x' * 200_000}\n0,0.5,0.1,close,false\n"
        with pytest.raises(ValueError, match=re.escape("population csv line 1: field larger than field limit")):
            read_population_csv(text)

    @pytest.mark.parametrize(
        "header, column",
        [
            ("agent_id,opinion,epsilon,mindedness,injected,extra", "extra"),
            ("extra,agent_id,opinion,epsilon,mindedness,injected", "extra"),
            ("agent_id,opinion,epsilon,mindedness,injected,opinion", "opinion"),
        ],
    )
    def test_unexpected_column_named(self, header, column):
        with pytest.raises(ValueError, match=f"population csv has an unexpected column '{column}'"):
            read_population_csv(f"{header}\n0,0.5,0.01,close,false,0.5\n")


@given(st.integers(min_value=1, max_value=300), st.integers(min_value=0, max_value=50))
def test_mixture_counts_always_sum(n, seed):
    spec = MixtureSpec(
        n=n, fractions={M.CLOSE: 0.2, M.MODERATE: 0.45, M.OPEN: 0.35}, rng_seed=seed
    )
    pop = clipped_normal_mixture(spec)
    counts = class_counts(spec)
    assert pop.n == n
    got = {m: int(np.sum(pop.mindedness == m)) for m in (M.CLOSE, M.MODERATE, M.OPEN)}
    assert got == {m: counts.get(m, 0) for m in (M.CLOSE, M.MODERATE, M.OPEN)}


@given(
    st.integers(min_value=0, max_value=30),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_transform_preserves_opinions(seed, fraction):
    base = clipped_normal_mixture(mix_80_20(n=40, seed=1))
    out = transform(base, M.CLOSE, fraction, 0.2, rng_seed=seed)
    assert np.array_equal(out.opinions, base.opinions)
    converted = int(np.sum(out.epsilons != base.epsilons))
    assert converted == round_half_up(fraction * 32)  # 32 close agents at n=40
