"""Accuracy surrogates: calibration anchors, monotonicity, the exit oracle."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accuracy.calibration import DEFAULT_ANCHORS
from repro.accuracy.exit_model import BackboneExitOracle, ExitCapabilityModel
from repro.accuracy.surrogate import AccuracySurrogate
from repro.arch.cost import estimate_cost
from repro.baselines.attentivenas import attentivenas_model, attentivenas_models
from repro.exits.placement import ExitPlacement


class TestAccuracySurrogate:
    def test_anchored_to_paper_values(self, surrogate):
        a0 = surrogate.noiseless_accuracy(attentivenas_model("a0"))
        a6 = surrogate.noiseless_accuracy(attentivenas_model("a6"))
        assert a0 == pytest.approx(DEFAULT_ANCHORS.a0_accuracy, abs=0.02)
        assert a6 == pytest.approx(DEFAULT_ANCHORS.a6_accuracy, abs=0.02)

    def test_noise_small_and_deterministic(self, surrogate):
        config = attentivenas_model("a3")
        first = surrogate.accuracy(config)
        second = surrogate.accuracy(config)
        assert first == second
        assert abs(first - surrogate.noiseless_accuracy(config)) < 0.5

    def test_family_monotone(self, surrogate, baselines):
        accs = [surrogate.noiseless_accuracy(cfg) for cfg in baselines.values()]
        assert all(b > a - 0.15 for a, b in zip(accs, accs[1:]))
        assert accs[-1] > accs[0]

    def test_capacity_score_bounds(self, surrogate, space, rng):
        for _ in range(30):
            z = surrogate.capacity_score(space.sample(rng))
            assert 0.0 <= z <= 1.0

    def test_min_max_span(self, surrogate, space):
        small = surrogate.noiseless_accuracy(space.decode(space.min_genome()))
        large = surrogate.noiseless_accuracy(space.decode(space.max_genome()))
        assert large - small > 1.0  # noticeable accuracy spread
        assert 80.0 < small < large < 92.0  # CIFAR-100-plausible band

    def test_accuracy_fraction(self, surrogate):
        config = attentivenas_model("a0")
        assert surrogate.accuracy_fraction(config) == pytest.approx(
            surrogate.accuracy(config) / 100.0
        )

    def test_different_seeds_different_noise(self, space):
        config = attentivenas_model("a2")
        a = AccuracySurrogate(space, seed=1).accuracy(config)
        b = AccuracySurrogate(space, seed=2).accuracy(config)
        assert a != b

    def test_capacity_monotone_in_resolution(self, surrogate, space):
        genome = space.min_genome()
        scores = []
        for idx in range(len(space.resolutions)):
            genome = genome.copy()
            genome[0] = idx
            scores.append(surrogate.capacity_score(space.decode(genome)))
        assert all(b > a for a, b in zip(scores, scores[1:]))


#: Digests of (accuracy, noiseless accuracy, capacity score) over 500 seeded
#: configs, recorded while every call still lowered the backbone per term.
SURROGATE_DIGESTS = {
    0: "d87eb76245d2ae6e6cf8b27d9e233e90",
    3: "96d750a16530f9e5ffda588ef8ad0aa8",
}


def _surrogate_digest(space, seed: int) -> str:
    surrogate = AccuracySurrogate(space, seed=seed)
    rng = np.random.default_rng(500)
    values = []
    for _ in range(500):
        config = space.sample(rng)
        values.append((
            surrogate.accuracy(config),
            surrogate.noiseless_accuracy(config),
            surrogate.capacity_score(config),
        ))
    data = np.asarray(values, dtype=np.float64).tobytes()
    return hashlib.blake2b(data, digest_size=16).hexdigest()


class TestSurrogateIdentity:
    """One lowering per surrogate call changes no output bit."""

    @pytest.mark.parametrize("seed", sorted(SURROGATE_DIGESTS))
    def test_golden_digest(self, space, seed):
        assert _surrogate_digest(space, seed) == SURROGATE_DIGESTS[seed]

    def test_given_cost_matches_own_lowering(self, surrogate, space, rng):
        for _ in range(40):
            config = space.sample(rng)
            cost = estimate_cost(config)
            assert surrogate.accuracy(config).hex() == surrogate.accuracy(config, cost).hex()
            assert (
                surrogate.noiseless_accuracy(config).hex()
                == surrogate.noiseless_accuracy(config, cost).hex()
            )


class TestExitCapabilityModel:
    def test_maturity_saturating(self):
        model = ExitCapabilityModel()
        depths = np.linspace(0.1, 1.0, 10)
        values = model.maturity(depths)
        assert np.all(np.diff(values) > 0)  # increasing
        assert np.all(np.diff(values, 2) < 0)  # concave (diminishing returns)
        assert values[-1] == pytest.approx(1.0)

    def test_capability_below_backbone(self):
        model = ExitCapabilityModel()
        for u in (0.3, 0.7, 1.0):
            assert model.capability(0.9, u) <= 0.9

    def test_head_correlation_structure(self):
        model = ExitCapabilityModel()
        near = model.head_correlation(0.50, 0.55)
        far = model.head_correlation(0.30, 0.95)
        assert near > 0.95  # adjacent heads nearly redundant
        assert far < near
        assert model.head_correlation(0.4, 0.4) == pytest.approx(1.0)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ExitCapabilityModel(maturity_k=0)
        with pytest.raises(ValueError):
            ExitCapabilityModel(head_quality=1.5)


class TestBackboneExitOracle:
    def _oracle(self, acc=0.875, layers=20, seed=0, **kwargs):
        return BackboneExitOracle("bb", layers, acc, seed=seed, **kwargs)

    def test_marginals_exact(self):
        oracle = self._oracle()
        assert oracle.final_column().mean() == pytest.approx(0.875, abs=1 / 2048)
        cap = oracle.model.capability(0.875, 10 / 20)
        assert oracle.n_i(10) == pytest.approx(cap, abs=1 / 1024)

    def test_n_i_monotone_in_depth(self):
        oracle = self._oracle()
        values = [oracle.n_i(p) for p in range(5, 20)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_columns_cached_and_deterministic(self):
        oracle = self._oracle()
        col_a = oracle.exit_column(8)
        col_b = oracle.exit_column(8)
        assert col_a is col_b
        other = self._oracle()
        np.testing.assert_array_equal(col_a, other.exit_column(8))

    def test_adjacent_exits_redundant_far_exits_not(self):
        oracle = self._oracle()
        base = oracle.exit_column(10)
        near = oracle.exit_column(11)
        far = oracle.exit_column(19)
        overlap_near = (base & near).sum() / max(base.sum(), 1)
        overlap_far_extra = (far & ~base).sum()
        assert overlap_near > 0.9  # near-duplicate
        assert overlap_far_extra > 0  # distant exit catches new samples

    def test_union_exceeds_final(self):
        """Spread exits catch samples the final head misses — the EEx
        accuracy gain of paper Table III."""
        oracle = self._oracle()
        placement = ExitPlacement(20, (5, 8, 11, 14, 17))
        stats = oracle.evaluate_placement(placement)
        assert stats.dynamic_accuracy > stats.final_accuracy + 0.01
        assert stats.dynamic_accuracy < stats.final_accuracy + 0.10

    def test_usage_sums_to_one(self):
        oracle = self._oracle()
        stats = oracle.evaluate_placement(ExitPlacement(20, (6, 12, 18)))
        assert stats.usage.sum() == pytest.approx(1.0)

    def test_position_bounds(self):
        oracle = self._oracle()
        with pytest.raises(ValueError):
            oracle.exit_column(0)
        with pytest.raises(ValueError):
            oracle.exit_column(21)

    def test_placement_layer_mismatch(self):
        oracle = self._oracle(layers=20)
        with pytest.raises(ValueError):
            oracle.evaluate_placement(ExitPlacement(15, (6,)))

    def test_invalid_accuracy(self):
        with pytest.raises(ValueError):
            self._oracle(acc=1.2)

    def test_different_backbones_different_streams(self):
        a = BackboneExitOracle("bb-a", 20, 0.875, seed=0)
        b = BackboneExitOracle("bb-b", 20, 0.875, seed=0)
        assert not np.array_equal(a.exit_column(10), b.exit_column(10))

    @settings(max_examples=15, deadline=None)
    @given(st.floats(0.5, 0.95), st.integers(10, 40))
    def test_dynamic_accuracy_bounded(self, acc, layers):
        oracle = BackboneExitOracle("x", layers, acc, seed=1, n_samples=512)
        positions = tuple(range(5, layers, max(1, layers // 6)))
        if not positions:
            return
        stats = oracle.evaluate_placement(ExitPlacement(layers, positions))
        assert stats.final_accuracy <= stats.dynamic_accuracy <= 1.0
