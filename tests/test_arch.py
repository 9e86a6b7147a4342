"""Architecture space: configs, genome encoding, cost model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.arch import estimate_cost_reference, exit_branch_cost_reference
from repro.arch.config import STAGE_STRIDES, BackboneConfig, StageConfig
from repro.arch.cost import estimate_cost, exit_branch_cost
from repro.arch.space import BackboneSpace, miniature_space


@st.composite
def genomes(draw, space: BackboneSpace):
    bounds = space.gene_bounds()
    genes = [draw(st.integers(0, int(b) - 1)) for b in bounds]
    return np.asarray(genes, dtype=np.int64)


FULL_SPACE = BackboneSpace()
MINI_SPACE = miniature_space()

#: Byte widths for the oracle diff.  Integral and half-integral widths give
#: exact per-field sums in any order; 0.3 and 1/3 round, so only they catch
#: a change in the order the MBConv parts are added.
BYTE_WIDTHS = (4.0, 2.0, 1.0, 0.3, 1 / 3)


class TestStageConfig:
    def test_valid(self):
        StageConfig(width=32, depth=3, kernel=3, expand=4, stride=2)

    @pytest.mark.parametrize("kwargs", [
        {"width": 0, "depth": 1, "kernel": 3, "expand": 1},
        {"width": 16, "depth": 0, "kernel": 3, "expand": 1},
        {"width": 16, "depth": 1, "kernel": 4, "expand": 1},
        {"width": 16, "depth": 1, "kernel": 3, "expand": 2},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            StageConfig(**kwargs)


class TestBackboneConfig:
    def _config(self) -> BackboneConfig:
        return FULL_SPACE.decode(FULL_SPACE.min_genome())

    def test_stage_strides_enforced(self):
        stages = tuple(
            StageConfig(16, 1, 3, 1, stride=1) for _ in STAGE_STRIDES
        )
        with pytest.raises(ValueError, match="stride"):
            BackboneConfig(192, 16, stages, 1792)

    def test_wrong_stage_count(self):
        with pytest.raises(ValueError):
            BackboneConfig(192, 16, (StageConfig(16, 1, 3, 1, 1),), 1792)

    def test_layer_unrolling_structure(self):
        config = self._config()
        layers = config.layers()
        kinds = [spec.kind for spec in layers]
        assert kinds[0] == "stem"
        assert kinds[-2:] == ["head", "classifier"]
        assert kinds.count("mbconv") == config.total_mbconv_layers

    def test_mbconv_indices_sequential(self):
        config = self._config()
        indices = [s.index for s in config.layers() if s.kind == "mbconv"]
        assert indices == list(range(1, config.total_mbconv_layers + 1))

    def test_channel_continuity(self):
        config = FULL_SPACE.decode(FULL_SPACE.max_genome())
        layers = config.layers()
        for prev, cur in zip(layers, layers[1:]):
            if cur.kind in ("mbconv", "head"):
                assert cur.in_channels == prev.out_channels

    def test_resolution_halves_with_stride(self):
        config = self._config()
        spatial = config.resolution // 2  # after stem
        for spec in config.layers():
            if spec.kind == "mbconv":
                assert spec.in_resolution == spatial
                spatial = max(1, spatial // spec.stride)

    def test_final_resolution_is_total_stride(self):
        config = FULL_SPACE.decode(FULL_SPACE.max_genome())
        head = [s for s in config.layers() if s.kind == "head"][0]
        assert head.in_resolution == config.resolution // 32

    def test_channels_at_layer(self):
        config = self._config()
        assert config.channels_at_layer(1) == config.stages[0].width
        last = config.total_mbconv_layers
        assert config.channels_at_layer(last) == config.stages[-1].width
        with pytest.raises(ValueError):
            config.channels_at_layer(0)
        with pytest.raises(ValueError):
            config.channels_at_layer(last + 1)

    def test_key_unique_per_config(self):
        a = FULL_SPACE.decode(FULL_SPACE.min_genome())
        b = FULL_SPACE.decode(FULL_SPACE.max_genome())
        assert a.key != b.key


class TestBackboneSpace:
    def test_cardinality_exceeds_paper_bound(self):
        assert FULL_SPACE.cardinality() > 2.94e11

    def test_table2_value_sets(self):
        widths = FULL_SPACE.distinct_widths()
        assert len(widths) == 16
        assert widths[0] == 16 and widths[-1] == 1984
        assert FULL_SPACE.depth_values() == (1, 2, 3, 4, 5, 6, 7, 8)
        assert FULL_SPACE.resolutions == (192, 224, 256, 288)

    def test_genome_length(self):
        assert FULL_SPACE.genome_length == 2 + 4 * 7 + 1 == len(FULL_SPACE.gene_bounds())

    @settings(max_examples=60, deadline=None)
    @given(genomes(FULL_SPACE))
    def test_decode_encode_roundtrip(self, genome):
        config = FULL_SPACE.decode(genome)
        np.testing.assert_array_equal(FULL_SPACE.encode(config), genome)

    def test_out_of_range_genome_rejected(self):
        genome = FULL_SPACE.min_genome()
        genome[0] = 99
        with pytest.raises(ValueError):
            FULL_SPACE.decode(genome)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            FULL_SPACE.decode(np.zeros(5, dtype=np.int64))

    def test_sampling_respects_bounds(self, rng):
        bounds = FULL_SPACE.gene_bounds()
        for _ in range(50):
            genome = FULL_SPACE.sample_genome(rng)
            assert (genome >= 0).all() and (genome < bounds).all()

    def test_sampling_covers_options(self, rng):
        seen_res = {FULL_SPACE.sample(rng).resolution for _ in range(120)}
        assert seen_res == set(FULL_SPACE.resolutions)

    def test_min_max_genomes(self):
        small = FULL_SPACE.decode(FULL_SPACE.min_genome())
        large = FULL_SPACE.decode(FULL_SPACE.max_genome())
        assert small.total_mbconv_layers < large.total_mbconv_layers
        assert small.resolution < large.resolution

    def test_miniature_space_structurally_compatible(self):
        mini = miniature_space()
        assert mini.genome_length == FULL_SPACE.genome_length
        config = mini.decode(mini.sample_genome(np.random.default_rng(0)))
        assert len(config.stages) == 7


class TestCostModel:
    def test_macs_scale_with_resolution(self):
        base = FULL_SPACE.decode(FULL_SPACE.min_genome())
        genome = FULL_SPACE.min_genome()
        genome[0] = len(FULL_SPACE.resolutions) - 1
        big = FULL_SPACE.decode(genome)
        ratio = (big.resolution / base.resolution) ** 2
        measured = estimate_cost(big).total_macs / estimate_cost(base).total_macs
        # Classifier/SE terms are resolution-independent: allow 10% slack.
        assert measured == pytest.approx(ratio, rel=0.1)

    def test_macs_increase_with_every_dimension(self):
        base_genome = FULL_SPACE.min_genome()
        base = estimate_cost(FULL_SPACE.decode(base_genome)).total_macs
        for gene in range(FULL_SPACE.genome_length):
            genome = base_genome.copy()
            genome[gene] = FULL_SPACE.gene_bounds()[gene] - 1
            if genome[gene] == 0:
                continue
            bigger = estimate_cost(FULL_SPACE.decode(genome)).total_macs
            assert bigger > base, f"gene {gene} did not increase MACs"

    def test_prefix_is_monotone_and_bounded(self):
        config = FULL_SPACE.decode(FULL_SPACE.max_genome())
        cost = estimate_cost(config)
        previous = 0.0
        for position in range(1, config.total_mbconv_layers + 1):
            macs = cost.prefix_macs(position)
            assert macs > previous
            previous = macs
        assert previous < cost.total_macs  # head + classifier excluded

    def test_prefix_invalid_position(self):
        cost = estimate_cost(FULL_SPACE.decode(FULL_SPACE.min_genome()))
        with pytest.raises(ValueError):
            cost.prefix(999)

    def test_prefix_zero_is_stem_only(self):
        cost = estimate_cost(FULL_SPACE.decode(FULL_SPACE.min_genome()))
        layers = cost.prefix(0)
        assert len(layers) == 1 and layers[0].kind == "stem"

    def test_se_optional(self):
        config = FULL_SPACE.decode(FULL_SPACE.max_genome())
        with_se = estimate_cost(config, include_se=True).total_macs
        without = estimate_cost(config, include_se=False).total_macs
        assert with_se > without

    def test_traffic_positive_and_intensity_finite(self):
        cost = estimate_cost(FULL_SPACE.decode(FULL_SPACE.min_genome()))
        for layer in cost.layers:
            assert layer.traffic_bytes > 0
            assert np.isfinite(layer.arithmetic_intensity)

    def test_depthwise_lowers_intensity(self):
        """MBConv (depthwise-heavy) layers have lower arithmetic intensity
        than the dense head convolution."""
        config = FULL_SPACE.decode(FULL_SPACE.max_genome())
        cost = estimate_cost(config)
        head = next(l for l in cost.layers if l.kind == "head")
        mb = cost.mbconv_layers()[-1]
        assert head.arithmetic_intensity > mb.arithmetic_intensity

    def test_exit_branch_cost_scales_with_channels(self):
        small = exit_branch_cost(32, 14, 100)
        large = exit_branch_cost(128, 14, 100)
        assert large.macs > small.macs
        assert large.params > small.params

    def test_exit_branch_custom_width(self):
        narrow = exit_branch_cost(64, 14, 100, branch_width=16)
        default = exit_branch_cost(64, 14, 100)
        assert narrow.macs < default.macs

    def test_params_match_known_formula_for_classifier(self):
        config = FULL_SPACE.decode(FULL_SPACE.min_genome())
        cost = estimate_cost(config)
        classifier = cost.layers[-1]
        expected = config.head_width * config.num_classes + config.num_classes
        assert classifier.params == expected


class TestLoweringMatchesOracle:
    """Production lowering equals the frozen per-part lowering bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        space=st.sampled_from((FULL_SPACE, MINI_SPACE)),
        include_se=st.booleans(),
        bytes_per_element=st.sampled_from(BYTE_WIDTHS),
    )
    def test_every_field_equal(self, data, space, include_se, bytes_per_element):
        config = space.decode(data.draw(genomes(space)))
        got = estimate_cost(config, include_se, bytes_per_element)
        want = estimate_cost_reference(config, include_se, bytes_per_element)
        assert got.config_key == want.config_key
        assert got.layers == want.layers

    @settings(max_examples=40, deadline=None)
    @given(
        in_channels=st.integers(1, 256),
        resolution=st.integers(1, 56),
        num_classes=st.integers(1, 1000),
        branch_width=st.one_of(st.none(), st.integers(1, 256)),
        bytes_per_element=st.sampled_from(BYTE_WIDTHS),
    )
    def test_exit_branch_equal(
        self, in_channels, resolution, num_classes, branch_width, bytes_per_element
    ):
        assert exit_branch_cost(
            in_channels, resolution, num_classes, branch_width, bytes_per_element
        ) == exit_branch_cost_reference(
            in_channels, resolution, num_classes, branch_width, bytes_per_element
        )
