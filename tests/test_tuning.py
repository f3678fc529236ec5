"""Tests for the search space, pruning and the model-guided autotuner."""

import pytest

from repro.core.config import BlockingConfig
from repro.ir.stencil import GridSpec
from repro.stencils.library import load_pattern
from repro.model.batch import BatchModelEngine
from repro.tuning import reference
from repro.tuning.autotuner import AutoTuner, Ranking, tune
from repro.tuning.pruning import prune_configurations, pruning_statistics
from repro.tuning.search_space import SearchSpace, default_search_space, sconf_space


# The paper performs its parameter search on 8,192^2 grids with 120
# iterations (Section 6.3); the 3D search grid is kept at the full 512^3.
SMALL_2D_GRID = GridSpec((8192, 8192), 120)
SMALL_3D_GRID = GridSpec((512, 512, 512), 120)


# -- search space ---------------------------------------------------------------


def test_paper_search_space_sizes(j2d5pt, star3d1r):
    """Section 6.3: 144 configurations for 2D, 64 for 3D."""
    assert default_search_space(j2d5pt).size() == 16 * 3 * 3
    assert default_search_space(star3d1r).size() == 8 * 4 * 2


def test_search_space_enumeration_matches_size(j2d5pt):
    space = default_search_space(j2d5pt)
    assert len(list(space.configurations())) == space.size()


def test_search_space_with_register_limits(j2d5pt):
    space = default_search_space(j2d5pt)
    configs = list(space.configurations(include_register_limits=True))
    assert len(configs) == space.size() * len(space.register_limits)


def test_sconf_space_single_point(j2d5pt, star3d1r):
    assert sconf_space(j2d5pt).size() == 1
    assert sconf_space(star3d1r).size() == 1


# -- pruning ---------------------------------------------------------------------


def test_pruning_removes_invalid_configs(v100):
    pattern = load_pattern("star2d4r", "double")
    space = default_search_space(pattern)
    kept = prune_configurations(pattern, space.configurations(), v100)
    assert 0 < len(kept) < space.size()
    # bT = 16 with bS = 128 leaves no compute region for a radius-4 stencil.
    assert all(not (c.bT == 16 and c.bS == (128,)) for c in kept)


def test_pruning_statistics_add_up(j2d9pt, v100):
    space = default_search_space(j2d9pt)
    stats = pruning_statistics(j2d9pt, space.configurations(), v100)
    assert stats["total"] == space.size()
    assert stats["invalid"] + stats["register_pruned"] + stats["kept"] == stats["total"]


def test_pruning_register_rule_applies_to_double(v100):
    pattern = load_pattern("star2d4r", "double")
    space = default_search_space(pattern)
    stats = pruning_statistics(pattern, space.configurations(), v100)
    assert stats["register_pruned"] > 0


# -- autotuner -------------------------------------------------------------------------


def test_rank_orders_by_predicted_performance(j2d5pt, v100):
    tuner = AutoTuner(v100)
    ranked = tuner.rank(j2d5pt, SMALL_2D_GRID)
    predicted = [c.predicted_gflops for c in ranked]
    assert predicted == sorted(predicted, reverse=True)
    assert ranked[0].measured is None


def test_ranking_is_a_lazy_sequence_over_the_reference_order(j2d5pt, v100):
    ranking = AutoTuner(v100).rank(j2d5pt, SMALL_2D_GRID)
    expected = reference.rank(j2d5pt, SMALL_2D_GRID, v100)
    assert isinstance(ranking, Ranking)
    assert len(ranking) == len(expected) == ranking.survivors.size
    assert ranking[0] == expected[0]
    assert ranking[-1] == expected[-1]
    assert ranking[2:5] == expected[2:5]
    assert list(ranking) == expected
    with pytest.raises(IndexError):
        ranking[len(expected)]


def test_ranking_of_an_empty_space_builds_no_engine(j2d5pt, v100):
    space = SearchSpace(time_blocks=(), spatial_blocks=((128,),), stream_blocks=(None,))
    ranking = AutoTuner(v100).rank(j2d5pt, SMALL_2D_GRID, space)
    assert len(ranking) == 0 and not ranking and list(ranking) == []
    assert ranking.engine is None


def test_tune_materialises_only_the_top_k_on_one_engine(j2d5pt, monkeypatch):
    counts = {"engines": 0, "predictions": 0}
    build, prediction = BatchModelEngine.__init__, BatchModelEngine.prediction

    def counting_build(self, *args, **kwargs):
        counts["engines"] += 1
        build(self, *args, **kwargs)

    def counting_prediction(self, *args, **kwargs):
        counts["predictions"] += 1
        return prediction(self, *args, **kwargs)

    monkeypatch.setattr(BatchModelEngine, "__init__", counting_build)
    monkeypatch.setattr(BatchModelEngine, "prediction", counting_prediction)
    result = AutoTuner("V100", top_k=3).tune(j2d5pt, SMALL_2D_GRID)
    assert result.pruned_to > 3
    assert counts == {"engines": 1, "predictions": 3}


def test_tune_returns_best_of_topk(j2d5pt):
    result = tune(j2d5pt, SMALL_2D_GRID, "V100", top_k=3)
    assert len(result.top_candidates) == 3
    best_measured = max(c.measured_gflops for c in result.top_candidates)
    assert result.best.measured_gflops == best_measured


def test_tuned_beats_sconf(j2d5pt):
    from repro.core.config import sconf_configuration
    from repro.sim.timing import simulate_performance

    result = tune(j2d5pt, SMALL_2D_GRID, "V100")
    sconf = simulate_performance(j2d5pt, SMALL_2D_GRID, sconf_configuration(j2d5pt), "V100")
    assert result.best.measured_gflops >= sconf.gflops * 0.95


def test_tuned_2d_prefers_high_temporal_blocking(j2d5pt):
    """Fig. 8 / Table 5: first-order 2D stencils tune to bT around 8-13."""
    result = tune(j2d5pt, SMALL_2D_GRID, "V100")
    assert result.best_config.bT >= 6


def test_tuned_3d_box_prefers_low_temporal_blocking():
    """Table 5: high-order 3D box stencils peak at bT = 1."""
    pattern = load_pattern("box3d3r", "float")
    result = tune(pattern, SMALL_3D_GRID, "V100")
    assert result.best_config.bT <= 2


def test_model_accuracy_between_zero_and_one(j2d5pt):
    result = tune(j2d5pt, SMALL_2D_GRID, "V100")
    assert 0.2 < result.model_accuracy <= 1.0


def test_tuning_result_row_fields(j2d5pt):
    row = tune(j2d5pt, SMALL_2D_GRID, "V100").as_row()
    for key in ("pattern", "gpu", "dtype", "bT", "bS", "hS", "regs", "tuned_gflops", "model_gflops"):
        assert key in row


def test_explored_and_pruned_counts(j2d5pt):
    result = tune(j2d5pt, SMALL_2D_GRID, "V100")
    assert result.explored == 144
    assert 0 < result.pruned_to <= result.explored


def test_tuner_accepts_gpu_name_or_spec(j2d5pt, v100):
    by_name = AutoTuner("V100").tune(j2d5pt, SMALL_2D_GRID)
    by_spec = AutoTuner(v100).tune(j2d5pt, SMALL_2D_GRID)
    assert by_name.best_config == by_spec.best_config


def test_tuner_raises_when_nothing_valid(v100):
    # A radius-4 double-precision stencil with an artificially tiny space.
    from repro.tuning.search_space import SearchSpace

    pattern = load_pattern("star2d4r", "double")
    space = SearchSpace(time_blocks=(16,), spatial_blocks=((128,),), stream_blocks=(256,))
    with pytest.raises(ValueError):
        AutoTuner(v100).tune(pattern, SMALL_2D_GRID, space)


def test_register_limit_selection_changes_result(j2d5pt):
    result = tune(j2d5pt, SMALL_2D_GRID, "V100")
    limits = {c.config.register_limit for c in result.top_candidates}
    assert limits  # at least one limit choice was made per candidate
