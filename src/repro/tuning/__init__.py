"""Model-guided parameter tuning (Section 6.3).

The tuner enumerates the paper's search space (``bT``, ``bS``, ``hS`` and the
register limit), prunes configurations whose estimated register demand
exceeds the hardware limits, ranks the survivors with the analytic
performance model, and finally "runs" the top candidates on the timing
simulator to pick the best — exactly the two-stage procedure the paper
describes (model-guided pruning followed by measuring the top five).
"""

from repro.tuning.search_space import SearchSpace, default_search_space
from repro.tuning.pruning import prune_configurations
from repro.tuning.autotuner import AutoTuner, Ranking, TuningCandidate, TuningResult, tune

__all__ = [
    "AutoTuner",
    "Ranking",
    "SearchSpace",
    "TuningCandidate",
    "TuningResult",
    "default_search_space",
    "prune_configurations",
    "tune",
]
