"""Two-environment Gaussian mixture laboratory for invariant linear classification."""

from types import ModuleType as _ModuleType

from .errors import (
    ConfigError,
    DegenerateConstraintError,
    DegenerateLabelsError,
    IllConditionedGramError,
    InfeasibleMarginError,
    NonSeparableError,
    TwoEnvError,
)
from .estimators import mean_estimator, per_env_mean, two_phase_learn
from .experiments import (
    ExperimentConfig,
    RunRecord,
    SigmaRule,
    emit,
    resolve_sigma,
    run_sweep,
)
from .metrics import (
    error_at_theta,
    gaussian_tail,
    gaussian_tail_inv,
    invariance_gaps,
    normalized_margin,
    robust_error,
    spurious_core_ratio,
)
from .model import (
    LabeledDataset,
    LinearModel,
    ProblemInstance,
    pool,
    sample_dataset,
    sample_orthogonal_means,
    sample_reduced,
)
from .presets import PresetParams, load_constants, theorem_preset
from .rng import stream
from .training import (
    TrainConfig,
    cosine_similarity,
    gd_train,
    irm_margin_alignment,
    max_margin,
)

# the imported names; the submodules the imports bind here are not exported
__all__ = [name for name in dir()
           if not (name.startswith("_") or isinstance(globals()[name], _ModuleType))]
__version__ = "0.1.0"
