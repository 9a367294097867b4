"""Follow-the-perturbed-leader prediction with expert advice under unbounded
losses, with volume-scaled adaptive learning rates."""

from .adversary import AdversaryConfig, Prop1Trace, prop1_run, prop1_step, prot_probability_callback
from .engine import (
    RunRecord,
    batch_cumulative_losses,
    ifpl_run,
    monte_carlo_regret,
    probability_ratio_check,
    prot_run,
    prot_select,
    selection_probabilities_exact,
    selection_probabilities_mc,
)
from .game import (
    GameError,
    LossMatrix,
    check_fluctuation_bound,
    scaled_fluctuation,
    volume_trace,
)
from .harness import (
    AggregateReport,
    ExperimentConfig,
    bounded_unit_game,
    hannan_check,
    poly_envelope_game,
    random_fluc_bounded_game,
    run_experiment,
)
from .perturbation import (
    RngSpec,
    as_generator,
    expected_max_bound,
    inverse_exponential_cdf,
    max_tail_bound,
    sample_exponential,
    sample_exponential_array,
)
from .schedule import (
    GammaSchedule,
    ScheduleError,
    ScheduleParams,
    alpha_t,
    choose_a,
    epsilon_t,
    fpl_ifpl_gap_bound,
    general_bound,
    ifpl_regret_bound,
    mu_t,
    mu_values,
    optimized_bound,
    poly_bound,
    regret_bound,
)
from .trading import (
    PriceSeries,
    TradingConfig,
    TradingReport,
    defensive_lower_bound,
    expert_gains,
    fbm_generate,
    learner_gain,
    run_trading_experiment,
    volatility_identity_check,
)

__version__ = "0.1.0"
