"""Confidence intervals and anytime-valid confidence sequences for causal
effects identified by the back-door or front-door criterion, from IID or
adaptively collected categorical observation streams."""

from .counts import CountTable, Observation, dyadic_floor
from .effects import (EffectInterval, EffectQuery, backdoor_cs_anytime,
                      confidence_sequence, effect_interval, frontdoor_cs_anytime,
                      true_effect)
from .graph import (CriterionReport, Dag, check_backdoor, check_frontdoor,
                    enumerate_paths, format_path, load_dag, parse_dag_text,
                    path_blocked)
from .prediction import PredictionSet, prediction_set
from .simulator import (CausalModel, Cpt, Policy, Roles, draw_intervened_outcome,
                        load_model, make_policy, sample_adaptive, sample_iid)
from .coverage import CoverageReport, run_coverage, run_prediction_coverage

__version__ = "0.1.0"
