"""Confidence intervals and anytime-valid confidence sequences for causal
effects identified by the back-door or front-door criterion, from IID or
adaptively collected categorical observation streams."""

from .bounds import Radius, hoeffding_halfwidth, lil_halfwidth
from .counts import CountTable, Observation, dyadic_floor
from .effects import (DomainSizes, EffectInterval, EffectQuery,
                      backdoor_ci_adaptive, backdoor_ci_iid,
                      backdoor_cs_anytime, backdoor_midpoint_iid,
                      effect_interval, frontdoor_ci_adaptive,
                      frontdoor_ci_iid, frontdoor_cs_anytime,
                      frontdoor_halfwidth_variant, interval_via_expression,
                      true_effect)
from .graph import (CriterionReport, Dag, check_backdoor, check_frontdoor,
                    enumerate_paths, format_path, load_dag, parse_dag_text,
                    path_blocked)
from .intervals import BinOp, Expr, ProbInterval, Var, eval_expr, iv_add, iv_mul, \
    iv_sub
from .prediction import PredictionSet, prediction_set
from .simulator import (CausalModel, Cpt, Policy, Roles, draw_intervened_outcome,
                        load_model, make_policy, sample_adaptive, sample_iid)
from .coverage import CoverageReport, run_coverage, run_prediction_coverage

__version__ = "0.1.0"
