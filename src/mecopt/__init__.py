"""Joint transmit-power, server-association and video-resolution optimization
for edge-assisted play-to-earn streaming, with exact oracles and a
reproducible experiment harness."""

from .earnings import (DEFAULT_PARAMS, EarnFamily, EarnParams, check_assumption1,
                       eval_earning, fit_params, normalize_input)
from .model import (Allocation, Association, ServerProfile, SystemConfig,
                    UserProfile, evaluate_allocation, snap_resolution,
                    total_objective)
from .power import (EnergyInfeasibleError, PowerBinding, PowerSolution, WBranch,
                    energy_root_oracle, feasibility_ratio, lambert_w,
                    optimal_power)
from .sdp import SdpSolution, SdpStatus, project_psd, solve_sdp
from .association import (QcqpInstance, RoundingReport, SdrResult,
                          build_qcqp, descend_association, exact_association,
                          gaussian_randomize, solve_association_sdr)
from .resolution import optimal_resolution
from .optimizer import (BaselineKind, SolveOptions, SolveTrace, run_baseline,
                        solve_joint)
from .harness import (ResultRow, ScenarioSpec, SweepKind, emit_results,
                      generate_scenario, run_sweep)

__version__ = "0.1.0"
