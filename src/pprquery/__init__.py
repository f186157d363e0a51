"""Discounted-random-walk probability estimation under a metered
adjacency-list query model."""

from .graph import (DirectedGraph, build_graph, load_edge_list,
                    save_edge_list, DanglingNode, DuplicateEdge,
                    NodeIdOutOfRange, GraphError, PprqueryError)
from .oracle import (OracleHandle, Capabilities, QueryStats,
                     CapabilityDisabled, IndexOutOfRange)
from .exact import (exact_single_source, exact_single_target,
                    exact_pagerank, brute_force_pair, ExplosionGuard,
                    dump_csv)
from .classic import (monte_carlo_pair, approx_contributions,
                      power_iteration_target, bippr_pair, rbs_single_target,
                      single_target_jump_mc, single_target_bidir_jump,
                      default_r_max_pair)
from .bidir import (NewAlgoParams, RandPushState, ConstraintViolation,
                    derive_params, rand_push_threshold, backward_phase,
                    estimate_R_hat, single_pair_ppr)
from .single_node import (SuperSourceView, single_node_adaptive,
                          single_node_avg_jump, single_node_avg_full)
from .instances import (InstanceSpec, InstanceMeta, generate, closed_form_pi,
                        parameter_presets, FAMILIES, SpecConstraintViolation,
                        NoClosedForm, RegimeUndefined)

__version__ = "0.1.0"
