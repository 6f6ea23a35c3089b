"""Thresholded structural network dynamics: engine, rule catalog, verifiers."""

from .engine import (RunConfig, RunTrace, Verdict, check_degree_properties,
                     decide_pairs, degree_classes, frozen_nodes, run)
from .errors import AbdynError, ConfigError, ContractError, InputError
from .graph import DynGraph, EdgeDelta, graph_fingerprint, induced_ball
from .kcore import CoreDecomposition, peel, verify_kcore_run
from .potentials import (Potential, community_potential, degree_like_potential,
                         min_degree_potential, proper_degree_potential,
                         rule110_potential, two_step_merge)
from .schedulers import (CompleteScheduler, CurrentEdgesScheduler,
                         FairRoundRobinScheduler, InteractionSet, Scheduler,
                         ScriptedScheduler, SocialScheduler, UniformRandomScheduler)
from .social import (GeneralProtocol, SocialProfile, niceness_g, run_general,
                     star_predicate, star_protocol)

__version__ = "0.1.0"
