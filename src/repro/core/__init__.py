"""APPLE core: the paper's primary contribution.

* :mod:`repro.core.engine` — the Optimization Engine (ILP of Eq. 1–8,
  solved by LP relaxation + rounding), whose ``place()`` is the only planner;
* :mod:`repro.core.placement` — placement-plan result types;
* :mod:`repro.core.subclasses` — sub-class assignment from the spatial
  distribution d (Sec. V-A, monotone-coupling construction);
* :mod:`repro.core.rulegen` — the Rule Generator (Table III layouts, vSwitch
  rules, TCAM accounting with and without tagging);
* :mod:`repro.core.dynamic` — the Dynamic Handler and fast failover (Sec. VI);
* :mod:`repro.core.reconfigure` — the one commit step from a plan to a
  converged epoch (``realize`` / ``bootstrap`` / ``commit``);
* :mod:`repro.core.controller` — the central controller wiring everything;
* :mod:`repro.core.baselines` — the ingress strawman and Table I's
  framework comparison.
"""

from repro.core.baselines import FRAMEWORK_COMPARISON, ingress_placement
from repro.core.controller import AppleController, UnknownClassError
from repro.core.dynamic import DynamicHandler, FailoverEvent
from repro.core.engine import EngineConfig, OptimizationEngine
from repro.core.metrics import (
    tcam_usage_with_tagging,
    tcam_usage_without_tagging,
)
from repro.core.verify import verify_deployment, VerificationReport
from repro.core.placement import InstanceRef, PlacementPlan
from repro.core.rulegen import GeneratedRules, RuleGenerator
from repro.core.subclasses import Subclass, SubclassPlan, assign_subclasses

__all__ = [
    "OptimizationEngine",
    "EngineConfig",
    "PlacementPlan",
    "InstanceRef",
    "Subclass",
    "SubclassPlan",
    "assign_subclasses",
    "RuleGenerator",
    "GeneratedRules",
    "DynamicHandler",
    "FailoverEvent",
    "AppleController",
    "UnknownClassError",
    "ingress_placement",
    "FRAMEWORK_COMPARISON",
    "tcam_usage_with_tagging",
    "tcam_usage_without_tagging",
    "verify_deployment",
    "VerificationReport",
]
