"""Deterministic 6-DoF simulation and control stack for an over-actuated
tiltwing VTOL UAV: first-principles aerodynamics, offline trim-map
optimization, dynamic-inversion attitude control with daisy-chain
allocation, and trim-map-based cruise control."""

__version__ = "0.1.0"

from .vehicle import (VehicleParams, ActuatorSet, load_vehicle_config,
                      default_vehicle, apply_actuator_rates)
from .aero import ForceMoment, total_wrench
from .dynamics import RigidBodyState, StateDerivative, state_derivative, integrate_step
from .trim import (TrimMap, TrimPoint, TrimWeights, build_trim_map,
                   solve_trim_point, lookup_trim, load_trim_map, save_trim_map)
from .attitude import (AttitudeController, AttitudeSetpoint, AllocationResult,
                       dynamic_inversion, nominal_moment_estimate,
                       daisy_chain_allocate)
from .cruise import (CruiseController, CruiseSetpoint, lookup_velocity,
                     weight_schedule, wls_allocate, control_derivatives,
                     turn_coordination)
from .sim import Scenario, RunLog, load_scenario, run_scenario, emit_report

__all__ = [
    "VehicleParams", "ActuatorSet", "load_vehicle_config", "default_vehicle",
    "apply_actuator_rates", "ForceMoment", "total_wrench",
    "RigidBodyState", "StateDerivative", "state_derivative", "integrate_step",
    "TrimMap", "TrimPoint", "TrimWeights", "build_trim_map", "solve_trim_point",
    "lookup_trim", "load_trim_map", "save_trim_map",
    "AttitudeController", "AttitudeSetpoint", "AllocationResult",
    "dynamic_inversion", "nominal_moment_estimate", "daisy_chain_allocate",
    "CruiseController", "CruiseSetpoint", "lookup_velocity",
    "weight_schedule", "wls_allocate", "control_derivatives", "turn_coordination",
    "Scenario", "RunLog", "load_scenario", "run_scenario", "emit_report",
]
