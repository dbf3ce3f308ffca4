"""Deterministic 6-DoF simulation and control stack for an over-actuated
tiltwing VTOL UAV: first-principles aerodynamics, offline trim-map
optimization, dynamic-inversion attitude control with daisy-chain
allocation, and trim-map-based cruise control."""
