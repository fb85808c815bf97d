"""Heuristic obstacle-avoidance controller (the default "trained agent").

The controller combines three behaviours, each expressed as a steering or
throttle contribution:

* lane keeping — a PD law on the lateral offset and heading error;
* obstacle avoidance — a repulsive steering term that pushes away from the
  nearest perceived obstacle, growing as the obstacle gets closer and more
  head-on;
* speed control — proportional throttle toward the target speed, with a
  braking term when an obstacle is close ahead.

It completes the paper's 100 m obstacle course collision-free in both the
filtered and unfiltered configurations, which is all the evaluation requires
of the "RL agent" (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.contracts import kernel_contract
from repro.control.base import ControlInputs, Controller
from repro.dynamics.state import ControlAction


@dataclass
class ObstacleAvoidanceController(Controller):
    """Lane keeping + obstacle repulsion + speed control.

    Attributes:
        target_speed_mps: Cruise speed on open road.
        lane_gain: Steering gain on the lateral offset.
        heading_gain: Steering gain on the heading error.
        avoid_gain: Strength of the obstacle-repulsion steering term.
        avoid_range_m: Distance below which obstacle repulsion activates.
        brake_range_m: Distance below which the controller starts braking for
            a head-on obstacle.
        speed_gain: Throttle gain on the speed error.
        stale_caution: Extra fraction of braking applied when the perceived
            obstacle information is stale (gated perception output).
        curvature_gain: Feedforward steering per unit of centreline
            curvature, so curved roads are followed without relying on the
            lateral-error feedback alone (zero contribution on straights).
    """

    target_speed_mps: float = 8.0
    lane_gain: float = 0.3
    heading_gain: float = 1.2
    avoid_gain: float = 2.0
    avoid_range_m: float = 18.0
    brake_range_m: float = 12.0
    speed_gain: float = 0.5
    stale_caution: float = 0.2
    curvature_gain: float = 4.0

    @kernel_contract(
        speeds_mps="(N,) float64",
        target_speeds_mps="(N,) float64",
        lateral_offsets_m="(N,) float64",
        headings_rad="(N,) float64",
        road_curvatures_per_m="(N,) float64",
        has_obstacle="(N,) bool",
        obstacle_distances_m="(N,) float64",
        obstacle_bearings_rad="(N,) float64",
        obstacle_stale="(N,) bool",
        returns=("(N,) float64", "(N,) float64"),
    )
    def act_batch(
        self,
        speeds_mps: np.ndarray,
        target_speeds_mps: np.ndarray,
        lateral_offsets_m: np.ndarray,
        headings_rad: np.ndarray,
        road_curvatures_per_m: np.ndarray,
        has_obstacle: np.ndarray,
        obstacle_distances_m: np.ndarray,
        obstacle_bearings_rad: np.ndarray,
        obstacle_stale: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized lane-keep + avoid + speed law over ``(N,)`` arrays.

        ``has_obstacle`` is a bool mask; distance/bearing/stale values of
        masked-out elements are ignored.  Returns ``(steering, throttle)``
        arrays, both clipped to [-1, 1].  This is the single implementation
        of the control law — :meth:`act_from_inputs` is a 1-element view of
        it, so the serial and batch paths cannot drift.
        """
        speeds = np.asarray(speeds_mps, dtype=float)
        targets = np.asarray(target_speeds_mps, dtype=float)
        laterals = np.asarray(lateral_offsets_m, dtype=float)
        headings = np.asarray(headings_rad, dtype=float)
        curvatures = np.asarray(road_curvatures_per_m, dtype=float)
        has_obstacle = np.asarray(has_obstacle, dtype=bool)
        raw_distances = np.asarray(obstacle_distances_m, dtype=float)
        bearings = np.asarray(obstacle_bearings_rad, dtype=float)
        stale = np.asarray(obstacle_stale, dtype=bool)

        # PD steering toward the lane centre and road direction, plus a
        # curvature feedforward that tracks curved centrelines.
        lane_steer = (
            -self.lane_gain * laterals
            - self.heading_gain * headings
            + self.curvature_gain * curvatures
        )

        # Repulsive steering away from the nearest perceived obstacle; only
        # obstacles roughly ahead and within range require evasive steering.
        distances = np.maximum(0.5, raw_distances)
        ahead_weight = np.maximum(0.0, np.cos(bearings))
        proximity = (self.avoid_range_m - distances) / self.avoid_range_m
        # Steer away from the obstacle side; for a dead-ahead obstacle pick
        # the side with more room (the sign of the current lateral offset).
        direction = np.where(
            np.abs(bearings) > 1e-3,
            -np.copysign(1.0, bearings),
            np.where(laterals != 0.0, -np.copysign(1.0, laterals), 1.0),
        )
        avoid_active = (
            has_obstacle
            & ~(distances > self.avoid_range_m)
            & (ahead_weight > 0.0)
        )
        avoid_steer = np.where(
            avoid_active,
            direction * self.avoid_gain * proximity * ahead_weight,
            0.0,
        )
        steering = lane_steer + avoid_steer

        # Proportional speed tracking with obstacle-aware braking; stale
        # (gated) obstacle information brakes a little harder.
        throttle = self.speed_gain * (targets - speeds)
        braking = (self.brake_range_m - raw_distances) / self.brake_range_m
        braking = np.where(stale, braking * (1.0 + self.stale_caution), braking)
        brake_active = (
            has_obstacle & (raw_distances < self.brake_range_m) & (ahead_weight > 0.3)
        )
        throttle = np.where(brake_active, throttle - braking * ahead_weight, throttle)
        steering = np.minimum(1.0, np.maximum(-1.0, steering))
        return steering, np.minimum(1.0, np.maximum(-1.0, throttle))

    def act_from_inputs(self, inputs: ControlInputs) -> ControlAction:
        """Scalar facade: a 1-element view of :meth:`act_batch`."""
        has_obstacle = inputs.has_obstacle
        steering, throttle = self.act_batch(
            np.array([inputs.speed_mps]),
            np.array([inputs.target_speed_mps]),
            np.array([inputs.lateral_offset_m]),
            np.array([inputs.heading_rad]),
            np.array([inputs.road_curvature_per_m]),
            np.array([has_obstacle]),
            np.array([float(inputs.obstacle_distance_m) if has_obstacle else 0.0]),
            np.array([float(inputs.obstacle_bearing_rad) if has_obstacle else 0.0]),
            np.array([bool(inputs.obstacle_stale) if has_obstacle else False]),
        )
        return ControlAction(
            steering=float(steering[0]),
            throttle=float(throttle[0]),
        )
