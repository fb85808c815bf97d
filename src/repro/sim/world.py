"""Mutable driving world: vehicle + road + obstacles.

The world is the single source of ground truth the rest of the stack queries:
the controller and perception models observe it (possibly with noise), and
the safety machinery reads the relative state of the nearest obstacle from it
— mirroring the paper, which retrieves the safety-filter state estimates
"directly from Carla for simplicity" (Section VI-A).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.contracts import kernel_contract
from repro.dynamics.bicycle import KinematicBicycleModel
from repro.dynamics.params import VehicleParams
from repro.dynamics.state import ControlAction, VehicleState, wrap_angle
from repro.sim.collision import first_collision
from repro.sim.obstacles import Obstacle
from repro.sim.road import LanePose, Road


@dataclass
class WorldStatus:
    """Episode termination flags for the current world state."""

    collided: bool = False
    off_road: bool = False
    finished: bool = False

    @property
    def done(self) -> bool:
        """True if the episode should terminate."""
        return self.collided or self.off_road or self.finished


@dataclass
class World:
    """The simulated driving world.

    :meth:`lane_pose`, :meth:`status` and :meth:`progress` share one
    memoized road projection per ``state`` object.  :class:`VehicleState` is
    frozen, so :meth:`step`, :meth:`reset` and a direct ``world.state = ...``
    all install a new object, which invalidates the memo.

    Attributes:
        road: Road geometry.
        obstacles: Obstacles along the route, as seen at the current time
            (obstacles with a motion policy are moved by :meth:`step`).
        vehicle_params: Physical parameters of the ego vehicle.
        state: Current ego vehicle state.
        time_s: Simulation time elapsed since reset.
    """

    road: Road
    obstacles: list[Obstacle] = field(default_factory=list)
    vehicle_params: VehicleParams = field(default_factory=VehicleParams)
    state: VehicleState = field(default_factory=VehicleState)
    time_s: float = 0.0

    def __post_init__(self) -> None:
        self._model = KinematicBicycleModel(self.vehicle_params)
        self._initial_state = self.state
        self._initial_obstacles = list(self.obstacles)
        self._has_moving_obstacles = any(
            obstacle.motion is not None for obstacle in self.obstacles
        )
        self._memo_key: tuple[VehicleState, Road] | None = None
        self._memo_frenet = (0.0, 0.0)
        self._memo_pose: LanePose | None = None

    @property
    def dynamics(self) -> KinematicBicycleModel:
        """The kinematic bicycle model advancing the ego vehicle."""
        return self._model

    def reset(self, state: VehicleState | None = None) -> VehicleState:
        """Reset time, the ego vehicle and the obstacles to their initial state."""
        self.state = state if state is not None else self._initial_state
        self.time_s = 0.0
        if self._has_moving_obstacles:
            self.obstacles = list(self._initial_obstacles)
        return self.state

    def step(self, control: ControlAction, dt: float) -> VehicleState:
        """Advance the world by ``dt`` seconds under ``control``.

        Moving obstacles are re-evaluated at the new simulation time, so
        every subsequent query (status, nearest threat, scans) sees their
        moved positions.
        """
        self.state = self._model.step(self.state, control, dt)
        self.time_s += dt
        if self._has_moving_obstacles:
            self.obstacles = [
                obstacle.at_time(self.time_s) for obstacle in self._initial_obstacles
            ]
        return self.state

    # ------------------------------------------------------------------
    # Queries used by perception, control and the safety machinery.
    # ------------------------------------------------------------------
    def nearest_obstacle(self) -> Obstacle | None:
        """The safety-relevant nearest obstacle, if any.

        Uses the same ranking as :meth:`nearest_obstacle_view` — surface
        distance with a forward-half-plane preference — so the two queries
        always name the same threat for the same state.
        """
        view = self.nearest_obstacle_view()
        return None if view is None else view[2]

    def _frenet(self) -> tuple[float, float]:
        """Ego projection ``(s_raw, d)``, memoized per ``(state, road)`` object."""
        key = self._memo_key
        if key is None or key[0] is not self.state or key[1] is not self.road:
            self._memo_key = (self.state, self.road)
            self._memo_frenet = self.road.centerline.project(
                self.state.x_m, self.state.y_m
            )
            self._memo_pose = None
        return self._memo_frenet

    def lane_pose(self) -> LanePose:
        """Road-relative (Frenet) pose of the ego vehicle."""
        s_raw, d = self._frenet()
        if self._memo_pose is None:
            self._memo_pose = self.road.lane_pose_from(self.state.heading_rad, s_raw, d)
        return self._memo_pose

    @staticmethod
    @kernel_contract(
        xs="(N,) float64",
        ys="(N,) float64",
        hs="(N,) float64",
        obs_x="(N, K) float64",
        obs_y="(N, K) float64",
        obs_r="(N, K) float64",
        returns=("(N,) float64", "(N,) float64", "(N,) int64"),
    )
    def nearest_obstacle_view_batch(
        xs: np.ndarray,
        ys: np.ndarray,
        hs: np.ndarray,
        obs_x: np.ndarray,
        obs_y: np.ndarray,
        obs_r: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized nearest-obstacle-view kernel over ``(N,)`` states.

        Ranks all ``K`` obstacles of each of ``N`` episodes at once:
        surface distance (``max(0, centre_distance - radius)``) and bearing
        relative to the heading, with obstacles in the forward half-plane
        (``|bearing| <= pi/2``) preferred and the globally nearest one used
        only when nothing lies ahead.  ``np.argmin``'s first-occurrence
        tie-break matches the scalar ``min()`` over the obstacle list.

        Args:
            xs, ys, hs: ``(N,)`` vehicle poses.
            obs_x, obs_y, obs_r: ``(N, K)`` obstacle centres and radii,
                with ``K >= 1`` (callers handle the no-obstacle case).

        Returns:
            ``(surface_distance, bearing, obstacle_index)`` arrays of shape
            ``(N,)``.
        """
        dx = obs_x - xs[:, None]
        dy = obs_y - ys[:, None]
        centre_distance = np.hypot(dx, dy)
        bearing = wrap_angle(np.arctan2(dy, dx) - hs[:, None])
        surface = np.maximum(0.0, centre_distance - obs_r)
        ahead = np.abs(bearing) <= 0.5 * math.pi
        any_ahead = ahead.any(axis=1)
        ranking = np.where(ahead | ~any_ahead[:, None], surface, np.inf)
        nearest = np.argmin(ranking, axis=1)
        rows = np.arange(xs.shape[0])
        return surface[rows, nearest], bearing[rows, nearest], nearest

    def nearest_obstacle_view(self) -> tuple[float, float, Obstacle] | None:
        """Return ``(surface_distance, bearing, obstacle)`` for the nearest threat.

        The distance is measured to the obstacle's safety boundary (its
        surface), matching the paper's remark that ``x'`` characterizes the
        obstacle's safety-bound coordinates rather than its exact state.

        Obstacles in the forward half-plane are preferred: an obstacle that
        has already been passed (behind the vehicle) is not the safety-
        relevant reference point even if it is momentarily the closest one.
        When no obstacle lies ahead, the globally nearest one is returned.

        1-element view of :meth:`nearest_obstacle_view_batch` (the kernel).
        """
        if not self.obstacles:
            return None
        distance, bearing, nearest = self.nearest_obstacle_view_batch(
            np.array([self.state.x_m], dtype=float),
            np.array([self.state.y_m], dtype=float),
            np.array([self.state.heading_rad], dtype=float),
            np.array([[obstacle.x_m for obstacle in self.obstacles]], dtype=float),
            np.array([[obstacle.y_m for obstacle in self.obstacles]], dtype=float),
            np.array(
                [[obstacle.radius_m for obstacle in self.obstacles]], dtype=float
            ),
        )
        return float(distance[0]), float(bearing[0]), self.obstacles[int(nearest[0])]

    def status(self) -> WorldStatus:
        """Evaluate collision / off-road / completion flags."""
        vehicle_radius = self.vehicle_params.collision_radius_m
        collided = (
            first_collision(self.state, self.obstacles, vehicle_radius) is not None
        )
        s_raw, d = self._frenet()
        off_road = self.road.off_road_from(
            d, vehicle_half_width_m=0.5 * self.vehicle_params.width_m
        )
        finished = self.road.finished_from(s_raw)
        return WorldStatus(collided=collided, off_road=off_road, finished=finished)

    def progress(self) -> float:
        """Fraction of the route completed, in [0, 1]."""
        return self.road.progress_from(self._frenet()[0])
