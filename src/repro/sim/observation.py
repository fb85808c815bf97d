"""Range-scan observations of the world.

The perception models of the paper (ResNet-152 detectors, the VAE of
ShieldNN) consume camera frames.  Offline we cannot render camera images, so
the functional observation this repository feeds to detectors and the VAE is
a 1-D *range scan*: a fan of rays cast from the vehicle over a field of view,
each returning the distance to the first obstacle or road edge it hits.  The
scan preserves exactly the information the downstream controller needs
(where the free space and the obstacles are) while remaining cheap to
compute, and it gives the neural substrate a realistic input tensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.contracts import kernel_contract
from repro.sim.world import World


@dataclass(frozen=True)
class RangeScanner:
    """Casts a fan of rays from the ego vehicle and reports hit distances.

    Attributes:
        num_beams: Number of rays in the fan.
        fov_rad: Total field of view centred on the vehicle heading.
        max_range_m: Maximum sensing range; rays that hit nothing report it.
        include_road_edges: Whether rays also terminate on the road edges.
            The VAE state encoder wants the drivable-corridor geometry in its
            input, while the object detectors should only report obstacles.
    """

    num_beams: int = 32
    fov_rad: float = math.radians(120.0)
    max_range_m: float = 40.0
    include_road_edges: bool = True
    # Beam angles, built once in ``__post_init__`` (a pure function of the
    # fields above, so excluded from equality/hash/repr).
    _angles: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.num_beams < 2:
            raise ValueError("num_beams must be at least 2")
        if not 0.0 < self.fov_rad <= 2.0 * math.pi:
            raise ValueError("fov_rad must be in (0, 2*pi]")
        if self.max_range_m <= 0:
            raise ValueError("max_range_m must be positive")
        # A full-circle field of view is endpoint-exclusive: ``-pi`` and
        # ``+pi`` are the same direction, so including both would duplicate
        # one beam and shrink the effective angular resolution.
        half = 0.5 * self.fov_rad
        full_circle = self.fov_rad >= 2.0 * math.pi - 1e-12
        angles = np.linspace(-half, half, self.num_beams, endpoint=not full_circle)
        angles.setflags(write=False)
        object.__setattr__(self, "_angles", angles)

    def beam_angles(self) -> np.ndarray:
        """Relative beam angles (radians) from rightmost to leftmost (read-only)."""
        return self._angles

    @kernel_contract(
        xs="(R,) float64",
        ys="(R,) float64",
        hs="(R,) float64",
        obs_x="(R, K) float64",
        obs_y="(R, K) float64",
        obs_r="(R, K) float64",
        returns="(R, B) float64",
    )
    def scan_batch(
        self, xs: np.ndarray, ys: np.ndarray, hs: np.ndarray,
        obs_x: np.ndarray, obs_y: np.ndarray, obs_r: np.ndarray,
    ) -> np.ndarray:
        """Obstacle-only ``(R, num_beams)`` scans of ``R`` poses.

        The one ray-circle raycast: all beams of all rows meet all ``K``
        obstacle circles at once over ``(R, K, B)`` arrays, and each beam
        keeps its nearest hit, capped at ``max_range_m``.  A ray starting
        inside a circle hits it at 0; a circle behind the ray is missed.
        """
        angles = self._angles[None, :] + hs[:, None]
        dir_x = np.cos(angles)[:, None, :]
        dir_y = np.sin(angles)[:, None, :]
        fx = xs[:, None] - obs_x
        fy = ys[:, None] - obs_y
        c = fx * fx + fy * fy - obs_r * obs_r
        b = 2.0 * (fx[:, :, None] * dir_x + fy[:, :, None] * dir_y)
        disc = b * b - 4.0 * c[:, :, None]
        valid = disc >= 0.0
        sqrt_disc = np.sqrt(np.where(valid, disc, 0.0))
        t1 = (-b - sqrt_disc) / 2.0
        t2 = (-b + sqrt_disc) / 2.0
        hit = np.where(t1 >= 0.0, t1, np.where(t2 >= 0.0, 0.0, np.inf))
        hit = np.where(valid, hit, np.inf)
        return np.min(hit, axis=1, initial=self.max_range_m)

    def scan(self, world: World) -> np.ndarray:
        """Return the range scan for the current world state.

        Each entry is the distance (metres, capped at ``max_range_m``) to the
        first obstacle surface intersected by the corresponding ray: a 1-row
        view of :meth:`scan_batch`.  Road edges, when included, follow as a
        per-beam pass so the scan encodes the drivable corridor.
        """
        state = world.state
        obstacles = world.obstacles
        ranges = self.scan_batch(
            np.array([state.x_m], dtype=float),
            np.array([state.y_m], dtype=float),
            np.array([state.heading_rad], dtype=float),
            np.array([[obstacle.x_m for obstacle in obstacles]], dtype=float),
            np.array([[obstacle.y_m for obstacle in obstacles]], dtype=float),
            np.array([[obstacle.radius_m for obstacle in obstacles]], dtype=float),
        )[0]
        if self.include_road_edges:
            angles = self._angles + state.heading_rad
            directions = zip(np.cos(angles).tolist(), np.sin(angles).tolist(), strict=True)
            for index, direction in enumerate(directions):
                edge = world.road.ray_edge_distance(
                    (state.x_m, state.y_m), direction, self.max_range_m
                )
                if edge is not None and edge < ranges[index]:
                    ranges[index] = edge
        return ranges

    def normalized_scan(self, world: World) -> np.ndarray:
        """Range scan scaled to [0, 1]; convenient input for neural models."""
        return self.scan(world) / self.max_range_m
