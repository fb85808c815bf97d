"""Road geometry: a centreline of straight and arc segments with a Frenet frame.

The paper evaluates on a single straight 100 m road (Section VI-A).  This
module generalizes the geometry to a centreline composed of straight and
circular-arc segments while keeping that straight road as the trivial
single-segment case.  All road-relative queries go through the Frenet frame
of the centreline: ``s`` (arc length along the centreline) and ``d`` (signed
lateral offset, positive to the left of the travel direction).  For a
single straight segment starting at the origin with heading zero the mapping
degenerates to the identity ``(s, d) = (x, y)`` — bit for bit — so the
paper's scenario and every existing straight-road config are unchanged by
the generalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from dataclasses import field as dc_field
from collections.abc import Sequence

import numpy as np

from repro.contracts import kernel_contract
from repro.dynamics.state import VehicleState, wrap_angle


@dataclass(frozen=True)
class StraightSegment:
    """A straight centreline piece of ``length_m`` metres."""

    length_m: float

    def __post_init__(self) -> None:
        if self.length_m <= 0:
            raise ValueError("length_m must be positive")


@dataclass(frozen=True)
class ArcSegment:
    """A circular-arc centreline piece.

    Attributes:
        radius_m: Arc radius (positive).
        sweep_rad: Signed sweep angle; positive turns left.  Limited to
            ``|sweep| <= pi`` so the nearest-point projection onto the arc
            stays single-valued.
    """

    radius_m: float
    sweep_rad: float

    def __post_init__(self) -> None:
        if self.radius_m <= 0:
            raise ValueError("radius_m must be positive")
        if not 0.0 < abs(self.sweep_rad) <= math.pi:
            raise ValueError("sweep_rad must satisfy 0 < |sweep| <= pi")

    @property
    def length_m(self) -> float:
        """Arc length of the segment."""
        return self.radius_m * abs(self.sweep_rad)


RoadSegment = StraightSegment | ArcSegment


@dataclass(frozen=True)
class LanePose:
    """Road-relative pose of a vehicle state (the Frenet view).

    Attributes:
        arc_length_m: Progress ``s`` along the centreline, clamped to the
            road extent.
        lateral_offset_m: Signed offset ``d`` from the centreline (positive
            left of the travel direction).
        heading_error_rad: Vehicle heading relative to the centreline
            direction at ``s``, wrapped to (-pi, pi].
        curvature_per_m: Signed centreline curvature at ``s`` (positive for
            left turns, zero on straights).
    """

    arc_length_m: float
    lateral_offset_m: float
    heading_error_rad: float
    curvature_per_m: float


@dataclass(frozen=True)
class _PlacedSegment:
    """A segment anchored at its start pose on the chained centreline."""

    segment: RoadSegment
    s0: float
    x0: float
    y0: float
    heading0: float

    @property
    def length_m(self) -> float:
        return self.segment.length_m

    def _arc_frame(self) -> tuple[float, float, float]:
        """Return ``(turn_sign, centre_x, centre_y)`` for an arc segment."""
        segment = self.segment
        assert isinstance(segment, ArcSegment)
        sigma = 1.0 if segment.sweep_rad > 0.0 else -1.0
        nx, ny = -math.sin(self.heading0), math.cos(self.heading0)
        return (
            sigma,
            self.x0 + sigma * segment.radius_m * nx,
            self.y0 + sigma * segment.radius_m * ny,
        )

    def heading_at(self, s_local: float) -> float:
        """Centreline heading ``s_local`` metres into the segment."""
        segment = self.segment
        if isinstance(segment, StraightSegment):
            return self.heading0
        sigma = 1.0 if segment.sweep_rad > 0.0 else -1.0
        return wrap_angle(self.heading0 + sigma * s_local / segment.radius_m)

    def point_at(self, s_local: float) -> tuple[float, float]:
        """Centreline point ``s_local`` metres into the segment."""
        segment = self.segment
        if isinstance(segment, StraightSegment):
            return (
                self.x0 + s_local * math.cos(self.heading0),
                self.y0 + s_local * math.sin(self.heading0),
            )
        sigma, cx, cy = self._arc_frame()
        heading = self.heading_at(s_local)
        radius = segment.radius_m
        return (
            cx - sigma * radius * (-math.sin(heading)),
            cy - sigma * radius * math.cos(heading),
        )

    def curvature_at(self, s_local: float) -> float:
        """Signed curvature of the segment (constant per segment)."""
        segment = self.segment
        if isinstance(segment, StraightSegment):
            return 0.0
        sigma = 1.0 if segment.sweep_rad > 0.0 else -1.0
        return sigma / segment.radius_m

    def project(self, x: float, y: float) -> tuple[float, float]:
        """Project a point onto the segment: ``(s_local_raw, d)``.

        ``s_local_raw`` is unclamped (negative before the segment start,
        beyond ``length_m`` past its end) so callers can detect points
        outside the extent; ``d`` is the signed lateral offset measured at
        the clamped foot point.
        """
        segment = self.segment
        if isinstance(segment, StraightSegment):
            tx, ty = math.cos(self.heading0), math.sin(self.heading0)
            dx, dy = x - self.x0, y - self.y0
            s_raw = dx * tx + dy * ty
            d = -dx * ty + dy * tx
            return s_raw, d
        sigma, cx, cy = self._arc_frame()
        vx, vy = x - cx, y - cy
        r = math.hypot(vx, vy)
        if r < 1e-12:
            return 0.0, sigma * segment.radius_m
        heading_p = math.atan2(vy, vx) + sigma * 0.5 * math.pi
        s_raw = sigma * wrap_angle(heading_p - self.heading0) * segment.radius_m
        d = sigma * (segment.radius_m - r)
        return s_raw, d


class Centerline:
    """A chain of road segments with arc-length parameterization.

    Segments are chained head to tail starting at the origin with heading
    zero.  Provides the Frenet mapping ``(s, d) <-> (x, y)`` plus heading
    and curvature lookups along the chain.
    """

    def __init__(self, segments: Sequence[RoadSegment]) -> None:
        if not segments:
            raise ValueError("at least one road segment is required")
        placed: list[_PlacedSegment] = []
        s0, x0, y0, heading0 = 0.0, 0.0, 0.0, 0.0
        for segment in segments:
            anchored = _PlacedSegment(
                segment=segment, s0=s0, x0=x0, y0=y0, heading0=heading0
            )
            placed.append(anchored)
            s0 += segment.length_m
            x0, y0 = anchored.point_at(segment.length_m)
            heading0 = anchored.heading_at(segment.length_m)
        self._placed: tuple[_PlacedSegment, ...] = tuple(placed)
        self.length_m: float = s0
        self.is_straight: bool = len(placed) == 1 and isinstance(
            segments[0], StraightSegment
        )
        # Precomputed per-segment frames backing the vectorized kernels.
        # The trigonometric constants are evaluated with the same ``math``
        # calls the scalar segment methods use, so the kernels reproduce the
        # per-segment arithmetic expression by expression.
        self._seg_s0 = np.array([a.s0 for a in placed], dtype=float)
        self._seg_len = np.array([a.length_m for a in placed], dtype=float)
        self._seg_x0 = np.array([a.x0 for a in placed], dtype=float)
        self._seg_y0 = np.array([a.y0 for a in placed], dtype=float)
        self._seg_h0 = np.array([a.heading0 for a in placed], dtype=float)
        self._seg_tx = np.array([math.cos(a.heading0) for a in placed], dtype=float)
        self._seg_ty = np.array([math.sin(a.heading0) for a in placed], dtype=float)
        is_arc: list[bool] = []
        sigmas: list[float] = []
        radii: list[float] = []
        centres_x: list[float] = []
        centres_y: list[float] = []
        for anchored in placed:
            if isinstance(anchored.segment, ArcSegment):
                sigma, cx, cy = anchored._arc_frame()
                is_arc.append(True)
                sigmas.append(sigma)
                radii.append(anchored.segment.radius_m)
                centres_x.append(cx)
                centres_y.append(cy)
            else:
                # Straight segments never read sigma/radius/centre; the unit
                # radius only keeps the masked arc arithmetic finite.
                is_arc.append(False)
                sigmas.append(0.0)
                radii.append(1.0)
                centres_x.append(0.0)
                centres_y.append(0.0)
        self._seg_is_arc = np.array(is_arc, dtype=bool)
        self._seg_sigma = np.array(sigmas, dtype=float)
        self._seg_radius = np.array(radii, dtype=float)
        self._seg_cx = np.array(centres_x, dtype=float)
        self._seg_cy = np.array(centres_y, dtype=float)
        self._seg_curv = np.where(
            self._seg_is_arc, self._seg_sigma / self._seg_radius, 0.0
        )
        # Interior joint arc lengths: ``_seg_s0[k+1]`` is bitwise equal to
        # ``_seg_s0[k] + length_m`` (that is how the chain accumulates), so
        # ``searchsorted(..., side="right")`` reproduces the scalar
        # ``s < s0 + length`` walk exactly, including the joint boundary
        # moving to the next segment.
        self._interior_ends = self._seg_s0[1:].copy()

    def _segment_for(self, s: float) -> _PlacedSegment:
        return self._placed[
            int(np.searchsorted(self._interior_ends, s, side="right"))
        ]

    def project(self, x: float, y: float) -> tuple[float, float]:
        """Project a point onto the chain: ``(s_raw, d)``.

        ``s_raw`` can fall below zero (before the route start) or above
        ``length_m`` (past the route end) — only the first and last segment
        may extend the raw coordinate beyond the extent; interior segments
        are clamped to their joints.

        1-element view of :meth:`project_batch` (the kernel).
        """
        s_arr, d_arr = self.project_batch(
            np.array([float(x)], dtype=float), np.array([float(y)], dtype=float)
        )
        return float(s_arr[0]), float(d_arr[0])

    def _point_at_segment(
        self, index: int, s_local: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized ``_PlacedSegment.point_at`` for one chain segment."""
        if not self._seg_is_arc[index]:
            return (
                self._seg_x0[index] + s_local * self._seg_tx[index],
                self._seg_y0[index] + s_local * self._seg_ty[index],
            )
        sigma = self._seg_sigma[index]
        radius = self._seg_radius[index]
        heading = wrap_angle(self._seg_h0[index] + sigma * s_local / radius)
        return (
            self._seg_cx[index] - sigma * radius * (-np.sin(heading)),
            self._seg_cy[index] - sigma * radius * np.cos(heading),
        )

    @kernel_contract(
        xs="(N,) float64",
        ys="(N,) float64",
        returns=("(N,) float64", "(N,) float64"),
    )
    def project_batch(
        self, xs: np.ndarray, ys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`project` over ``(N,)`` point arrays.

        Returns ``(s_raw, d)`` arrays.  The single-straight-segment chain
        (the paper's road) projects in one vectorized frame rotation;
        multi-segment chains project every point against every placed
        segment at once and pick the winner by gap argmin across the
        segment axis (``np.argmin``'s first-occurrence tie-break matches
        the scalar loop's strict ``<`` update).
        """
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if self.is_straight:
            anchored = self._placed[0]
            tx, ty = math.cos(anchored.heading0), math.sin(anchored.heading0)
            dx = xs - anchored.x0
            dy = ys - anchored.y0
            s_raw = dx * tx + dy * ty
            d = -dx * ty + dy * tx
            return anchored.s0 + s_raw, d
        num_segments = len(self._placed)
        s_all = np.empty((num_segments, xs.size), dtype=float)
        d_all = np.empty((num_segments, xs.size), dtype=float)
        gap_all = np.empty((num_segments, xs.size), dtype=float)
        for index in range(num_segments):
            if self._seg_is_arc[index]:
                sigma = self._seg_sigma[index]
                radius = self._seg_radius[index]
                vx = xs - self._seg_cx[index]
                vy = ys - self._seg_cy[index]
                r = np.hypot(vx, vy)
                heading_p = np.arctan2(vy, vx) + sigma * 0.5 * math.pi
                s_raw = sigma * wrap_angle(heading_p - self._seg_h0[index]) * radius
                d = sigma * (radius - r)
                degenerate = r < 1e-12
                if degenerate.any():
                    s_raw = np.where(degenerate, 0.0, s_raw)
                    d = np.where(degenerate, sigma * radius, d)
            else:
                tx = self._seg_tx[index]
                ty = self._seg_ty[index]
                dx = xs - self._seg_x0[index]
                dy = ys - self._seg_y0[index]
                s_raw = dx * tx + dy * ty
                d = -dx * ty + dy * tx
            if index > 0:
                s_raw = np.maximum(s_raw, 0.0)
            if index < num_segments - 1:
                s_raw = np.minimum(s_raw, self._seg_len[index])
            s_clamped = np.minimum(np.maximum(s_raw, 0.0), self._seg_len[index])
            px, py = self._point_at_segment(index, s_clamped)
            gap_all[index] = np.hypot(xs - px, ys - py)
            s_all[index] = self._seg_s0[index] + s_raw
            d_all[index] = d
        winner = np.argmin(gap_all, axis=0)
        cols = np.arange(xs.size)
        return s_all[winner, cols], d_all[winner, cols]

    def to_frenet(self, x: float, y: float) -> tuple[float, float]:
        """Frenet coordinates ``(s, d)`` of a point, with ``s`` clamped."""
        s_raw, d = self.project(x, y)
        return min(max(s_raw, 0.0), self.length_m), d

    def from_frenet(self, s: float, d: float) -> tuple[float, float]:
        """World coordinates of Frenet ``(s, d)``; ``s`` is clamped."""
        s = min(max(s, 0.0), self.length_m)
        anchored = self._segment_for(s)
        s_local = s - anchored.s0
        x, y = anchored.point_at(s_local)
        heading = anchored.heading_at(s_local)
        return (x + d * (-math.sin(heading)), y + d * math.cos(heading))

    def heading_at(self, s: float) -> float:
        """Centreline heading at arc length ``s`` (clamped to the extent).

        1-element view of :meth:`heading_at_batch` (the kernel).
        """
        return float(self.heading_at_batch(np.array([float(s)], dtype=float))[0])

    @kernel_contract(s="(N,) float64", returns="(N,) float64")
    def heading_at_batch(self, s: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`heading_at` over an ``(N,)`` arc-length array."""
        s = np.minimum(np.maximum(np.asarray(s, dtype=float), 0.0), self.length_m)
        seg = np.searchsorted(self._interior_ends, s, side="right")
        s_local = s - self._seg_s0[seg]
        h0 = self._seg_h0[seg]
        arc_heading = wrap_angle(
            h0 + self._seg_sigma[seg] * s_local / self._seg_radius[seg]
        )
        return np.where(self._seg_is_arc[seg], arc_heading, h0)

    def curvature_at(self, s: float) -> float:
        """Signed centreline curvature at arc length ``s``.

        1-element view of :meth:`curvature_at_batch` (the kernel).
        """
        return float(self.curvature_at_batch(np.array([float(s)], dtype=float))[0])

    @kernel_contract(s="(N,) float64", returns="(N,) float64")
    def curvature_at_batch(self, s: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`curvature_at` over an ``(N,)`` arc-length array."""
        s = np.minimum(np.maximum(np.asarray(s, dtype=float), 0.0), self.length_m)
        seg = np.searchsorted(self._interior_ends, s, side="right")
        return self._seg_curv[seg]


@dataclass(frozen=True)
class Road:
    """A road built from a centreline of segments with a constant width.

    Attributes:
        length_m: Total route length.  Ignored (and overwritten with the
            derived arc length) when ``segments`` is given; the paper uses a
            100 m straight road.
        width_m: Drivable width centred on the centreline.
        obstacle_zone_start_fraction: Fraction of the route (in arc length)
            after which obstacles may be placed.  The paper populates the
            final third, i.e. a start fraction of 2/3.
        segments: Optional centreline segments.  ``None`` keeps the paper's
            straight road as a single :class:`StraightSegment`.
    """

    length_m: float = 100.0
    width_m: float = 8.0
    obstacle_zone_start_fraction: float = 2.0 / 3.0
    segments: tuple[RoadSegment, ...] | None = None
    # Derived centreline, built in ``__post_init__`` (written through
    # ``object.__setattr__`` because the dataclass is frozen).  Excluded
    # from equality/hash/repr: it is a pure function of the fields above.
    _centerline: Centerline = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.width_m <= 0:
            raise ValueError("width_m must be positive")
        if not 0.0 <= self.obstacle_zone_start_fraction < 1.0:
            raise ValueError("obstacle_zone_start_fraction must be in [0, 1)")
        if self.segments is not None:
            centerline = Centerline(self.segments)
            object.__setattr__(self, "length_m", centerline.length_m)
        else:
            if self.length_m <= 0:
                raise ValueError("length_m must be positive")
            centerline = Centerline((StraightSegment(self.length_m),))
        object.__setattr__(self, "_centerline", centerline)

    @property
    def centerline(self) -> Centerline:
        """The chained centreline backing all road-relative queries."""
        return self._centerline

    @property
    def is_straight(self) -> bool:
        """True for the trivial single-straight-segment road."""
        return self.centerline.is_straight

    @property
    def half_width_m(self) -> float:
        """Half of the drivable width."""
        return 0.5 * self.width_m

    @property
    def obstacle_zone_start_m(self) -> float:
        """Arc length at which the obstacle zone begins."""
        return self.length_m * self.obstacle_zone_start_fraction

    # ------------------------------------------------------------------
    # Frenet frame
    # ------------------------------------------------------------------
    def to_frenet(self, x_m: float, y_m: float) -> tuple[float, float]:
        """Frenet coordinates ``(s, d)`` of a point; ``s`` is clamped."""
        return self.centerline.to_frenet(x_m, y_m)

    def from_frenet(self, s_m: float, d_m: float) -> tuple[float, float]:
        """World coordinates of Frenet ``(s, d)``."""
        return self.centerline.from_frenet(s_m, d_m)

    def heading_at(self, s_m: float) -> float:
        """Centreline heading at arc length ``s_m``."""
        return self.centerline.heading_at(s_m)

    def curvature_at(self, s_m: float) -> float:
        """Signed centreline curvature at arc length ``s_m``."""
        return self.centerline.curvature_at(s_m)

    def lane_pose(self, state: VehicleState) -> LanePose:
        """Road-relative pose of a vehicle state."""
        s_raw, d = self.centerline.project(state.x_m, state.y_m)
        return self.lane_pose_from(state.heading_rad, s_raw, d)

    def lane_pose_from(self, heading_rad: float, s_raw: float, d: float) -> LanePose:
        """Road-relative pose from a precomputed projection ``(s_raw, d)``."""
        s = min(max(s_raw, 0.0), self.centerline.length_m)
        heading_error = wrap_angle(heading_rad - self.heading_at(s))
        return LanePose(
            arc_length_m=s,
            lateral_offset_m=d,
            heading_error_rad=heading_error,
            curvature_per_m=self.curvature_at(s),
        )

    # ------------------------------------------------------------------
    # Membership and episode predicates
    # ------------------------------------------------------------------
    def contains(self, x_m: float, y_m: float, margin_m: float = 0.0) -> bool:
        """Return True if the point lies on the drivable surface.

        The route extent bounds the surface on both ends: points before the
        start *or past the end* of the centreline are off the road.

        Args:
            x_m: World x coordinate.
            y_m: World y coordinate.
            margin_m: Extra lateral margin required on each side (e.g. half
                the vehicle width), so a vehicle body stays on the road.
        """
        s_raw, d = self.centerline.project(x_m, y_m)
        if s_raw < -1e-9 or s_raw > self.length_m + 1e-9:
            return False
        return abs(d) <= self.half_width_m - margin_m + 1e-9

    def progress(self, state: VehicleState) -> float:
        """Fraction of the route completed by a vehicle state, in [0, 1]."""
        return self.progress_from(self.centerline.project(state.x_m, state.y_m)[0])

    def progress_from(self, s_raw: float) -> float:
        """:meth:`progress` of a projected arc length ``s_raw``."""
        return float(min(1.0, max(0.0, s_raw / self.length_m)))

    def finished(self, state: VehicleState) -> bool:
        """Return True once the vehicle has passed the end of the route."""
        return self.finished_from(self.centerline.project(state.x_m, state.y_m)[0])

    def finished_from(self, s_raw: float) -> bool:
        """:meth:`finished` of a projected arc length ``s_raw``."""
        return s_raw >= self.length_m

    def off_road(self, state: VehicleState, vehicle_half_width_m: float = 0.0) -> bool:
        """Return True if the vehicle has left the drivable surface laterally."""
        _, d = self.centerline.project(state.x_m, state.y_m)
        return self.off_road_from(d, vehicle_half_width_m)

    def off_road_from(self, d: float, vehicle_half_width_m: float = 0.0) -> bool:
        """:meth:`off_road` of a projected lateral offset ``d``."""
        return not abs(d) <= self.half_width_m - vehicle_half_width_m + 1e-9

    # ------------------------------------------------------------------
    # Ray casting against the road edges (used by the range scanner)
    # ------------------------------------------------------------------
    def ray_edge_distance(
        self,
        origin: tuple[float, float],
        direction: tuple[float, float],
        max_range_m: float,
    ) -> float | None:
        """Distance along a ray to the nearest road edge, or None if no hit.

        The edges are bounded by the route extent: a ray pointing past the
        route ends sees free space, not an infinite edge line.  For the
        straight single-segment road the intersection is analytic; curved
        roads intersect the ray with every segment's offset edges (lines for
        straights, circles for arcs) and take the first crossing that leaves
        the union of segment strips.
        """
        if self.is_straight:
            return self._straight_ray_edge_distance(origin, direction, max_range_m)
        return self._segmented_ray_edge_distance(origin, direction, max_range_m)

    def _straight_ray_edge_distance(
        self,
        origin: tuple[float, float],
        direction: tuple[float, float],
        max_range_m: float,
    ) -> float | None:
        ox, oy = origin
        dx, dy = direction
        if abs(dy) < 1e-9:
            return None
        best: float | None = None
        for edge in (self.half_width_m, -self.half_width_m):
            t = (edge - oy) / dy
            if t < 0.0 or t > max_range_m:
                continue
            x_hit = ox + t * dx
            if x_hit < -1e-9 or x_hit > self.length_m + 1e-9:
                continue
            if best is None or t < best:
                best = t
        return best

    def _edge_free(self, x: float, y: float) -> bool:
        """True if no road edge separates this point from the road interior."""
        s_raw, d = self.centerline.project(x, y)
        if s_raw < -1e-9 or s_raw > self.length_m + 1e-9:
            return True
        return abs(d) <= self.half_width_m + 1e-9

    def _segment_edge_crossings(
        self,
        anchored: _PlacedSegment,
        origin: tuple[float, float],
        direction: tuple[float, float],
        max_range_m: float,
    ) -> list[float]:
        """Ray parameters where the ray crosses one segment's offset edges.

        Straight-segment edges are line pieces parallel to the centreline;
        arc-segment edges are circles of radius ``R -/+ half_width`` around
        the arc centre.  Crossings are clipped to the segment's own
        arc-length extent.
        """
        ox, oy = origin
        dx, dy = direction
        segment = anchored.segment
        hw = self.half_width_m
        crossings: list[float] = []
        if isinstance(segment, StraightSegment):
            tx, ty = math.cos(anchored.heading0), math.sin(anchored.heading0)
            denom = dx * ty - dy * tx
            if abs(denom) < 1e-12:
                return crossings
            for side in (hw, -hw):
                ex = anchored.x0 - side * ty
                ey = anchored.y0 + side * tx
                t = ((ex - ox) * ty - (ey - oy) * tx) / denom
                u = ((ex - ox) * dy - (ey - oy) * dx) / denom
                if 0.0 <= t <= max_range_m and -1e-9 <= u <= segment.length_m + 1e-9:
                    crossings.append(t)
            return crossings
        sigma, cx, cy = anchored._arc_frame()
        for side in (hw, -hw):
            edge_radius = segment.radius_m - sigma * side
            if edge_radius <= 1e-9:
                continue
            fx, fy = ox - cx, oy - cy
            b = 2.0 * (fx * dx + fy * dy)
            c = fx * fx + fy * fy - edge_radius * edge_radius
            discriminant = b * b - 4.0 * c
            if discriminant < 0.0:
                continue
            sqrt_disc = math.sqrt(discriminant)
            for t in ((-b - sqrt_disc) / 2.0, (-b + sqrt_disc) / 2.0):
                if not 0.0 <= t <= max_range_m:
                    continue
                vx, vy = ox + t * dx - cx, oy + t * dy - cy
                heading_p = math.atan2(vy, vx) + sigma * 0.5 * math.pi
                s_local = sigma * wrap_angle(heading_p - anchored.heading0) * segment.radius_m
                if -1e-9 <= s_local <= segment.length_m + 1e-9:
                    crossings.append(t)
        return crossings

    def _segmented_ray_edge_distance(
        self,
        origin: tuple[float, float],
        direction: tuple[float, float],
        max_range_m: float,
    ) -> float | None:
        ox, oy = origin
        dx, dy = direction
        if not self._edge_free(ox, oy):
            return 0.0
        candidates: list[float] = []
        for anchored in self.centerline._placed:
            candidates.extend(
                self._segment_edge_crossings(anchored, origin, direction, max_range_m)
            )
        # A crossing of one segment's edge only counts if it actually exits
        # the union of segment strips (near joints the strips overlap, so an
        # interior edge crossing keeps the point on the road).
        probe = 1e-6
        for t in sorted(candidates):
            if not self._edge_free(ox + (t + probe) * dx, oy + (t + probe) * dy):
                return t
        return None
