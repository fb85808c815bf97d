"""Property-based tests (hypothesis) on the core invariants.

These tests exercise the formal pieces of the paper's model over randomized
inputs: the discretizations of eqs. (4)-(5), the monotonicity of the safety
barrier and safe-interval estimator, the conservativeness of the energy
models, and the bookkeeping invariants of the scheduler.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.energy import (
    baseline_interval_energy_j,
    gating_interval_energy_j,
    offload_interval_energy_j,
)
from repro.core.intervals import (
    SafeIntervalEstimator,
    discretize_deadline,
    discretize_period,
)
from repro.control.base import ControlInputs
from repro.control.heuristic import ObstacleAvoidanceController
from repro.control.pure_pursuit import PurePursuitController
from repro.core.models import ModelSet, SensoryModel
from repro.core.optimizations import make_strategy_factory
from repro.core.safety import (
    NO_OBSTACLE_DISTANCE_M,
    BrakingDistanceBarrier,
    SafetyInputs,
    safety_state,
)
from repro.core.scheduler import SafeRuntimeScheduler
from repro.core.shield import SteeringShield
from repro.dynamics.bicycle import KinematicBicycleModel
from repro.dynamics.state import ControlAction, VehicleState, wrap_angle
from repro.perception.detections import nearest_per_row
from repro.perception.detector import DetectorModel, group_scan_rows
from repro.platform.compute import ComputeProfile
from repro.platform.presets import DRIVE_PX2_RESNET152, ZED_CAMERA, ZERO_POWER_SENSOR
from repro.platform.sensors import SensorPowerSpec
from repro.sim.observation import RangeScanner
from repro.sim.obstacles import Obstacle
from repro.sim.road import ArcSegment, Centerline, Road, StraightSegment
from repro.sim.world import World

TAU = 0.02

finite_angles = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)
distances = st.floats(0.0, 200.0, allow_nan=False)
bearings = st.floats(-math.pi, math.pi, allow_nan=False)
speeds = st.floats(0.0, 15.0, allow_nan=False)
controls = st.builds(
    ControlAction,
    steering=st.floats(-1.0, 1.0, allow_nan=False),
    throttle=st.floats(-1.0, 1.0, allow_nan=False),
)
maybe_obstacle_distances = st.one_of(
    distances, st.just(NO_OBSTACLE_DISTANCE_M)
)
lateral_offsets = st.floats(-4.0, 4.0, allow_nan=False)
unit_commands = st.floats(-1.0, 1.0, allow_nan=False)
curvatures = st.floats(-0.1, 0.1, allow_nan=False)
coordinates = st.floats(-50.0, 50.0, allow_nan=False)
scan_ranges = st.floats(0.0, 45.0, allow_nan=False)



def _ray_circle_distance(origin, direction, centre, radius):
    """Distance along a ray to a circle, or None if the ray misses it.

    The scalar ray-circle intersection the range scanner used before its
    raycast became one broadcast kernel; kept here as the reference.
    """
    ox, oy = origin
    dx, dy = direction
    cx, cy = centre
    fx, fy = ox - cx, oy - cy
    b = 2.0 * (fx * dx + fy * dy)
    c = fx * fx + fy * fy - radius * radius
    discriminant = b * b - 4.0 * c
    if discriminant < 0.0:
        return None
    sqrt_disc = math.sqrt(discriminant)
    t1 = (-b - sqrt_disc) / 2.0
    t2 = (-b + sqrt_disc) / 2.0
    if t1 >= 0.0:
        return t1
    if t2 >= 0.0:
        return 0.0
    return None


def _reference_scan(scanner, x, y, heading, obstacles):
    """The scalar beam x obstacle loop (obstacles only), as reference.

    Beam directions come from the same ``np.cos``/``np.sin`` values the
    kernel uses, so the comparison isolates the ray-circle arithmetic and
    the nearest-hit reduction from the platform's libm.
    """
    angles = scanner.beam_angles() + heading
    ranges = []
    for dx, dy in zip(np.cos(angles).tolist(), np.sin(angles).tolist(), strict=True):
        best = scanner.max_range_m
        for ox, oy, radius in obstacles:
            hit = _ray_circle_distance((x, y), (dx, dy), (ox, oy), radius)
            if hit is not None and hit < best:
                best = hit
        ranges.append(best)
    return ranges


# A chain exercising every joint kind: straight->arc, arc->straight and a
# sign flip between the arcs, for the projection round-trip tests.
_JOINT_CENTERLINE = Centerline(
    (
        StraightSegment(20.0),
        ArcSegment(30.0, math.radians(60.0)),
        StraightSegment(15.0),
        ArcSegment(25.0, -math.radians(45.0)),
    )
)


class TestAngleAndDynamicsProperties:
    @given(angle=finite_angles)
    def test_wrap_angle_stays_in_range(self, angle):
        wrapped = wrap_angle(angle)
        assert -math.pi < wrapped <= math.pi

    @given(angle=finite_angles)
    def test_wrap_angle_preserves_direction(self, angle):
        wrapped = wrap_angle(angle)
        assert math.cos(wrapped) == pytest.approx(math.cos(angle), abs=1e-9)
        assert math.sin(wrapped) == pytest.approx(math.sin(angle), abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(speed=speeds, control=controls, dt=st.floats(0.001, 0.1, allow_nan=False))
    def test_bicycle_step_respects_speed_bounds(self, speed, control, dt):
        model = KinematicBicycleModel()
        state = VehicleState(speed_mps=speed)
        nxt = model.step(state, control, dt)
        assert 0.0 <= nxt.speed_mps <= model.params.max_speed_mps
        assert -math.pi < nxt.heading_rad <= math.pi

    @settings(max_examples=50, deadline=None)
    @given(speed=speeds, dt=st.floats(0.001, 0.05, allow_nan=False))
    def test_straight_coasting_preserves_lateral_position(self, speed, dt):
        model = KinematicBicycleModel()
        nxt = model.step(VehicleState(speed_mps=speed), ControlAction(), dt)
        assert nxt.y_m == pytest.approx(0.0, abs=1e-9)


class TestDiscretizationProperties:
    @given(
        multiple=st.integers(1, 50),
        tau=st.floats(0.001, 0.2, allow_nan=False),
    )
    def test_exact_multiples_recovered(self, multiple, tau):
        assert discretize_period(multiple * tau, tau) == multiple

    @given(
        period=st.floats(0.001, 1.0, allow_nan=False),
        tau=st.floats(0.001, 0.2, allow_nan=False),
    )
    def test_discretized_period_covers_true_period(self, period, tau):
        delta = discretize_period(period, tau)
        assert delta >= 1
        # The discretized period never under-approximates the true one by
        # more than a floating point epsilon (eq. 4 rounds up).
        assert delta * tau >= period - 1e-9 * max(1.0, period)

    @given(
        delta_max=st.floats(0.0, 1.0, allow_nan=False),
        tau=st.floats(0.001, 0.2, allow_nan=False),
    )
    def test_discretized_deadline_is_conservative(self, delta_max, tau):
        periods = discretize_deadline(delta_max, tau)
        assert periods >= 0
        # eq. (5) floors: the discretized deadline never exceeds the true one.
        assert periods * tau <= delta_max + 1e-9 * max(1.0, delta_max)


class TestSafetyProperties:
    @given(distance=distances, bearing=bearings, speed=speeds)
    def test_safety_state_is_binary_and_consistent(self, distance, bearing, speed):
        barrier = BrakingDistanceBarrier()
        h = barrier.evaluate(
            SafetyInputs(distance_m=distance, bearing_rad=bearing, speed_mps=speed)
        )
        state = safety_state(h)
        assert state in (0, 1)
        assert (state == 1) == (h >= 0.0)

    @given(
        bearing=bearings,
        speed=speeds,
        near=st.floats(0.0, 100.0, allow_nan=False),
        extra=st.floats(0.0, 100.0, allow_nan=False),
    )
    def test_barrier_monotone_in_distance(self, bearing, speed, near, extra):
        barrier = BrakingDistanceBarrier()
        h_near = barrier.evaluate(
            SafetyInputs(distance_m=near, bearing_rad=bearing, speed_mps=speed)
        )
        h_far = barrier.evaluate(
            SafetyInputs(distance_m=near + extra, bearing_rad=bearing, speed_mps=speed)
        )
        assert h_far >= h_near

    @given(distance=st.floats(0.0, 60.0, allow_nan=False), bearing=bearings, slow=speeds, faster=st.floats(0.0, 5.0, allow_nan=False))
    def test_barrier_antitone_in_speed(self, distance, bearing, slow, faster):
        barrier = BrakingDistanceBarrier()
        h_slow = barrier.evaluate(
            SafetyInputs(distance_m=distance, bearing_rad=bearing, speed_mps=slow)
        )
        h_fast = barrier.evaluate(
            SafetyInputs(distance_m=distance, bearing_rad=bearing, speed_mps=slow + faster)
        )
        assert h_fast <= h_slow + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(
        distance=st.floats(0.5, 40.0, allow_nan=False),
        bearing=st.floats(-1.0, 1.0, allow_nan=False),
        speed=st.floats(0.0, 14.0, allow_nan=False),
        control=controls,
    )
    def test_safe_interval_is_bounded_and_nonnegative(self, distance, bearing, speed, control):
        estimator = SafeIntervalEstimator(horizon_s=0.08, step_s=0.01)
        value = estimator.estimate_batch(
            np.array([distance]),
            np.array([bearing]),
            np.array([speed]),
            np.array([control.steering]),
            np.array([control.throttle]),
        )[0]
        assert 0.0 <= value <= estimator.horizon_s


def _sensor_spec(measurement, mechanical):
    return SensorPowerSpec(
        name="hyp-sensor", measurement_power_w=measurement, mechanical_power_w=mechanical
    )


class TestEnergyModelProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        delta_max=st.integers(1, 8),
        period_multiple=st.integers(1, 4),
        measurement=st.floats(0.0, 30.0, allow_nan=False),
        mechanical=st.floats(0.0, 5.0, allow_nan=False),
        gate_sensor=st.booleans(),
    )
    def test_gating_never_exceeds_baseline(
        self, delta_max, period_multiple, measurement, mechanical, gate_sensor
    ):
        model = SensoryModel(
            name="m",
            period_s=period_multiple * TAU,
            compute=DRIVE_PX2_RESNET152,
            sensor=_sensor_spec(measurement, mechanical),
        )
        baseline = baseline_interval_energy_j(model, TAU, delta_max)
        gated = gating_interval_energy_j(model, TAU, delta_max, gate_sensor)
        assert gated <= baseline + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(
        delta_max=st.integers(1, 8),
        period_multiple=st.integers(1, 4),
        measurement=st.floats(0.0, 30.0, allow_nan=False),
        mechanical=st.floats(0.0, 5.0, allow_nan=False),
    )
    def test_sensor_gating_saves_at_least_model_gating(
        self, delta_max, period_multiple, measurement, mechanical
    ):
        model = SensoryModel(
            name="m",
            period_s=period_multiple * TAU,
            compute=DRIVE_PX2_RESNET152,
            sensor=_sensor_spec(measurement, mechanical),
        )
        sensor_gated = gating_interval_energy_j(model, TAU, delta_max, gate_sensor=True)
        model_gated = gating_interval_energy_j(model, TAU, delta_max, gate_sensor=False)
        assert sensor_gated <= model_gated + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(
        delta_max=st.integers(1, 8),
        period_multiple=st.integers(1, 4),
        tx_energy=st.floats(0.0, 0.118, allow_nan=False),
        fallback=st.booleans(),
    )
    def test_offloading_cheaper_than_baseline_when_tx_cheaper_than_inference(
        self, delta_max, period_multiple, tx_energy, fallback
    ):
        model = SensoryModel(
            name="m",
            period_s=period_multiple * TAU,
            compute=DRIVE_PX2_RESNET152,
            sensor=ZERO_POWER_SENSOR,
        )
        baseline = baseline_interval_energy_j(model, TAU, delta_max)
        offloaded = offload_interval_energy_j(
            model, TAU, delta_max, tx_energy, fallback_invoked=fallback
        )
        if model.discretized_period(TAU) < delta_max and not fallback:
            assert offloaded <= baseline + 1e-12
        else:
            # With no optimization window (or a fallback re-invocation) the
            # optimized energy may equal or slightly exceed the baseline, but
            # never by more than one extra local inference.
            assert offloaded <= baseline + model.compute.energy_per_inference_j + 1e-12


class TestSchedulerProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        deadline_periods=st.integers(0, 6),
        optimization=st.sampled_from(["none", "model_gating", "sensor_gating", "offload"]),
        steps=st.integers(1, 24),
    )
    def test_scheduler_never_spends_more_than_baseline_plus_transmissions(
        self, deadline_periods, optimization, steps
    ):
        model_set = ModelSet.from_models(
            [
                SensoryModel(
                    name="vae",
                    period_s=TAU,
                    compute=ComputeProfile(name="vae", latency_s=0.004, power_w=4.0),
                    sensor=ZERO_POWER_SENSOR,
                    critical=True,
                ),
                SensoryModel(
                    name="det-fast", period_s=TAU, compute=DRIVE_PX2_RESNET152,
                    sensor=ZED_CAMERA,
                ),
                SensoryModel(
                    name="det-slow", period_s=2 * TAU, compute=DRIVE_PX2_RESNET152,
                    sensor=ZED_CAMERA,
                ),
            ]
        )
        scheduler = SafeRuntimeScheduler(
            model_set=model_set,
            tau_s=TAU,
            deadline_provider=lambda inputs, control: deadline_periods * TAU,
            strategy_factory=make_strategy_factory(optimization),
            rng=np.random.default_rng(0),
        )
        inputs = SafetyInputs(distance_m=20.0, bearing_rad=0.0, speed_mps=8.0)
        for _ in range(steps):
            scheduler.step(inputs, ControlAction())

        optimized = scheduler.ledger.total_by_model()
        baseline = scheduler.baseline_ledger.total_by_model()
        transmissions = scheduler.ledger.total_by_category().get("transmission", 0.0)
        for model in model_set.optimizable:
            # Gating/local never exceed the baseline; offloading may add
            # transmission energy on top of avoided compute, and in the worst
            # case (all responses late) also keeps all local inferences.
            assert optimized.get(model.name, 0.0) <= (
                baseline.get(model.name, 0.0) + transmissions + 1e-9
            )
        # delta_max samples are always within the configured clamp.
        assert all(
            0 <= sample <= scheduler.max_deadline_periods
            for sample in scheduler.stats.delta_max_samples
        )


class TestKernelFacadeParity:
    """Scalar facades are 1-element views of the batch kernels.

    On any randomized state the facade and the corresponding kernel element
    must agree bit-for-bit — this is the no-drift guarantee the lockstep
    batch engine's bit-exactness rests on.
    """

    @settings(max_examples=50, deadline=None)
    @given(
        states=st.lists(
            st.tuples(maybe_obstacle_distances, bearings, speeds),
            min_size=1,
            max_size=12,
        )
    )
    def test_barrier_facade_matches_kernel(self, states):
        barrier = BrakingDistanceBarrier()
        d, b, v = (np.array(column, dtype=float) for column in zip(*states, strict=True))
        h = barrier.evaluate_batch(d, b, v)
        required = barrier.required_clearance_batch(b, v)
        for j, (dj, bj, vj) in enumerate(states):
            inputs = SafetyInputs(distance_m=dj, bearing_rad=bj, speed_mps=vj)
            assert barrier.evaluate(inputs) == h[j]
            assert barrier.required_clearance_m(inputs) == required[j]

    @settings(max_examples=50, deadline=None)
    @given(
        states=st.lists(
            st.tuples(
                maybe_obstacle_distances,
                bearings,
                speeds,
                lateral_offsets,
                unit_commands,
                unit_commands,
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_shield_facade_matches_kernel(self, states):
        shield = SteeringShield()
        barrier = shield.safety_function
        d, b, v, lat, s, th = (
            np.array(column, dtype=float) for column in zip(*states, strict=True)
        )
        h = barrier.evaluate_batch(d, b, v)
        fs, ft, intervened = shield.filter_batch(h, d, b, v, lat, 4.0, s, th)
        for j, (dj, bj, vj, latj, sj, thj) in enumerate(states):
            inputs = SafetyInputs(
                distance_m=dj,
                bearing_rad=bj,
                speed_mps=vj,
                lateral_offset_m=latj,
                road_half_width_m=4.0,
            )
            filtered, decision = shield.filter_action(
                inputs, ControlAction(steering=sj, throttle=thj)
            )
            assert decision.intervened == bool(intervened[j])
            assert filtered.steering == fs[j]
            assert filtered.throttle == ft[j]

    def test_shield_blend_ramp_boundary(self):
        """Exactly at h = intervention_margin_m the shield passes through;
        one ulp below the blend ramp engages."""
        shield = SteeringShield()
        margin = shield.intervention_margin_m
        h = np.array([margin, np.nextafter(margin, -math.inf)])
        fs, ft, intervened = shield.filter_batch(
            h,
            np.array([5.0, 5.0]),
            np.zeros(2),
            np.array([5.0, 5.0]),
            np.zeros(2),
            4.0,
            np.zeros(2),
            np.array([0.5, 0.5]),
        )
        assert not intervened[0]
        assert fs[0] == 0.0 and ft[0] == 0.5
        assert intervened[1]
        assert ft[1] < 0.5

    def test_shield_no_obstacle_sentinel_passes_through(self):
        """The sentinel distance disables the shield regardless of h."""
        shield = SteeringShield()
        fs, ft, intervened = shield.filter_batch(
            np.array([-1.0]),
            np.array([NO_OBSTACLE_DISTANCE_M]),
            np.zeros(1),
            np.array([5.0]),
            np.zeros(1),
            4.0,
            np.array([0.3]),
            np.array([0.2]),
        )
        assert not intervened[0]
        assert fs[0] == 0.3 and ft[0] == 0.2

    @settings(max_examples=50, deadline=None)
    @given(
        states=st.lists(
            st.tuples(speeds, lateral_offsets, bearings, curvatures),
            min_size=1,
            max_size=12,
        )
    )
    def test_pure_pursuit_facade_matches_kernel(self, states):
        controller = PurePursuitController()
        v, lat, hd, cv = (np.array(column, dtype=float) for column in zip(*states, strict=True))
        target = np.full(len(states), controller.target_speed_mps)
        steering, throttle = controller.act_batch(v, target, lat, hd, cv)
        for j, (vj, latj, hdj, cvj) in enumerate(states):
            action = controller.act_from_inputs(
                ControlInputs(
                    speed_mps=vj,
                    target_speed_mps=controller.target_speed_mps,
                    lateral_offset_m=latj,
                    heading_rad=hdj,
                    road_curvature_per_m=cvj,
                )
            )
            assert action.steering == steering[j]
            assert action.throttle == throttle[j]

    @settings(max_examples=50, deadline=None)
    @given(
        states=st.lists(
            st.tuples(
                speeds,
                lateral_offsets,
                bearings,
                curvatures,
                st.one_of(
                    st.none(), st.tuples(distances, bearings, st.booleans())
                ),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_heuristic_facade_matches_kernel(self, states):
        controller = ObstacleAvoidanceController()
        n = len(states)
        v, lat, hd, cv = (
            np.array([state[k] for state in states], dtype=float)
            for k in range(4)
        )
        has_obstacle = np.array([state[4] is not None for state in states])
        obs_d = np.array(
            [state[4][0] if state[4] else 0.0 for state in states], dtype=float
        )
        obs_b = np.array(
            [state[4][1] if state[4] else 0.0 for state in states], dtype=float
        )
        obs_stale = np.array(
            [state[4][2] if state[4] else False for state in states]
        )
        target = np.full(n, controller.target_speed_mps)
        steering, throttle = controller.act_batch(
            v, target, lat, hd, cv, has_obstacle, obs_d, obs_b, obs_stale
        )
        for j, (vj, latj, hdj, cvj, obs) in enumerate(states):
            action = controller.act_from_inputs(
                ControlInputs(
                    speed_mps=vj,
                    target_speed_mps=controller.target_speed_mps,
                    lateral_offset_m=latj,
                    heading_rad=hdj,
                    road_curvature_per_m=cvj,
                    obstacle_distance_m=obs[0] if obs else None,
                    obstacle_bearing_rad=obs[1] if obs else None,
                    obstacle_stale=obs[2] if obs else False,
                )
            )
            assert action.steering == steering[j]
            assert action.throttle == throttle[j]

    # ------------------------------------------------------------------
    # Perception/scan-tail kernels: obstacle view, grouping, projection.
    # ------------------------------------------------------------------

    @settings(max_examples=50, deadline=None)
    @given(
        poses=st.lists(
            st.tuples(coordinates, coordinates, bearings), min_size=1, max_size=6
        ),
        obstacle_specs=st.lists(
            st.tuples(coordinates, coordinates, st.floats(0.1, 3.0, allow_nan=False)),
            min_size=1,
            max_size=8,
        ),
    )
    def test_obstacle_view_facade_matches_kernel_and_ranking(
        self, poses, obstacle_specs
    ):
        obstacles = [Obstacle(x_m=ox, y_m=oy, radius_m=orad) for ox, oy, orad in obstacle_specs]
        xs, ys, hs = (np.array(column, dtype=float) for column in zip(*poses, strict=True))
        n = len(poses)
        obs_x = np.tile([o.x_m for o in obstacles], (n, 1))
        obs_y = np.tile([o.y_m for o in obstacles], (n, 1))
        obs_r = np.tile([o.radius_m for o in obstacles], (n, 1))
        surface, bearing, nearest = World.nearest_obstacle_view_batch(
            xs, ys, hs, obs_x, obs_y, obs_r
        )
        for j, (x, y, h) in enumerate(poses):
            world = World(
                road=Road(), obstacles=obstacles,
                state=VehicleState(x_m=x, y_m=y, heading_rad=h),
            )
            view = world.nearest_obstacle_view()
            assert view is not None
            # Facade == kernel row, bit for bit.
            assert view[0] == surface[j]
            assert view[1] == bearing[j]
            assert view[2] is obstacles[int(nearest[j])]
            assert world.nearest_obstacle() is view[2]
            # The kernel's masked argmin reproduces the scalar ranking:
            # ahead-preferred min surface distance, first occurrence on ties.
            views = []
            for o in obstacles:
                centre = np.hypot(o.x_m - x, o.y_m - y)
                obs_bearing = wrap_angle(np.arctan2(o.y_m - y, o.x_m - x) - h)
                views.append((max(0.0, float(centre - o.radius_m)), float(obs_bearing)))
            ahead = [k for k, v in enumerate(views) if abs(v[1]) <= 0.5 * math.pi]
            candidates = ahead if ahead else list(range(len(views)))
            best = min(candidates, key=lambda k: views[k][0])
            assert int(nearest[j]) == best
            assert surface[j] == views[best][0]

    def test_obstacle_view_ahead_boundary_at_half_pi(self):
        """|bearing| == pi/2 exactly still counts as ahead (<=, not <)."""
        boundary = Obstacle(x_m=0.0, y_m=5.0, radius_m=1.0)  # bearing +pi/2
        behind = Obstacle(x_m=-1.0, y_m=0.0, radius_m=0.5)  # closer, behind
        world = World(road=Road(), obstacles=[behind, boundary], state=VehicleState())
        view = world.nearest_obstacle_view()
        assert view is not None and view[2] is boundary
        # One ulp past the boundary the obstacle is behind; with nothing
        # ahead the globally nearest obstacle wins instead.
        tilted = World(
            road=Road(),
            obstacles=[behind, boundary],
            state=VehicleState(heading_rad=-1e-9),
        )
        tilted_view = tilted.nearest_obstacle_view()
        assert tilted_view is not None and tilted_view[2] is behind

    def test_obstacle_view_empty_world_returns_none(self):
        world = World(road=Road(), obstacles=[])
        assert world.nearest_obstacle_view() is None
        assert world.nearest_obstacle() is None

    @settings(max_examples=60, deadline=None)
    @given(
        poses=st.lists(
            st.tuples(coordinates, coordinates, bearings), min_size=1, max_size=4
        ),
        obstacle_specs=st.lists(
            st.tuples(coordinates, coordinates, st.floats(0.1, 5.0, allow_nan=False)),
            min_size=0,
            max_size=6,
        ),
        num_beams=st.integers(2, 40),
        fov=st.floats(0.1, 2.0 * math.pi, allow_nan=False),
        max_range=st.floats(1.0, 60.0, allow_nan=False),
    )
    def test_raycast_kernel_matches_scalar_beam_loop(
        self, poses, obstacle_specs, num_beams, fov, max_range
    ):
        scanner = RangeScanner(
            num_beams=num_beams, fov_rad=fov, max_range_m=max_range,
            include_road_edges=False,
        )
        xs, ys, hs = (np.array(column, dtype=float) for column in zip(*poses, strict=True))
        n, k = len(poses), len(obstacle_specs)
        columns = np.array(obstacle_specs, dtype=float).reshape(k, 3).T
        obs_x, obs_y, obs_r = (np.tile(column, (n, 1)) for column in columns)
        rows = scanner.scan_batch(xs, ys, hs, obs_x, obs_y, obs_r)
        assert rows.shape == (n, num_beams)
        obstacles = [Obstacle(x_m=ox, y_m=oy, radius_m=r) for ox, oy, r in obstacle_specs]
        for j, (x, y, h) in enumerate(poses):
            assert rows[j].tolist() == _reference_scan(scanner, x, y, h, obstacle_specs)
            # ``scan`` is the kernel's 1-row view.
            world = World(
                road=Road(), obstacles=obstacles,
                state=VehicleState(x_m=x, y_m=y, heading_rad=h),
            )
            assert scanner.scan(world).tolist() == rows[j].tolist()

    def test_raycast_kernel_edge_cases(self):
        scanner = RangeScanner(
            num_beams=5, fov_rad=math.radians(90.0), max_range_m=30.0,
            include_road_edges=False,
        )
        assert scanner.beam_angles()[2] == 0.0
        origin = np.zeros(1, dtype=float)

        def kernel_row(specs):
            columns = np.array(specs, dtype=float).reshape(len(specs), 3).T
            obs_x, obs_y, obs_r = (column[None, :] for column in columns)
            row = scanner.scan_batch(origin, origin, origin, obs_x, obs_y, obs_r)[0]
            assert row.tolist() == _reference_scan(scanner, 0.0, 0.0, 0.0, specs)
            return row

        # K = 0: every beam reports the maximum range.
        assert kernel_row([]).tolist() == [30.0] * 5
        # Origin inside a circle: every beam hits it at distance 0.
        assert kernel_row([(1.0, 0.5, 2.0)]).tolist() == [0.0] * 5
        # Tangent ray: the centre beam grazes the circle at (10, 0).
        tangent = kernel_row([(10.0, 1.0, 1.0)])
        assert tangent[2] == 10.0
        # Obstacles behind the vehicle are never hit, even the nearest one.
        assert kernel_row([(-3.0, 0.0, 1.0), (-10.0, 2.0, 3.0)]).tolist() == [30.0] * 5
        # The nearest circle wins per beam, whatever the obstacle order.
        near_far = kernel_row([(20.0, 0.0, 1.0), (8.0, 0.0, 1.0)])
        assert near_far[2] == 7.0

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.floats(allow_nan=True, allow_infinity=True),
                st.sampled_from([-0.0, 0.0, -1.0, 1.0]),
            ),
            min_size=1,
            max_size=40,
        ),
        bounds=st.sampled_from([(-1.0, 1.0), (0.0, 30.0)]),
    )
    def test_bound_first_min_max_keeps_clip_bits(self, values, bounds):
        """The kernels' ``np.minimum(hi, np.maximum(lo, x))`` saturation
        reproduces ``np.clip`` bit for bit, NaN and signed zeros included."""
        lo, hi = bounds
        x = np.array(values, dtype=float)
        clipped = np.clip(x, lo, hi)
        saturated = np.minimum(hi, np.maximum(lo, x))
        assert np.array_equal(clipped, saturated, equal_nan=True)
        assert np.array_equal(np.signbit(clipped), np.signbit(saturated))

    @staticmethod
    def _serial_groups(row, threshold):
        """The pre-vectorization serial grouping loop, as reference."""
        hit = row < threshold
        groups = []
        start = None
        for index in range(len(row) + 1):
            is_hit = index < len(row) and hit[index]
            if is_hit and start is None:
                start = index
            elif not is_hit and start is not None:
                segment = row[start:index]
                offset = int(np.argmin(segment))
                groups.append((start, index - start, offset, float(segment[offset])))
                start = None
        return groups

    @settings(max_examples=50, deadline=None)
    @given(
        rows=st.lists(
            st.lists(scan_ranges, min_size=32, max_size=32), min_size=1, max_size=4
        ),
        threshold=st.floats(1.0, 44.0, allow_nan=False),
    )
    def test_grouping_kernel_matches_serial_loop(self, rows, threshold):
        matrix = np.array(rows, dtype=float)
        group_row, start, length, best_offset, best_distance = group_scan_rows(
            matrix, threshold
        )
        expected = [
            (r, *group)
            for r in range(matrix.shape[0])
            for group in self._serial_groups(matrix[r], threshold)
        ]
        assert len(expected) == group_row.size
        for g, (row, g_start, g_length, g_offset, g_distance) in enumerate(expected):
            assert group_row[g] == row
            assert start[g] == g_start
            assert length[g] == g_length
            assert best_offset[g] == g_offset
            assert best_distance[g] == g_distance

    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.lists(
            st.lists(scan_ranges, min_size=32, max_size=32), min_size=1, max_size=3
        ),
        seed=st.integers(0, 2**32 - 1),
        miss_rate=st.sampled_from([0.0, 0.3]),
    )
    def test_detect_batch_matches_scalar_draw_reference(self, rows, seed, miss_rate):
        """Sized RNG draws reproduce the legacy per-detection scalar draws —
        same values bit for bit, and the generator streams end in the same
        state (the serial/batch lockstep guarantee)."""
        detector = DetectorModel(name="hyp-det", miss_rate=miss_rate, seed=seed)
        matrix = np.array(rows, dtype=float)
        threshold = detector.scanner.max_range_m - detector.detection_threshold_m
        angles = detector.scanner.beam_angles()
        batch_rngs = [np.random.default_rng(seed + r) for r in range(matrix.shape[0])]
        serial_rngs = [np.random.default_rng(seed + r) for r in range(matrix.shape[0])]
        counts, distances, bearings, spans = detector.detect_batch(matrix, batch_rngs)
        cursor = 0
        for r in range(matrix.shape[0]):
            rng = serial_rngs[r]
            kept = []
            for g_start, g_length, g_offset, g_distance in self._serial_groups(
                matrix[r], threshold
            ):
                distance = g_distance
                bearing = float(angles[g_start + g_offset])
                if detector.range_noise_std_m > 0.0:
                    distance = max(
                        0.0, distance + rng.normal(0.0, detector.range_noise_std_m)
                    )
                if detector.bearing_noise_std_rad > 0.0:
                    bearing += rng.normal(0.0, detector.bearing_noise_std_rad)
                kept.append((distance, bearing, g_length))
            if detector.miss_rate > 0.0:
                kept = [
                    det for det in kept if rng.random() >= detector.miss_rate
                ]
            assert int(counts[r]) == len(kept)
            for distance, bearing, span in kept:
                assert distances[cursor] == distance
                assert bearings[cursor] == bearing
                assert spans[cursor] == span
                cursor += 1
        assert cursor == distances.size
        for batch_rng, serial_rng in zip(batch_rngs, serial_rngs, strict=True):
            assert batch_rng.bit_generator.state == serial_rng.bit_generator.state

    @settings(max_examples=50, deadline=None)
    @given(
        counts=st.lists(st.integers(0, 5), min_size=1, max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_nearest_per_row_matches_serial_min(self, counts, seed):
        rng = np.random.default_rng(seed)
        counts_arr = np.array(counts, dtype=np.int64)
        distances = rng.integers(0, 4, size=int(counts_arr.sum())).astype(float)
        has, first = nearest_per_row(counts_arr, distances)
        offsets = np.concatenate(([0], np.cumsum(counts_arr)))
        cursor = 0
        for r, count in enumerate(counts):
            assert has[r] == (count > 0)
            if count > 0:
                row_slice = distances[offsets[r] : offsets[r + 1]]
                assert first[cursor] == offsets[r] + int(np.argmin(row_slice))
                cursor += 1
        assert cursor == first.size

    @settings(max_examples=50, deadline=None)
    @given(
        joint=st.integers(0, 2),
        offset=st.floats(-2.0, 2.0, allow_nan=False),
        lateral=st.floats(-3.0, 3.0, allow_nan=False),
    )
    def test_projection_facade_and_round_trip_near_joints(
        self, joint, offset, lateral
    ):
        centerline = _JOINT_CENTERLINE
        joints = centerline._seg_s0[1:]
        s = float(min(max(joints[joint] + offset, 0.0), centerline.length_m))
        x, y = centerline.from_frenet(s, lateral)
        # Facade == kernel element, bit for bit.
        s_scalar, d_scalar = centerline.project(x, y)
        s_batch, d_batch = centerline.project_batch(
            np.array([x], dtype=float), np.array([y], dtype=float)
        )
        assert s_scalar == s_batch[0]
        assert d_scalar == d_batch[0]
        assert centerline.heading_at(s) == centerline.heading_at_batch(
            np.array([s], dtype=float)
        )[0]
        assert centerline.curvature_at(s) == centerline.curvature_at_batch(
            np.array([s], dtype=float)
        )[0]
        # Round trip: projecting the synthesized point recovers (s, d).
        s_back, d_back = centerline.to_frenet(x, y)
        assert s_back == pytest.approx(s, abs=1e-6)
        assert d_back == pytest.approx(lateral, abs=1e-6)
