import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachcast.geometry import (
    BehindCameraError,
    CameraIntrinsics,
    Pose,
    PoseChain,
    PoseError,
    normalize_pixel,
    project,
    to_local,
)

# Fixed-camera intrinsics of two head-mounted recording setups (EgoPAT3D, H2O).
EGOPAT3D_INTRINSICS = CameraIntrinsics(fx=1808.203, fy=1807.946, ox=1942.287, oy=1123.822,
                                       width=3840, height=2160)
H2O_INTRINSICS = CameraIntrinsics(fx=636.659, fy=636.252, ox=635.284, oy=366.874,
                                  width=1280, height=720)


def random_rotation(rng):
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


def rigid(rotation, translation):
    m = np.eye(4)
    m[:3, :3] = rotation
    m[:3, 3] = translation
    return m


def rotation_drift(chain):
    """Worst orthonormality defect of the lifts' rotations over every step,
    read through the public lift: the images of the unit axes minus the
    image of the origin are the rotation's columns."""
    basis = np.vstack([np.zeros(3), np.eye(3)])
    worst = 0.0
    for t in range(1, len(chain) + 1):
        img = chain.local_to_global(basis, t)
        r = (img[1:] - img[0]).T
        worst = max(worst, float(np.max(np.abs(r.T @ r - np.eye(3)))))
    return worst


def random_chain(rng, n, rot_scale=1.0, trans_scale=0.5):
    poses = []
    for _ in range(n):
        r = random_rotation(rng) if rot_scale else np.eye(3)
        t = rng.standard_normal(3) * trans_scale
        poses.append(rigid(r, t))
    return PoseChain(poses)


class TestIntrinsics:
    def test_validation(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=-1, fy=1, ox=0, oy=0, width=10, height=10)
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=1, fy=1, ox=0, oy=0, width=0, height=10)

    def test_scaling(self):
        # intrinsics of a frame scaled by 0.25 (what `gen --frame` builds)
        k = EGOPAT3D_INTRINSICS
        small = CameraIntrinsics(k.fx / 4, k.fy / 4, k.ox / 4, k.oy / 4, k.width / 4, k.height / 4)
        p = [0.1, -0.05, 0.8]
        np.testing.assert_allclose(project(p, small), project(p, k) / 4, rtol=1e-12)
        np.testing.assert_allclose(normalize_pixel(project(p, small), small),
                                   normalize_pixel(project(p, k), k), rtol=1e-12)

    def test_round_trip_dict(self):
        k = CameraIntrinsics.from_dict(H2O_INTRINSICS.to_dict())
        assert k == H2O_INTRINSICS


class TestProjection:
    def test_optical_axis_hits_principal_point(self):
        uv = project([0.0, 0.0, 1.0], EGOPAT3D_INTRINSICS)
        assert uv[0] == 1942.287 and uv[1] == 1123.822

    def test_unit_camera(self):
        k = CameraIntrinsics(fx=1, fy=1, ox=0, oy=0, width=2, height=2)
        np.testing.assert_array_equal(project([1.0, 0.0, 1.0], k), [1.0, 0.0])

    def test_behind_camera(self):
        with pytest.raises(BehindCameraError):
            project([0.0, 0.0, -1.0], EGOPAT3D_INTRINSICS)

    def test_normalize_pixel(self):
        k = H2O_INTRINSICS
        np.testing.assert_array_equal(normalize_pixel([1280.0, 720.0], k), [1.0, 1.0])
        np.testing.assert_array_equal(normalize_pixel([0.0, 0.0], k), [0.0, 0.0])
        np.testing.assert_array_equal(normalize_pixel([640.0, 360.0], k), [0.5, 0.5])


class TestPose:
    def test_bottom_row_enforced(self):
        m = np.eye(4)
        m[3, 0] = 0.5
        with pytest.raises(ValueError):
            Pose(m)

    def test_orthonormality_enforced(self):
        m = np.eye(4)
        m[0, 0] = 1.1
        with pytest.raises(ValueError):
            Pose(m)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           lengths=st.lists(st.integers(1, 16), min_size=1, max_size=6))
    def test_stacked_lowering_matches_each_chain(self, seed, lengths):
        # the cumulative products of several chains, stacked, lower a leading
        # axis of point sets in one product, bit for bit as each chain does
        rng = np.random.default_rng(seed)
        chains = [random_chain(rng, n) for n in lengths]
        products = np.concatenate([c.cumulative[1:] for c in chains])
        points = rng.standard_normal((2, len(products), 3))
        lowered = to_local(points, products)
        first = 0
        for chain, n in zip(chains, lengths):
            for side in range(2):
                np.testing.assert_array_equal(
                    lowered[side, first : first + n],
                    chain.global_to_local(points[side, first : first + n], np.arange(1, n + 1)))
            first += n

    def test_cumulative_products_are_read_only(self):
        chain = random_chain(np.random.default_rng(19), 3)
        assert chain.cumulative.shape == (4, 4, 4)
        np.testing.assert_array_equal(chain.cumulative[0], np.eye(4))
        with pytest.raises(ValueError, match="read-only"):
            chain.cumulative[1, 0, 3] = 1.0

    def test_array_round_trip(self):
        rng = np.random.default_rng(0)
        p = Pose(rigid(random_rotation(rng), rng.standard_normal(3)))
        p2 = PoseChain(PoseChain([p]).matrices).poses[0]
        np.testing.assert_array_equal(p.matrix, p2.matrix)

    @pytest.mark.parametrize("entry", [(0, 1), (2, 3)])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_entry_rejected(self, entry, value):
        # rotation block (0, 1) and translation column (2, 3)
        m = np.eye(4)
        m[entry] = value
        with pytest.raises(ValueError, match="non-finite"):
            Pose(m)

    def test_inverse(self):
        rng = np.random.default_rng(1)
        p = Pose(rigid(random_rotation(rng), rng.standard_normal(3)))
        inv = np.linalg.inv(p.matrix)
        pts = rng.standard_normal((5, 3))
        np.testing.assert_allclose(PoseChain([p]).global_to_local(pts, 1),
                                   pts @ inv[:3, :3].T + inv[:3, 3], atol=1e-12)


class TestPoseChain:
    def test_identity_chain(self):
        chain = PoseChain([Pose.identity()] * 3)
        p = np.array([0.3, -0.2, 0.9])
        np.testing.assert_array_equal(chain.local_to_global(p, 2), p)
        np.testing.assert_array_equal(chain.global_to_local(p, 3), p)

    def test_translation_composition(self):
        step = np.eye(4)
        step[2, 3] = 0.1
        chain = PoseChain([step, step])
        out = chain.local_to_global([0.0, 0.0, 0.0], 2)
        np.testing.assert_allclose(out, [0.0, 0.0, 0.2], atol=1e-15)

    def test_translation_inverse_is_negated_cumulative(self):
        step = np.eye(4)
        step[:3, 3] = [0.1, -0.2, 0.3]
        chain = PoseChain([step, step, step])
        out = chain.global_to_local([0.0, 0.0, 0.0], 3)
        np.testing.assert_allclose(out, [-0.3, 0.6, -0.9], atol=1e-12)

    def test_round_trip_random_chain(self):
        rng = np.random.default_rng(7)
        chain = random_chain(rng, 10)
        for t in (1, 5, 10):
            p = rng.standard_normal((50, 3))
            back = chain.global_to_local(chain.local_to_global(p, t), t)
            assert np.max(np.abs(back - p)) < 1e-9

    def test_cumulative_consistency(self):
        # lifting from frame t equals stepping into frame t-1 with M_t, then lifting
        rng = np.random.default_rng(9)
        chain = random_chain(rng, 6)
        p = rng.standard_normal((5, 3))
        for t in range(2, 7):
            m = chain.poses[t - 1].matrix
            np.testing.assert_allclose(chain.local_to_global(p, t),
                                       chain.local_to_global(p @ m[:3, :3].T + m[:3, 3], t - 1),
                                       atol=1e-12)

    def test_index_bounds(self):
        chain = random_chain(np.random.default_rng(3), 4)
        with pytest.raises(IndexError):
            chain.local_to_global([0, 0, 1], 0)
        with pytest.raises(IndexError):
            chain.local_to_global([0, 0, 1], 5)

    def test_orthonormality_drift_over_64_steps(self):
        rng = np.random.default_rng(11)
        chain = random_chain(rng, 64)
        assert rotation_drift(chain) < 1e-6

    def test_step_array_bounds(self):
        chain = random_chain(np.random.default_rng(3), 4)
        with pytest.raises(IndexError):
            chain.global_to_local(np.zeros((2, 3)), np.array([1, 5]))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), length=st.integers(1, 20))
    def test_step_array_matches_per_step_calls(self, seed, length):
        # one call over a trajectory is the loop over its steps, bit for bit
        rng = np.random.default_rng(seed)
        chain = random_chain(rng, length)
        steps = rng.integers(1, length + 1, size=rng.integers(1, 30))
        p = rng.standard_normal((len(steps), 3))
        lifted = chain.local_to_global(p, steps)
        lowered = chain.global_to_local(p, steps)
        for i, t in enumerate(steps):
            np.testing.assert_array_equal(lifted[i], chain.local_to_global(p[i], int(t)))
            np.testing.assert_array_equal(lowered[i], chain.global_to_local(p[i], int(t)))
        assert np.max(np.abs(chain.global_to_local(lifted, steps) - p)) < 1e-9

    def test_array_round_trip(self):
        rng = np.random.default_rng(13)
        chain = random_chain(rng, 5)
        chain2 = PoseChain(chain.matrices)
        for a, b in zip(chain.poses, chain2.poses):
            np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_pose_views_are_stored_rows_and_read_only(self):
        m = np.array([p.matrix for p in random_chain(np.random.default_rng(17), 5).poses])
        chain = PoseChain(m)
        assert chain.matrices.shape == (5, 4, 4) and not chain.matrices.flags.writeable
        np.testing.assert_array_equal(chain.matrices, m)
        for pose, row in zip(chain.poses, m):
            assert pose.matrix.shape == (4, 4)
            np.testing.assert_array_equal(pose.matrix, row)
            with pytest.raises(ValueError, match="read-only"):
                pose.matrix[0, 3] = 1.0

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), length=st.integers(1, 12), data=st.data(),
           fault=st.sampled_from(["nan", "inf", "skew", "bottom"]))
    def test_bad_pose_is_named_by_step(self, seed, length, data, fault):
        k = data.draw(st.integers(1, length))
        m = np.array([p.matrix for p in random_chain(np.random.default_rng(seed), length).poses])
        if fault == "nan":
            m[k - 1, 1, 2] = np.nan
        elif fault == "inf":
            m[k - 1, 0, 3] = np.inf
        elif fault == "skew":
            m[k - 1, 0, 0] += 1e-4
        else:
            m[k - 1, 3, 1] = 1e-4
        with pytest.raises(ValueError, match=f"pose at step {k} "):
            PoseChain(m)
        with pytest.raises(ValueError, match=f"pose at step {k} "):
            PoseChain(list(m))


def reference_cumulative(m):
    """The cumulative products of one (T, 4, 4) stack, a step at a time."""
    cum = np.empty((len(m) + 1, 4, 4))
    cum[0] = np.eye(4)
    for t in range(1, len(m) + 1):
        cum[t] = cum[t - 1] @ m[t - 1]
    return cum


def random_poses(rng, n):
    """A (n, 4, 4) stack of random rigid transforms, translations of any scale."""
    m = np.tile(np.eye(4), (n, 1, 1))
    for i in range(n):
        m[i, :3, :3] = random_rotation(rng)
        m[i, :3, 3] = rng.standard_normal(3) * 10.0 ** rng.uniform(-3, 2)
    return m


class TestPoseChainStack:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           lengths=st.lists(st.sampled_from([1, 2, 3, 14, 15, 40]) | st.integers(1, 40),
                            max_size=12))
    def test_stack_is_each_chain_built_alone(self, seed, lengths):
        # mixed and repeated lengths, or none: each stacked chain has the
        # bytes of the chain built on its own and of the step-at-a-time loop
        rng = np.random.default_rng(seed)
        stacks = [random_poses(rng, n) for n in lengths]
        chains = PoseChain.stack(stacks)
        assert len(chains) == len(stacks)
        for m, chain in zip(stacks, chains):
            alone = PoseChain(m)
            assert len(chain) == len(m)
            for got in (chain, alone):
                assert got.cumulative.shape == (len(m) + 1, 4, 4)
                assert got.cumulative.tobytes() == reference_cumulative(m).tobytes()
                assert np.array([p.matrix for p in got.poses]).tobytes() == m.tobytes()
                assert not got.cumulative.flags.writeable
                assert all(not p.matrix.flags.writeable for p in got.poses)

    def test_stack_copies_its_inputs_and_takes_empty_chains(self):
        rng = np.random.default_rng(23)
        stacks = [random_poses(rng, 3), np.empty((0, 4, 4)), random_poses(rng, 5)]
        short, empty, long = PoseChain.stack(stacks)
        assert stacks[0].flags.writeable and stacks[2].flags.writeable
        assert len(empty) == 0 and empty.cumulative.tobytes() == np.eye(4).tobytes()
        assert long.cumulative.tobytes() == reference_cumulative(stacks[2]).tobytes()
        assert short.cumulative.tobytes() == reference_cumulative(stacks[0]).tobytes()
        assert PoseChain.stack([]) == []

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data(),
           lengths=st.lists(st.integers(1, 16), min_size=1, max_size=6),
           fault=st.sampled_from(["nan", "skew", "bottom"]))
    def test_bad_pose_names_its_chain_and_its_step(self, seed, data, lengths, fault):
        j = data.draw(st.integers(0, len(lengths) - 1))
        k = data.draw(st.integers(1, lengths[j]))
        stacks = [random_poses(np.random.default_rng([seed, i]), n)
                  for i, n in enumerate(lengths)]
        m = stacks[j]
        if fault == "nan":
            m[k - 1, 2, 0] = np.nan
        elif fault == "skew":
            m[k - 1, 1, 1] += 1e-4
        else:
            m[k - 1, 3, 2] = 1e-4
        with pytest.raises(PoseError, match=f"^pose at step {k} ") as err:
            PoseChain.stack(stacks)
        assert err.value.chain == j
        with pytest.raises(PoseError, match=f"^pose at step {k} "):
            PoseChain(m)

    def test_first_bad_chain_wins(self):
        rng = np.random.default_rng(29)
        stacks = [random_poses(rng, n) for n in (4, 6, 2)]
        stacks[1][5, 0, 0] = 2.0
        stacks[2][0, 0, 3] = np.inf
        with pytest.raises(PoseError, match="^pose at step 6 rotation block") as err:
            PoseChain.stack(stacks)
        assert err.value.chain == 1

    def test_shape_is_checked_per_chain(self):
        with pytest.raises(PoseError, match=r"got shape \(3, 4\)") as err:
            PoseChain.stack([np.eye(4)[None], np.eye(4)[:3]])
        assert err.value.chain == 1
