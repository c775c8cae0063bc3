"""System data model: checks at construction, classification, generation, reverse time, fixtures."""
from __future__ import annotations

import json
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multirate_zeros.model import (Dimensions, MultirateSystem, SystemClass,
                                   TolerancePolicy, _rng, classify, fixture,
                                   load_system, policy_from_dict,
                                   random_generic, save_system,
                                   system_from_dict, system_to_dict)

from conftest import EXAMPLE1_DIMS

dims_strategy = st.builds(
    Dimensions,
    n=st.integers(1, 5),
    m=st.integers(1, 4),
    p1=st.integers(1, 4),
    p2=st.integers(1, 10),
    N=st.integers(2, 4),
)


class TestDimensions:
    def test_p_is_total_output_dim(self):
        assert Dimensions(1, 3, 1, 5, 2).p == 6

    @pytest.mark.parametrize("kwargs", [
        dict(n=0, m=1, p1=1, p2=1, N=2),
        dict(n=1, m=0, p1=1, p2=1, N=2),
        dict(n=1, m=1, p1=0, p2=1, N=2),
        dict(n=1, m=1, p1=1, p2=0, N=2),
        dict(n=1, m=1, p1=1, p2=1, N=1),
    ])
    def test_rejects_nonpositive_or_unblocked(self, kwargs):
        with pytest.raises(ValueError):
            Dimensions(**kwargs)

    @pytest.mark.parametrize("field,value", [
        ("n", True), ("N", True), ("n", 1.5), ("p2", 3.0), ("m", "2")])
    def test_rejects_non_integer_sizes(self, field, value):
        kwargs = dict(n=1, m=2, p1=1, p2=3, N=2)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"field {field!r} must be an integer"):
            Dimensions(**kwargs)

    def test_numpy_integers_are_kept_as_ints(self):
        d = Dimensions(*map(np.int64, (1, 3, 1, 5, 2)))
        assert d == EXAMPLE1_DIMS
        assert all(type(v) is int for v in vars(d).values())
        with pytest.raises(ValueError, match="field 'n' must be an integer"):
            Dimensions(np.bool_(True), 3, 1, 5, 2)


class TestTolerancePolicy:
    def test_defaults(self):
        pol = TolerancePolicy()
        assert pol.rel_rank_tol == 1e-9
        assert pol.zero_radius == 1e-8
        assert pol.cluster_tol == 1e-6
        assert pol.normal_rank_samples == 7
        assert pol.condition_cap == 1e10
        assert [f.name for f in fields(pol)] == [
            "rel_rank_tol", "zero_radius", "cluster_tol", "normal_rank_samples",
            "condition_cap"]

    @pytest.mark.parametrize("kwargs", [
        dict(rel_rank_tol=0.0),
        dict(zero_radius=-1e-8),
        dict(cluster_tol=0.0),
        dict(condition_cap=0.0),
        dict(normal_rank_samples=2),
        dict(normal_rank_samples=True),
        dict(rel_rank_tol="x"),
        dict(zero_radius=True),
        dict(cluster_tol=float("nan")),
        dict(condition_cap=float("inf")),
        dict(normal_rank_samples=7.5),
        dict(normal_rank_samples=np.float64(7.0)),
        dict(rel_rank_tol=1e-17),  # below machine epsilon
    ])
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            TolerancePolicy(**kwargs)

    def test_numpy_integer_sample_count_is_kept_as_an_int(self):
        pol = TolerancePolicy(normal_rank_samples=np.int64(9))
        assert type(pol.normal_rank_samples) is int
        assert pol == TolerancePolicy(normal_rank_samples=9)

    @pytest.mark.parametrize("kwargs", [dict(zero_radius=1.0),
                                        dict(zero_radius=0.5, cluster_tol=2.0)])
    def test_bands_must_leave_room_for_a_finite_nonzero_zero(self, kwargs):
        # zero_report lists only cluster_tol < |z| < 1/zero_radius and skips
        # |z| <= zero_radius: such a policy could never report a zero
        with pytest.raises(ValueError, match="zero_radius .* and cluster_tol .* leave no room"):
            TolerancePolicy(**kwargs)

    def test_retired_resample_limit_is_an_unknown_field(self):
        with pytest.raises(ValueError, match="unknown policy field 'resample_limit'"):
            policy_from_dict({"resample_limit": 5})


MATRICES = ("A", "B", "Cf", "Cs", "Df", "Ds")


class TestValidate:
    """A system checks its matrices when it is built, whatever builds it."""

    def test_well_formed_system_is_ok(self):
        sys = random_generic(Dimensions(1, 2, 1, 2, 2), seed=0)
        rebuilt = MultirateSystem(dims=sys.dims, **{k: getattr(sys, k).tolist() for k in MATRICES})
        for name in MATRICES:
            assert np.array_equal(getattr(rebuilt, name), getattr(sys, name))
            assert getattr(rebuilt, name).dtype == np.float64

    def test_wrong_shape_names_the_matrix(self):
        d = Dimensions(2, 1, 1, 1, 2)
        good = random_generic(d, seed=0)
        with pytest.raises(ValueError, match=r"'A' has shape \(2, 3\), expected \(2, 2\)"):
            MultirateSystem(dims=d, A=np.zeros((2, 3)), B=good.B,
                            Cf=good.Cf, Cs=good.Cs, Df=good.Df, Ds=good.Ds)

    def test_nonfinite_entry_names_the_matrix(self):
        d = Dimensions(2, 1, 1, 1, 2)
        good = random_generic(d, seed=0)
        B = good.B.copy()
        B[0, 0] = np.inf
        with pytest.raises(ValueError, match="'B' contains non-finite"):
            MultirateSystem(dims=d, A=good.A, B=B, Cf=good.Cf,
                            Cs=good.Cs, Df=good.Df, Ds=good.Ds)

    # every matrix is named on its own: the finiteness test runs over all
    # entries at once, and only its failure looks for the matrix
    @pytest.mark.parametrize("name", MATRICES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_each_nonfinite_matrix_is_named(self, name, bad):
        sys = random_generic(Dimensions(2, 2, 1, 3, 2), seed=1)
        mats = {k: getattr(sys, k).copy() for k in MATRICES}
        mats[name][-1, -1] = bad
        with pytest.raises(ValueError, match=f"matrix '{name}' contains non-finite"):
            MultirateSystem(dims=sys.dims, **mats)

    @pytest.mark.parametrize("value", ["abc", [[1.0, 2.0], [3.0]], [[1j]], {"a": 1},
                                       None, [["1.5"]], [[True]]])
    def test_nonnumeric_matrix_is_named(self, value):
        sys = random_generic(Dimensions(1, 1, 1, 1, 2), seed=0)
        mats = {k: getattr(sys, k) for k in MATRICES}
        with pytest.raises(ValueError, match="matrix 'Cs' is not numeric"):
            MultirateSystem(dims=sys.dims, **{**mats, "Cs": value})

    def test_scalar_counts_as_one_row(self):
        sys = random_generic(Dimensions(1, 1, 1, 1, 2), seed=0)
        rebuilt = MultirateSystem(dims=sys.dims, **{k: float(getattr(sys, k)[0, 0])
                                                    for k in MATRICES})
        assert rebuilt.A.shape == (1, 1)


class TestClassify:
    def test_mixed_tall_example(self):
        assert classify(EXAMPLE1_DIMS) is SystemClass.MIXED_TALL

    def test_fast_tall(self):
        assert classify(Dimensions(2, 1, 2, 1, 3)) is SystemClass.FAST_TALL

    def test_boundary_is_not_tall(self):
        # N*p1 + p2 = 4 equals N*m = 4: tallness needs the strict inequality
        assert classify(Dimensions(1, 2, 1, 2, 2)) is SystemClass.NOT_TALL

    @given(dims=dims_strategy)
    def test_total_and_exclusive(self, dims):
        cls = classify(dims)
        if dims.p1 > dims.m:
            assert cls is SystemClass.FAST_TALL
        elif dims.N * dims.p1 + dims.p2 > dims.N * dims.m:
            assert cls is SystemClass.MIXED_TALL
        else:
            assert cls is SystemClass.NOT_TALL


class TestRandomGeneric:
    def test_deterministic_in_dims_and_seed(self):
        d = Dimensions(3, 2, 1, 3, 3)
        a = random_generic(d, seed=17)
        b = random_generic(d, seed=17)
        for name in ("A", "B", "Cf", "Cs", "Df", "Ds"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_different_seeds_differ(self):
        d = Dimensions(3, 2, 1, 3, 3)
        a = random_generic(d, seed=17)
        b = random_generic(d, seed=18)
        assert not np.array_equal(a.A, b.A)

    @pytest.mark.parametrize("seed", range(8))
    def test_eigenvalues_are_distinct(self, seed, policy):
        sys = random_generic(Dimensions(4, 1, 1, 1, 2), seed=seed)
        eig = np.linalg.eigvals(sys.A)
        gaps = [abs(eig[i] - eig[j]) for i in range(4) for j in range(i + 1, 4)]
        assert min(gaps) > policy.cluster_tol

    @given(dims=st.builds(Dimensions, n=st.integers(1, 6), m=st.integers(1, 5),
                          p1=st.integers(1, 5), p2=st.integers(1, 24), N=st.integers(2, 8)),
           seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=40, deadline=None)
    def test_one_draw_gives_the_matrices_drawn_one_by_one(self, dims, seed):
        # the entries come from one standard_normal call, split in the order
        # A, B, Cf, Cs, Df, Ds; a draw of each matrix in turn gives the same bits
        rng = _rng(seed)
        sys = random_generic(dims, seed)
        for name in ("A", "B", "Cf", "Cs", "Df", "Ds"):
            want = rng.standard_normal(getattr(sys, name).shape)
            assert getattr(sys, name).tobytes() == want.tobytes()

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_pure_function_of_seed(self, seed):
        d = Dimensions(2, 2, 1, 3, 2)
        a = random_generic(d, seed)
        b = random_generic(d, seed)
        assert all(np.array_equal(getattr(a, f), getattr(b, f))
                   for f in ("A", "B", "Cf", "Cs", "Df", "Ds"))


class TestSeeds:
    # a float or bool seed would alias the integer Philox makes of it
    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5, 2**128 - 5, 0.5, True, "3"])
    def test_seed_that_is_not_a_64_bit_integer_is_refused(self, seed):
        with pytest.raises(ValueError, match=re.escape(
                f"seed must be an integer in [0, 2**64), got {seed!r}")):
            random_generic(Dimensions(1, 3, 1, 5, 2), seed)

    def test_numpy_integer_seed_draws_as_its_int(self):
        for seed in (np.int64(7), np.uint64(2**64 - 1)):
            got = random_generic(EXAMPLE1_DIMS, seed)
            assert got.A.tobytes() == random_generic(EXAMPLE1_DIMS, int(seed)).A.tobytes()
            assert _rng(seed, 1).uniform() == _rng(int(seed), 1).uniform()

    def test_largest_seed_draws(self):
        sys = random_generic(Dimensions(1, 3, 1, 5, 2), 2**64 - 1)
        assert np.isfinite(sys.A).all()

    # seed 2**64 once drew the systems from seed 0's sample-point stream
    def test_each_purpose_has_its_own_key_range(self):
        for seed in (0, 7, 2**64 - 1):
            for purpose in (0, 1):
                key = seed + purpose * 2**64
                want = np.random.Generator(np.random.Philox(key=key)).uniform(size=3)
                assert np.array_equal(_rng(seed, purpose).uniform(size=3), want)
        assert _rng(0, 1).uniform() != _rng(0).uniform()


class TestFixtures:
    def test_shift_small_n_state_matrix(self):
        # shifting R^2 through m - p1 = 2 positions is the identity permutation
        d = Dimensions(2, 3, 1, 5, 2)
        sys = fixture("shift_small_n", d, tau=1, seed=0)
        assert np.array_equal(sys.A, np.eye(2))
        assert np.allclose(sys.A @ sys.A.T, np.eye(2))

    def test_shift_small_n_is_a_permutation(self):
        d = Dimensions(4, 4, 1, 8, 3)  # w = 3, n = 4: a genuine cycle
        sys = fixture("shift_small_n", d, tau=1, seed=0)
        A = sys.A
        assert np.array_equal(np.sort(A, axis=0)[-1], np.ones(4))
        assert np.allclose(A @ A.T, np.eye(4))
        assert not np.array_equal(A, np.eye(4))

    def test_shift_small_n_gate(self):
        d = Dimensions(3, 3, 1, 5, 2)  # n = 3 > (N - tau)(m - p1) = 2
        with pytest.raises(ValueError, match=r"shift_small_n needs n <= \(N-tau\)\(m-p1\) = 2"):
            fixture("shift_small_n", d, tau=1, seed=0)

    def test_shift_large_n_gate(self):
        d = Dimensions(2, 3, 1, 5, 2)  # n = 2 <= (N - tau)(m - p1): not large
        with pytest.raises(ValueError, match=r"shift_large_n needs n > \(N-tau\)\(m-p1\) = 2"):
            fixture("shift_large_n", d, tau=1, seed=0)

    def test_example1_dims_are_fixed(self):
        with pytest.raises(ValueError, match=r"example1 is defined for dims \(1,3,1,5,2\)"):
            fixture("example1", Dimensions(2, 3, 1, 5, 2), tau=1, seed=0)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            fixture("nope", EXAMPLE1_DIMS, tau=1, seed=0)

    def test_shift_orthogonality_and_reachability(self):
        # the shift construction: A orthogonal, and the blocked input map
        # [A^(N-tau-1)B ... B] reaches the whole state space whenever the
        # state fits in (N - tau) shifts of the input image
        for (n, m, p1, p2, N, tau) in [
            (2, 3, 1, 5, 2, 1),
            (3, 3, 1, 7, 3, 1),
            (2, 3, 2, 6, 3, 1),
            (2, 4, 2, 9, 3, 2),
        ]:
            d = Dimensions(n, m, p1, p2, N)
            w = m - p1
            assert n <= (N - tau) * w
            sys = fixture("shift_small_n", d, tau=tau, seed=0)
            assert np.allclose(sys.A @ sys.A.T, np.eye(n))
            blocks = [np.linalg.matrix_power(sys.A, k) @ sys.B
                      for k in range(N - tau - 1, -1, -1)]
            reach = np.hstack(blocks)
            assert np.linalg.matrix_rank(reach) == n

    def test_shift_controllability_rank(self):
        sys = fixture("shift_controllability", Dimensions(4, 2, 1, 1, 2), tau=1, seed=0)
        ctrb = np.hstack([sys.B, sys.A @ sys.B])
        assert np.linalg.matrix_rank(ctrb) == 4


class TestSerialization:
    def test_round_trip_dict(self):
        sys = random_generic(Dimensions(2, 3, 1, 5, 2), seed=3)
        back = system_from_dict(system_to_dict(sys))
        assert back.dims == sys.dims
        for name in ("A", "B", "Cf", "Cs", "Df", "Ds"):
            assert np.array_equal(getattr(back, name), getattr(sys, name))

    def test_round_trip_file(self, tmp_path):
        sys = random_generic(Dimensions(3, 1, 2, 1, 2), seed=9)
        path = tmp_path / "sys.json"
        save_system(sys, path)
        back = load_system(path)
        assert back.dims == sys.dims
        assert np.array_equal(back.A, sys.A)

    def test_wrong_shape_names_field(self):
        data = system_to_dict(random_generic(Dimensions(2, 1, 1, 1, 2), seed=0))
        data["B"] = [[1.0, 2.0]]  # should be 2x1
        with pytest.raises(ValueError, match="'B'"):
            system_from_dict(data)

    def test_missing_field(self):
        data = system_to_dict(random_generic(Dimensions(2, 1, 1, 1, 2), seed=0))
        del data["Cs"]
        with pytest.raises(ValueError, match="'Cs'"):
            system_from_dict(data)

    def test_noninteger_dimension(self):
        data = system_to_dict(random_generic(Dimensions(2, 1, 1, 1, 2), seed=0))
        data["n"] = 2.0
        with pytest.raises(ValueError, match="'n'"):
            system_from_dict(data)

    def test_nonfinite_entry_rejected(self):
        data = system_to_dict(random_generic(Dimensions(2, 1, 1, 1, 2), seed=0))
        data["A"][0][0] = float("nan")
        with pytest.raises(ValueError, match="'A'"):
            system_from_dict(data)

    def test_unknown_field_is_refused(self):
        data = system_to_dict(random_generic(Dimensions(2, 1, 1, 1, 2), seed=0))
        data["Dt"] = [[0.0]]
        with pytest.raises(ValueError, match="unknown system field 'Dt'"):
            system_from_dict(data)

    def test_file_and_python_errors_are_the_same(self):
        data = system_to_dict(random_generic(Dimensions(2, 1, 1, 1, 2), seed=0))
        data["Df"] = [[1.0, 2.0]]
        with pytest.raises(ValueError) as from_file:
            system_from_dict(data)
        with pytest.raises(ValueError) as from_python:
            MultirateSystem(dims=Dimensions(2, 1, 1, 1, 2),
                            **{k: data[k] for k in MATRICES})
        assert str(from_file.value) == str(from_python.value)

    def test_file_format_is_plain_json(self, tmp_path):
        sys = random_generic(Dimensions(1, 1, 1, 1, 2), seed=0)
        path = tmp_path / "sys.json"
        save_system(sys, path)
        data = json.loads(path.read_text())
        assert set(data) == {"n", "m", "p1", "p2", "N", "A", "B", "Cf", "Cs", "Df", "Ds"}
