import math

import numpy as np
import pytest

from entconform import InvalidGamma, InvalidInput, entmax, support_sets_via_entmax

from entconform.activations import _entmax_batch, _softmax_rows, _sparsemax_batch

from oracles import (
    entmax_bisect_every_iteration,
    entmax_objective,
    project_simplex_bruteforce,
    random_simplex_points,
    tsallis_entropy,
)
from synth import make_task

Z5 = np.array([1.0, -1.0, -0.2, 0.4, -0.5])


def one_row(z, gamma):
    """gamma-entmax of the single score vector ``z``: a batch of one row."""
    return entmax(np.asarray(z)[None], gamma)[0]


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(one_row([0.0, 0.0, 0.0], 1.0), 1.0 / 3, atol=1e-15)

    @pytest.mark.parametrize("c", [0.0, 5.0, -3.0])
    def test_log_three_ratio(self, c):
        # exp ratio 1:3 puts exactly 0.25 / 0.75 on the two labels
        np.testing.assert_allclose(
            one_row([c, c + math.log(3.0)], 1.0), [0.25, 0.75], atol=1e-12
        )

    def test_zero_temperature_limit_monotone(self):
        z = np.array([1.0, 0.0])
        prev = 0.0
        for beta in [1.0, 4.0, 16.0, 64.0, 256.0]:
            p0 = one_row(beta * z, 1.0)[0]
            assert p0 >= prev
            prev = p0
        assert prev > 1.0 - 1e-12

    def test_overflow_guard(self):
        p = one_row([1000.0, 999.0, 0.0], 1.0)
        assert np.all(np.isfinite(p))
        np.testing.assert_allclose(p.sum(), 1.0, atol=1e-12)

    def test_dense_support(self):
        p = one_row(Z5, 1.0)
        np.testing.assert_array_equal(np.flatnonzero(p > 0.0), np.arange(5))
        # probs == exp(z - log-partition)
        np.testing.assert_allclose(p, np.exp(Z5 - np.log(np.exp(Z5).sum())), atol=1e-12)


class TestSparsemax:
    def test_worked_example(self):
        p = one_row(Z5, 2.0)
        np.testing.assert_allclose(p, [0.8, 0.0, 0.0, 0.2, 0.0], atol=1e-12)
        np.testing.assert_array_equal(np.flatnonzero(p > 0.0), [0, 3])

    def test_all_equal_gives_uniform(self):
        for k in (2, 3, 7):
            p = one_row(np.full(k, 3.3), 2.0)
            np.testing.assert_allclose(p, 1.0 / k, atol=1e-12)
            assert np.count_nonzero(p > 0.0) == k

    def test_big_margin_is_one_hot(self):
        p = one_row([10.0, 0.0], 2.0)
        np.testing.assert_array_equal(p, [1.0, 0.0])
        np.testing.assert_array_equal(np.flatnonzero(p > 0.0), [0])

    def test_matches_bruteforce_projection_on_grid(self):
        grid = [-1.0, -0.3, 0.0, 0.4, 1.0]
        rng = np.random.default_rng(11)
        for _ in range(300):
            k = rng.integers(2, 7)
            z = rng.choice(grid, size=k)
            np.testing.assert_allclose(
                one_row(z, 2.0), project_simplex_bruteforce(z), atol=1e-9
            )

    def test_matches_bruteforce_projection_random(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            k = rng.integers(2, 7)
            z = rng.uniform(-4.0, 4.0, size=k)
            np.testing.assert_allclose(
                one_row(z, 2.0), project_simplex_bruteforce(z), atol=1e-9
            )


class TestEntmax:
    def test_symmetric_pair(self):
        np.testing.assert_allclose(one_row([0.0, 0.0], 1.5), [0.5, 0.5], atol=1e-9)

    def test_gamma_two_delegates_to_sparsemax(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            z = rng.uniform(-3.0, 3.0, size=rng.integers(2, 9))
            np.testing.assert_allclose(
                one_row(z, 2.0), _sparsemax_batch(z[None])[0], atol=1e-6
            )

    def test_gamma_one_delegates_to_softmax(self):
        z = Z5
        np.testing.assert_allclose(
            one_row(z, 1.0), _softmax_rows(z[None])[0], atol=0
        )

    def test_objective_dominance_worked_example(self):
        gamma = 1.5
        p_star = one_row(Z5, gamma)
        best = entmax_objective(p_star, Z5, gamma)
        rng = np.random.default_rng(7)
        for q in random_simplex_points(rng, 5, 1000):
            assert best >= entmax_objective(q, Z5, gamma) - 1e-9

    def test_objective_dominance_random_inputs(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            k = rng.integers(2, 8)
            z = rng.uniform(-4.0, 4.0, size=k)
            gamma = rng.uniform(1.05, 1.95)
            p_star = one_row(z, gamma)
            best = entmax_objective(p_star, z, gamma)
            # mixtures of the solution with random simplex points probe
            # the neighborhood as well as far-away corners
            for q in random_simplex_points(rng, k, 50):
                for t in (1.0, 0.1, 0.01):
                    cand = (1.0 - t) * p_star + t * q
                    assert best >= entmax_objective(cand, z, gamma) - 1e-9

    def test_rejects_bad_logits(self):
        for gamma in (1.0, 2.0, 1.5):
            with pytest.raises(InvalidInput):
                one_row([1.0], gamma)
            with pytest.raises(InvalidInput):
                one_row([1.0, math.nan], gamma)

    def test_invalid_gamma_rejected(self):
        for gamma in (0.5, 2.5, math.nan):
            with pytest.raises(InvalidGamma, match=r"gamma must lie in \[1, 2\], got"):
                entmax(Z5[None], gamma)
        with pytest.raises(InvalidInput):
            entmax(Z5[None], "1.5")

    def test_nonconvergence_when_iterations_exhausted_far_from_one(self, monkeypatch):
        from entconform import NonConvergence

        # a single halving step cannot normalize a symmetric pair
        monkeypatch.setattr("entconform.activations._MAX_ITERS", 1)
        with pytest.raises(NonConvergence):
            one_row([0.0, 0.0], 1.5)

    def test_support_matches_positive_probs(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            k = rng.integers(2, 10)
            z = rng.uniform(-5.0, 5.0, size=k)
            gamma = rng.choice([1.2, 1.5, 1.8])
            probs, support = _entmax_batch(z[None], gamma)
            np.testing.assert_array_equal(probs > 0.0, support)
            np.testing.assert_array_equal(probs[0], one_row(z, gamma))

    def test_support_keeps_a_label_whose_probability_underflows(self):
        # the ramp of label 2 is positive, but its power 1/(gamma - 1) = 100
        # underflows: a row's support is support_sets_via_entmax at beta 1,
        # not the positive probabilities
        z = [0.0, 0.0, -99.3085]
        assert one_row(z, 1.01).tolist() == [0.5, 0.5, 0.0]
        assert support_sets_via_entmax(np.array([z]), 1.0, 1.01)[0].labels == (0, 1, 2)


class TestNewtonThreshold:
    """Newton's method from t = -1 rises to the threshold and stops on the
    first step that no longer raises it, so it lands where a bisection run
    to convergence lands: the same supports, the probabilities within a
    few units of round-off."""

    @staticmethod
    def assert_matches_converged_bisection(Z, gamma):
        probs, support = _entmax_batch(Z, gamma)
        want_probs, _, want_support = entmax_bisect_every_iteration(
            Z, gamma, tol=0.0, max_iters=1100
        )
        np.testing.assert_array_equal(support, want_support)
        np.testing.assert_allclose(probs, want_probs, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("gamma", [1.1, 1.5, 1.9])
    def test_matches_converged_bisection(self, gamma):
        rng = np.random.default_rng(int(gamma * 10))
        for k in (2, 10, 57, 300):
            draws = (
                rng.normal(size=(32, k)) * 3.0,
                rng.integers(0, 4, size=(32, k)).astype(float),
                rng.normal(size=(32, k)) + 1e6,
                make_task(32, num_classes=k, seed=k).logits * 4.0,
            )
            for Z in draws:
                self.assert_matches_converged_bisection(Z, gamma)

    @pytest.mark.parametrize("gamma", [1.1, 1.5, 1.9])
    @pytest.mark.parametrize(
        "z", [np.zeros(1000), np.array([3e16, 1.0, 0.0])], ids=["all-tied", "huge-top"]
    )
    def test_matches_converged_bisection_on_extreme_rows(self, z, gamma):
        # every label tied, and a top score so far ahead that t = -1 is the root
        self.assert_matches_converged_bisection(z[None], gamma)

    @pytest.mark.parametrize("gamma", [1.01, 1.5, 1.9, 1.99, 1.999999])
    def test_converges_well_within_the_iteration_cap(self, gamma, monkeypatch):
        # rows at every spacing, magnitude and offset settle within 30 steps
        # (at most 14 on these rows); a row cut short by the cap would raise
        # or give other bits than the full cap gives
        batches = []
        for k in (2, 10, 1000, 10_000):
            j = np.arange(k, dtype=float)
            rows = []
            for spacing in (j, np.expm1(j * 10.0 / k), np.sqrt(j), np.log1p(j), j * 10 // k):
                for scale in (1e-3, 1.0, 1e3, 1e6):
                    z = -scale * spacing / spacing.max()
                    rows += [z, z + 1e6]
            batches.append(np.array(rows))
        full = [_entmax_batch(Z, gamma)[0] for Z in batches]
        monkeypatch.setattr("entconform.activations._MAX_ITERS", 30)
        for Z, want in zip(batches, full):
            assert _entmax_batch(Z, gamma)[0].tobytes() == want.tobytes()


class TestBatchRows:
    @pytest.mark.parametrize("gamma", [1.0, 1.5, 2.0])
    def test_rows_are_independent(self, gamma):
        # a row's probabilities are the same bits in any batch, so one call
        # over every row equals one call per row
        rng = np.random.default_rng(42)
        for k in (2, 10, 300):
            draws = (
                rng.normal(size=(16, k)) * 3.0,
                rng.normal(size=(16, k)) + 1e6,
                rng.integers(0, 3, size=(16, k)).astype(float),
            )
            for Z in draws:
                batch = entmax(Z, gamma)
                for i in range(Z.shape[0]):
                    assert batch[i].tobytes() == entmax(Z[i : i + 1], gamma)[0].tobytes()


class TestEntmaxInvariants:
    GAMMAS = [1.0, 1.1, 1.25, 1.5, 1.75, 1.9, 2.0]

    def test_normalization_and_nonnegativity(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            k = rng.integers(2, 12)
            z = rng.uniform(-6.0, 6.0, size=k)
            for gamma in self.GAMMAS:
                p = one_row(z, gamma)
                assert np.all(p >= 0.0)
                assert abs(p.sum() - 1.0) <= 1e-8

    def test_shift_invariance(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            k = rng.integers(2, 8)
            z = rng.uniform(-3.0, 3.0, size=k)
            c = rng.uniform(-20.0, 20.0)
            for gamma in self.GAMMAS:
                np.testing.assert_allclose(
                    one_row(z + c, gamma),
                    one_row(z, gamma),
                    atol=1e-8,
                )

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            k = rng.integers(2, 8)
            z = rng.uniform(-3.0, 3.0, size=k)
            perm = rng.permutation(k)
            for gamma in self.GAMMAS:
                np.testing.assert_allclose(
                    one_row(z[perm], gamma),
                    one_row(z, gamma)[perm],
                    atol=1e-9,
                )

    def test_gamma_continuity_at_endpoints(self):
        rng = np.random.default_rng(24)
        for _ in range(25):
            k = rng.integers(2, 8)
            z = rng.uniform(-3.0, 3.0, size=k)
            np.testing.assert_allclose(
                one_row(z, 1.0 + 1e-6), one_row(z, 1.0), atol=1e-3
            )
            np.testing.assert_allclose(
                one_row(z, 2.0 - 1e-6), one_row(z, 2.0), atol=1e-3
            )

    def test_saturation_at_finite_beta(self):
        # for gamma > 1 some finite beta shrinks the support to a singleton
        rng = np.random.default_rng(25)
        for _ in range(25):
            k = rng.integers(2, 8)
            z = rng.uniform(-3.0, 3.0, size=k)
            if np.count_nonzero(z == z.max()) > 1:
                continue
            for gamma in (1.25, 1.5, 2.0):
                beta = 1.0
                while beta <= 2.0**64:
                    if np.count_nonzero(one_row(beta * z, gamma) > 0.0) == 1:
                        break
                    beta *= 2.0
                else:
                    pytest.fail(f"no saturation below beta=2**64 for gamma={gamma}")


# The entropy and objective oracles that the optimality tests compare against.
class TestTsallisEntropy:
    def test_deterministic_distribution_is_zero(self):
        onehot = [1.0, 0.0, 0.0, 0.0]
        for gamma in (0.5, 1.0, 1.3, 2.0):
            assert tsallis_entropy(onehot, gamma) == pytest.approx(0.0, abs=1e-15)

    def test_fair_coin_shannon(self):
        assert tsallis_entropy([0.5, 0.5], 1.0) == pytest.approx(math.log(2.0))

    def test_fair_coin_gamma_two(self):
        # (1/(2*1)) * (1 - (0.25 + 0.25)) = 0.25
        assert tsallis_entropy([0.5, 0.5], 2.0) == pytest.approx(0.25)

    def test_shannon_branch_near_one(self):
        p = [0.3, 0.7]
        exact = -(0.3 * math.log(0.3) + 0.7 * math.log(0.7))
        assert tsallis_entropy(p, 1.0 + 1e-13) == pytest.approx(exact)

    def test_rejects_negative_entries(self):
        with pytest.raises(InvalidInput):
            tsallis_entropy([1.1, -0.1], 2.0)

    def test_tolerates_tiny_negative_noise(self):
        assert tsallis_entropy([1.0 + 1e-10, -1e-10], 2.0) == pytest.approx(0.0, abs=1e-9)

    def test_rejects_off_simplex(self):
        with pytest.raises(InvalidInput):
            tsallis_entropy([0.6, 0.6], 1.5)


class TestEntmaxObjective:
    def test_one_hot_at_argmax(self):
        assert entmax_objective([1.0, 0.0], [10.0, 0.0], 2.0) == pytest.approx(10.0)

    def test_uniform_shannon(self):
        assert entmax_objective([0.5, 0.5], [0.0, 0.0], 1.0) == pytest.approx(
            math.log(2.0)
        )

    def test_argmax_definition(self):
        gamma = 1.5
        p_star = one_row(Z5, gamma)
        rng = np.random.default_rng(31)
        best = entmax_objective(p_star, Z5, gamma)
        for q in random_simplex_points(rng, 5, 200):
            assert best >= entmax_objective(q, Z5, gamma) - 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInput):
            entmax_objective([0.5, 0.5], [1.0, 2.0, 3.0], 1.5)
