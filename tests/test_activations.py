import math

import numpy as np
import pytest

from entconform import (
    EntmaxConfig,
    InvalidGamma,
    InvalidInput,
    entmax,
    softmax,
    sparsemax,
)

from entconform.activations import _entmax_bisect_batch

from oracles import (
    entmax_bisect_every_iteration,
    entmax_objective,
    project_simplex_bruteforce,
    random_simplex_points,
    tsallis_entropy,
)
from synth import make_task

Z5 = np.array([1.0, -1.0, -0.2, 0.4, -0.5])


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax([0.0, 0.0, 0.0]).probs, 1.0 / 3, atol=1e-15)

    @pytest.mark.parametrize("c", [0.0, 5.0, -3.0])
    def test_log_three_ratio(self, c):
        # exp ratio 1:3 puts exactly 0.25 / 0.75 on the two labels
        np.testing.assert_allclose(
            softmax([c, c + math.log(3.0)]).probs, [0.25, 0.75], atol=1e-12
        )

    def test_zero_temperature_limit_monotone(self):
        z = np.array([1.0, 0.0])
        prev = 0.0
        for beta in [1.0, 4.0, 16.0, 64.0, 256.0]:
            p0 = softmax(beta * z).probs[0]
            assert p0 >= prev
            prev = p0
        assert prev > 1.0 - 1e-12

    def test_overflow_guard(self):
        p = softmax([1000.0, 999.0, 0.0]).probs
        assert np.all(np.isfinite(p))
        np.testing.assert_allclose(p.sum(), 1.0, atol=1e-12)

    def test_dense_support_and_gamma(self):
        d = softmax(Z5)
        assert d.gamma == 1.0
        np.testing.assert_array_equal(d.support, np.arange(5))
        # tau is the log-partition: probs == exp(z - tau)
        np.testing.assert_allclose(d.probs, np.exp(Z5 - d.tau), atol=1e-12)


class TestSparsemax:
    def test_worked_example(self):
        d = sparsemax(Z5)
        np.testing.assert_allclose(d.probs, [0.8, 0.0, 0.0, 0.2, 0.0], atol=1e-12)
        assert abs(d.tau - 0.2) < 1e-12
        np.testing.assert_array_equal(d.support, [0, 3])
        assert d.gamma == 2.0

    def test_all_equal_gives_uniform(self):
        for k in (2, 3, 7):
            d = sparsemax(np.full(k, 3.3))
            np.testing.assert_allclose(d.probs, 1.0 / k, atol=1e-12)
            assert d.support.size == k

    def test_big_margin_is_one_hot(self):
        d = sparsemax([10.0, 0.0])
        np.testing.assert_array_equal(d.probs, [1.0, 0.0])
        np.testing.assert_array_equal(d.support, [0])

    def test_matches_bruteforce_projection_on_grid(self):
        grid = [-1.0, -0.3, 0.0, 0.4, 1.0]
        rng = np.random.default_rng(11)
        for _ in range(300):
            k = rng.integers(2, 7)
            z = rng.choice(grid, size=k)
            np.testing.assert_allclose(
                sparsemax(z).probs, project_simplex_bruteforce(z), atol=1e-9
            )

    def test_matches_bruteforce_projection_random(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            k = rng.integers(2, 7)
            z = rng.uniform(-4.0, 4.0, size=k)
            np.testing.assert_allclose(
                sparsemax(z).probs, project_simplex_bruteforce(z), atol=1e-9
            )


class TestEntmax:
    def test_symmetric_pair(self):
        d = entmax([0.0, 0.0], EntmaxConfig(1.5))
        np.testing.assert_allclose(d.probs, [0.5, 0.5], atol=1e-9)

    def test_gamma_two_delegates_to_sparsemax(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            z = rng.uniform(-3.0, 3.0, size=rng.integers(2, 9))
            np.testing.assert_allclose(
                entmax(z, EntmaxConfig(2.0)).probs, sparsemax(z).probs, atol=1e-6
            )

    def test_gamma_one_delegates_to_softmax(self):
        z = Z5
        np.testing.assert_allclose(
            entmax(z, EntmaxConfig(1.0)).probs, softmax(z).probs, atol=0
        )

    def test_objective_dominance_worked_example(self):
        gamma = 1.5
        p_star = entmax(Z5, EntmaxConfig(gamma)).probs
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
            p_star = entmax(z, EntmaxConfig(gamma)).probs
            best = entmax_objective(p_star, z, gamma)
            # mixtures of the solution with random simplex points probe
            # the neighborhood as well as far-away corners
            for q in random_simplex_points(rng, k, 50):
                for t in (1.0, 0.1, 0.01):
                    cand = (1.0 - t) * p_star + t * q
                    assert best >= entmax_objective(cand, z, gamma) - 1e-9

    def test_rejects_bad_logits(self):
        for transform in (softmax, sparsemax, lambda z: entmax(z, EntmaxConfig(1.5))):
            with pytest.raises(InvalidInput):
                transform([1.0])
            with pytest.raises(InvalidInput):
                transform([1.0, math.nan])

    def test_invalid_gamma_rejected(self):
        for gamma in (0.5, 2.5, math.nan):
            with pytest.raises(InvalidGamma):
                EntmaxConfig(gamma)

    def test_nonconvergence_when_iterations_exhausted_far_from_one(self, monkeypatch):
        from entconform import NonConvergence

        # a single halving step cannot normalize a symmetric pair
        monkeypatch.setattr("entconform.activations._MAX_ITERS", 1)
        with pytest.raises(NonConvergence):
            entmax([0.0, 0.0], EntmaxConfig(1.5))

    def test_support_matches_positive_probs(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            k = rng.integers(2, 10)
            z = rng.uniform(-5.0, 5.0, size=k)
            gamma = rng.choice([1.2, 1.5, 1.8])
            d = entmax(z, EntmaxConfig(gamma))
            np.testing.assert_array_equal(np.flatnonzero(d.probs > 0.0), d.support)


class TestBisectionStop:
    """A row stops once a halving leaves its bracket unchanged.  Every later
    halving would repeat the same midpoint and sums, so stopping there must
    change no bit against running each row to the tolerance or the cap."""

    @pytest.mark.parametrize("tol", [1e-9, 1e-16], ids=["entmax", "support"])
    @pytest.mark.parametrize("gamma", [1.1, 1.5, 1.9])
    def test_matches_every_iteration_bit_for_bit(self, gamma, tol):
        rng = np.random.default_rng(int(gamma * 10))
        for k in (2, 10, 57, 300):
            draws = (
                rng.normal(size=(32, k)) * 3.0,
                rng.integers(0, 4, size=(32, k)).astype(float),
                rng.normal(size=(32, k)) + 1e6,
                make_task(32, num_classes=k, seed=k).logits * 4.0,
            )
            for Z in draws:
                got = _entmax_bisect_batch(Z, gamma, tol)
                want = entmax_bisect_every_iteration(Z, gamma, tol)
                for g, w in zip(got, want):
                    assert g.tobytes() == w.tobytes()


class TestEntmaxInvariants:
    GAMMAS = [1.0, 1.1, 1.25, 1.5, 1.75, 1.9, 2.0]

    def test_normalization_and_nonnegativity(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            k = rng.integers(2, 12)
            z = rng.uniform(-6.0, 6.0, size=k)
            for gamma in self.GAMMAS:
                p = entmax(z, EntmaxConfig(gamma)).probs
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
                    entmax(z + c, EntmaxConfig(gamma)).probs,
                    entmax(z, EntmaxConfig(gamma)).probs,
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
                    entmax(z[perm], EntmaxConfig(gamma)).probs,
                    entmax(z, EntmaxConfig(gamma)).probs[perm],
                    atol=1e-9,
                )

    def test_gamma_continuity_at_endpoints(self):
        rng = np.random.default_rng(24)
        for _ in range(25):
            k = rng.integers(2, 8)
            z = rng.uniform(-3.0, 3.0, size=k)
            np.testing.assert_allclose(
                entmax(z, EntmaxConfig(1.0 + 1e-6)).probs, softmax(z).probs, atol=1e-3
            )
            np.testing.assert_allclose(
                entmax(z, EntmaxConfig(2.0 - 1e-6)).probs, sparsemax(z).probs, atol=1e-3
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
                    if entmax(beta * z, EntmaxConfig(gamma)).support_size == 1:
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
        p_star = entmax(Z5, EntmaxConfig(gamma)).probs
        rng = np.random.default_rng(31)
        best = entmax_objective(p_star, Z5, gamma)
        for q in random_simplex_points(rng, 5, 200):
            assert best >= entmax_objective(q, Z5, gamma) - 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInput):
            entmax_objective([0.5, 0.5], [1.0, 2.0, 3.0], 1.5)
