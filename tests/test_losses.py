import warnings

import numpy as np
import pytest

from avqa_debias.losses import (
    HEADS,
    UNIMODAL,
    LogitBundle,
    LossError,
    LossValue,
    MccdConfig,
    answer_loss,
    cycle_loss,
    cycle_loss_stacked,
    discrepancy_loss,
    discrepancy_loss_stacked,
    finite_difference_check,
    joint_components_stacked,
    joint_loss,
    log_softmax,
    softmax,
    softmaxed,
)

# fixed bundle used for the frozen oracle values below
ORACLE = LogitBundle(
    audio=np.array([0.2, -1.1, 0.7]),
    video=np.array([1.5, 0.3, -0.2]),
    question=np.array([-0.4, 0.9, 0.1]),
    fused=np.array([0.6, 0.6, -1.0]),
)


def random_batch(rng, k, c, scale=3.0):
    return [LogitBundle(*(rng.standard_normal(c) * scale for _ in range(4))) for _ in range(k)]


class TestLogitBundle:
    def test_casts_to_float64(self):
        b = LogitBundle(audio=[1, 2], video=[0, 0], question=[3, 4], fused=[1, 1])
        assert b.audio.dtype == np.float64
        assert b.num_classes == 2

    def test_shape_mismatch(self):
        with pytest.raises(LossError, match="shape"):
            LogitBundle(audio=[1, 2], video=[0, 0, 0], question=[3, 4], fused=[1, 1])

    def test_nonfinite_rejected(self):
        with pytest.raises(LossError, match="non-finite"):
            LogitBundle(audio=[1, np.nan], video=[0, 0], question=[3, 4], fused=[1, 1])

    def test_empty_rejected(self):
        with pytest.raises(LossError):
            LogitBundle(audio=[], video=[], question=[], fused=[])


class TestSoftmax:
    def test_sums_to_one_and_is_stable(self):
        p = softmax(np.array([1000.0, 1000.0, 999.0]))
        assert np.all(np.isfinite(p))
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_log_softmax_consistent(self):
        v = np.array([0.3, -2.0, 1.1])
        assert np.allclose(np.exp(log_softmax(v)), softmax(v), atol=1e-15)


class TestDiscrepancyLoss:
    def test_oracle_probability_space(self):
        lv = discrepancy_loss([ORACLE])
        assert lv.value == pytest.approx(0.024618695924773747, abs=1e-12)

    def test_oracle_raw_logit_space(self):
        lv = discrepancy_loss([ORACLE], MccdConfig(distance_space="raw_logit"))
        assert lv.value == pytest.approx(0.006251652942019714, abs=1e-12)

    def test_identical_heads_hit_the_epsilon_wall(self):
        v = np.array([0.5, -0.5, 0.0])
        b = LogitBundle(audio=v, video=v, question=v, fused=v)
        # d = 0 for all three terms: L = (1/(3*1)) * 3 * (1/eps) = 1e5
        lv = discrepancy_loss([b], MccdConfig(alpha=1.0))
        assert lv.value == pytest.approx(1e5, rel=1e-12)
        # subgradient 0 at the kink: gradients stay finite
        for name in HEADS:
            assert np.all(np.isfinite(lv.grads[name]))

    def test_overflowing_raw_distance_is_at_its_limit(self):
        """Raw logits 2e308 apart overflow their distance to inf: its term is
        at its limit 0, with the gradient 0, where inf/inf gave NaN entries.
        The batch's other row keeps its bits: half its value and gradient
        alone, as the batch mean halves them exactly. The only warnings are
        numpy's overflow warnings, not an invalid value."""
        cfg = MccdConfig(distance_space="raw_logit")
        zero = np.zeros(3)
        far = LogitBundle(audio=[1e308, 0.0, 0.0], video=zero, question=zero,
                          fused=[-1e308, 0.0, 0.0])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            alone = discrepancy_loss([far], cfg)
            both = discrepancy_loss([ORACLE, far], cfg)
        assert alone.value == 0.0
        assert np.array_equal(alone.grad, np.zeros((4, 1, 3)))
        oracle = discrepancy_loss([ORACLE], cfg)
        assert both.value == 0.5 * oracle.value
        assert np.array_equal(both.grad[:, :1], 0.5 * oracle.grad)
        assert np.array_equal(both.grad[:, 1:], np.zeros((4, 1, 3)))
        assert caught and all("overflow" in str(w.message) for w in caught)

    def test_alpha_zero_short_circuits(self):
        lv = discrepancy_loss([ORACLE], MccdConfig(alpha=0.0))
        assert lv.value == 0.0
        assert all(np.all(g == 0.0) for g in lv.grads.values())

    def test_head_subset_and_share(self):
        cfg = MccdConfig()
        full = discrepancy_loss([ORACLE], cfg)
        partial = discrepancy_loss([ORACLE], MccdConfig(heads=("audio", "video")))
        # dropping the question term and rescaling 1/3 -> 1/2
        p = {h: softmax(getattr(ORACLE, h)) for h in HEADS}
        expected = (
            cfg.alpha / 2
            * sum(
                1.0 / (np.linalg.norm(p[h] - p["fused"]) + cfg.epsilon)
                for h in ("audio", "video")
            )
        )
        assert partial.value == pytest.approx(expected, abs=1e-12)
        assert partial.value != pytest.approx(full.value)
        assert np.all(partial.grads["question"] == 0.0)

    def test_unknown_head_rejected(self):
        with pytest.raises(LossError, match="unknown uni-modal head"):
            MccdConfig(heads=("audio", "fused"))

    def test_repeated_head_rejected(self):
        # the stacked kernel adds each head's gradient once
        with pytest.raises(LossError, match="repeated uni-modal head"):
            MccdConfig(heads=("audio", "audio"))

    def test_batch_mean_semantics(self):
        rng = np.random.default_rng(3)
        batch = random_batch(rng, 5, 4)
        whole = discrepancy_loss(batch).value
        singles = [discrepancy_loss([b]).value for b in batch]
        assert whole == pytest.approx(np.mean(singles), rel=1e-12)


class TestCycleLoss:
    def test_oracle(self):
        lv = cycle_loss([ORACLE])
        assert lv.value == pytest.approx(0.19640280886962697, abs=1e-12)

    def test_nonnegative_and_zero_on_agreement(self):
        rng = np.random.default_rng(0)
        for b in random_batch(rng, 50, 6):
            assert cycle_loss([b]).value >= 0.0
        v = rng.standard_normal(6)
        equal = LogitBundle(audio=v, video=v, question=v, fused=rng.standard_normal(6))
        assert cycle_loss([equal]).value < 1e-10

    def test_fused_untouched(self):
        lv = cycle_loss([ORACLE])
        assert np.all(lv.grads["fused"] == 0.0)

    def test_beta_zero_short_circuits(self):
        lv = cycle_loss([ORACLE], MccdConfig(beta=0.0))
        assert lv.value == 0.0


class TestAnswerLoss:
    def test_oracle(self):
        lv = answer_loss([ORACLE.fused], [2])
        assert lv.value == pytest.approx(2.3893190426433737, abs=1e-12)

    def test_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal((7, 5))
        lv = answer_loss(y, list(rng.integers(5, size=7)))
        assert np.allclose(lv.grads["fused"].sum(axis=1), 0.0, atol=1e-14)
        for name in UNIMODAL:
            assert np.all(lv.grads[name] == 0.0)

    def test_label_validation(self):
        with pytest.raises(LossError, match="labels"):
            answer_loss([ORACLE.fused], [0, 1])
        with pytest.raises(LossError, match="lie in"):
            answer_loss([ORACLE.fused], [3])
        with pytest.raises(LossError, match="lie in"):
            answer_loss([ORACLE.fused], [-1])


class TestJointLoss:
    def test_is_sum_of_components(self):
        cfg = MccdConfig()
        joint = joint_loss([ORACLE], [2], cfg)
        parts = (
            answer_loss([ORACLE.fused], [2]).value
            + discrepancy_loss([ORACLE], cfg).value
            + cycle_loss([ORACLE], cfg).value
        )
        assert joint.value == pytest.approx(parts, abs=1e-12)
        assert joint.value == pytest.approx(2.610340547437774, abs=1e-12)

    def test_stacked_path_matches_list_path(self):
        # joint_loss over a list of bundles is the summed components of
        # joint_components_stacked over the stacked heads, value and grads;
        # its one gradient buffer holds exactly the sum of the terms
        # computed apart, discrepancy first, then cycle, then answer
        rng = np.random.default_rng(5)
        batch = random_batch(rng, 6, 4)
        labels = list(rng.integers(4, size=6))
        y = np.stack([[getattr(b, name) for b in batch] for name in HEADS])
        sm = softmaxed(y)
        for cfg in (MccdConfig(), MccdConfig(distance_space="raw_logit", heads=("audio", "video"))):
            joint = joint_loss(batch, labels, cfg)
            la, ld, lc, grad = joint_components_stacked(sm, labels, cfg)
            assert joint.value == la.value + ld.value + lc.value
            assert la.value == answer_loss(y[3], labels).value
            assert np.array_equal(joint.grad, grad)
            summed = (discrepancy_loss_stacked(sm, cfg).grad + cycle_loss_stacked(sm, cfg).grad
                      + answer_loss(y[3], labels).grad)
            assert np.array_equal(grad, summed)
            assert la.grad is ld.grad is lc.grad is grad


class TestShiftInvariance:
    """Softmax-based losses ignore a constant shift of any head's logits."""

    def shifted(self, b, delta):
        return LogitBundle(*(getattr(b, n) + delta for n in HEADS))

    def test_all_losses_probability_mode(self):
        rng = np.random.default_rng(9)
        cfg = MccdConfig()
        for b in random_batch(rng, 10, 5):
            s = self.shifted(b, 17.3)
            assert discrepancy_loss([s], cfg).value == pytest.approx(
                discrepancy_loss([b], cfg).value, abs=1e-10
            )
            assert cycle_loss([s], cfg).value == pytest.approx(
                cycle_loss([b], cfg).value, abs=1e-10
            )
            assert answer_loss([s.fused], [1]).value == pytest.approx(
                answer_loss([b.fused], [1]).value, abs=1e-10
            )
            assert joint_loss([s], [1], cfg).value == pytest.approx(
                joint_loss([b], [1], cfg).value, abs=1e-10
            )


class TestFiniteDifference:
    @pytest.mark.parametrize("mode", ["probability", "raw_logit"])
    def test_each_loss_checks_out(self, mode):
        rng = np.random.default_rng(11)
        batch = random_batch(rng, 3, 5)
        labels = list(rng.integers(5, size=3))
        cfg = MccdConfig(distance_space=mode)
        fns = [
            lambda b: answer_loss([x.fused for x in b], labels),
            lambda b: discrepancy_loss(b, cfg),
            lambda b: cycle_loss(b, cfg),
            lambda b: joint_loss(b, labels, cfg),
        ]
        for fn in fns:
            assert finite_difference_check(fn, batch) < 1e-5

    def test_near_epsilon_wall_with_small_step(self):
        # logits close together put d near zero where 1/(d+eps) is stiff;
        # a smaller step keeps the central difference honest
        rng = np.random.default_rng(13)
        base = rng.standard_normal(4)
        batch = [
            LogitBundle(*(base + 1e-3 * rng.standard_normal(4) for _ in range(4)))
        ]
        err = finite_difference_check(lambda b: discrepancy_loss(b), batch, h=1e-7)
        assert err < 1e-3

    def test_bad_step_rejected(self):
        with pytest.raises(LossError):
            finite_difference_check(lambda b: cycle_loss(b), [ORACLE], h=0.0)

    @pytest.mark.parametrize("h", [-1e-5, float("nan"), float("inf")])
    def test_non_finite_or_negative_step_rejected(self, h):
        # a NaN or infinite step compared nothing and reported an error of 0.0
        with pytest.raises(LossError, match="step size must be finite and positive"):
            finite_difference_check(lambda b: cycle_loss(b), [ORACLE], h=h)

    def test_nan_error_fails_the_check(self):
        # one coordinate whose finite difference is NaN: max(0.0, nan) is
        # 0.0, so a running max() would report a clean pass
        calls = []

        def fn(batch):
            lv = cycle_loss(batch)
            calls.append(None)
            return LossValue(float("nan"), lv.grad) if len(calls) == 2 else lv

        err = finite_difference_check(fn, [ORACLE])
        assert np.isnan(err) and not err < 1e-5


class TestGradientStructure:
    def test_softmax_vjp_rows_sum_to_zero(self):
        # any loss reaching logits through a softmax has zero-sum gradients
        rng = np.random.default_rng(21)
        batch = random_batch(rng, 4, 6)
        for lv in (discrepancy_loss(batch), cycle_loss(batch)):
            for name in HEADS:
                assert np.allclose(lv.grads[name].sum(axis=1), 0.0, atol=1e-12)

    def test_stacked_variants_expose_grads_per_head(self):
        rng = np.random.default_rng(22)
        y = softmaxed(rng.standard_normal((4, 3, 4)))  # HEADS order
        for lv in (discrepancy_loss_stacked(y), cycle_loss_stacked(y)):
            assert set(lv.grads) == set(HEADS)
            assert all(g.shape == (3, 4) for g in lv.grads.values())


class TestMccdConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MccdConfig(alpha=-1.0)
        with pytest.raises(ValueError):
            MccdConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            MccdConfig(distance_space="cosine")

    @pytest.mark.parametrize("field", ["alpha", "beta", "epsilon"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_weights_must_be_finite(self, field, value):
        with pytest.raises(ValueError, match="must be finite"):
            MccdConfig(**{field: value})
