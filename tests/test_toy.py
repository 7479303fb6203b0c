import os
import statistics
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import numpy as np
import pytest

from avqa_debias import losses, toy
from avqa_debias.losses import HEADS, MccdConfig, softmaxed
from avqa_debias.splitting import SplitLabel, answer_distribution
from avqa_debias.toy import (
    AblationSpec,
    AblationVariant,
    SyntheticConfig,
    ToyError,
    ToyModel,
    TrainConfig,
    _backward,
    _forward_cache,
    ablation_run,
    class_index,
    class_name,
    evaluate,
    generate_synthetic,
    predict_logits,
    run_variant,
    train,
)
from conftest import exit_in_worker

SMALL = SyntheticConfig(train_n=300, test_n=200)
QUICK = TrainConfig(epochs=3)


def small_data(**kw):
    return generate_synthetic(replace(SMALL, **kw))


MARK_DIR = None  # set by the test that plants marks


def fail_first_then_mark(task):
    """The first task (seed 0, full) fails; every other one waits, then leaves a mark."""
    _, _, spec, seed = task
    if seed == 0 and spec.variant is AblationVariant.FULL:
        raise ToyError("planted failure")
    time.sleep(0.2)
    (MARK_DIR / f"{seed}-{spec.variant.value}").touch()
    return {}


def head_logits(model, batch):
    """All four logit heads of the training forward pass, keyed by head name."""
    return dict(zip(HEADS, _forward_cache(model, batch.features())["heads"].logits))


class TestClassNames:
    def test_round_trip(self):
        assert class_name(4) == "c04"
        assert class_index("c04") == 4

    def test_bad_name(self):
        with pytest.raises(ToyError):
            class_index("dog")


class TestSyntheticConfig:
    def test_validation(self):
        with pytest.raises(ToyError):
            SyntheticConfig(num_classes=1)
        with pytest.raises(ToyError):
            SyntheticConfig(bias_strength=1.5)
        with pytest.raises(ToyError):
            SyntheticConfig(tail_fraction=0.0)
        with pytest.raises(ToyError):
            generate_synthetic(SyntheticConfig(feature_dim=4, num_classes=6))

    @pytest.mark.parametrize("scale", [-0.5, float("nan"), float("inf"), float("-inf")])
    def test_noise_scale_must_be_finite_and_nonnegative(self, scale):
        with pytest.raises(ToyError, match="noise_scale must be finite and nonnegative"):
            SyntheticConfig(noise_scale=scale)
        assert SyntheticConfig(noise_scale=0.0).noise_scale == 0.0


class TestGenerateSynthetic:
    def test_deterministic(self):
        a, b = small_data(), small_data()
        assert [s.id for s in a.train.qa] == [s.id for s in b.train.qa]
        for x, y in ((a.train, b.train), (a.test, b.test)):
            assert np.array_equal(x.labels, y.labels)
            assert np.array_equal(x.audio, y.audio)
            assert np.array_equal(x.question, y.question)

    def test_sizes_and_split_fractions(self):
        data = small_data()
        assert len(data.train) == 300 and len(data.test) == 200
        tails = sum(1 for a in data.splits if a.label is SplitLabel.TAIL)
        assert tails == round(0.3 * 200)

    def test_shortcut_channel_semantics(self):
        # bias_strength 1: the shortcut channel always names the label;
        # bias_strength 0: it never does
        clean = small_data(bias_strength=1.0).train
        assert np.array_equal(np.argmax(clean.question, axis=1), clean.labels)
        flipped = small_data(bias_strength=0.0).train
        assert np.all(np.argmax(flipped.question, axis=1) != flipped.labels)

    def test_test_regime_matches_split_labels(self):
        data = small_data()
        row = {s.id: i for i, s in enumerate(data.test.qa)}
        for a in data.splits:
            i = row[a.sample_id]
            agrees = int(np.argmax(data.test.question[i])) == data.test.labels[i]
            assert agrees == (a.label is SplitLabel.HEAD)

    def test_training_answers_are_splitter_compatible(self):
        # the planted skew keeps normalized entropy under the 0.9 cutoff
        data = generate_synthetic(SyntheticConfig())
        dist = answer_distribution(data.train.qa)
        assert dist.normalized_entropy < 0.9

    def test_label_needs_both_modalities(self):
        # audio index is label // 2 and video index label % 2, so two
        # labels share each audio prototype and three share each video one
        data = small_data(noise_scale=0.0)
        by_audio = {}
        for audio, label in zip(data.train.audio, data.train.labels):
            by_audio.setdefault(tuple(audio), set()).add(int(label))
        assert any(len(v) > 1 for v in by_audio.values())


class TestToySet:
    def test_rows_must_align(self):
        data = small_data().train
        with pytest.raises(ToyError, match="labels"):
            replace(data, labels=data.labels[:-1])
        with pytest.raises(ToyError, match="video"):
            replace(data, video=data.video[:-1])

    def test_row_selection(self):
        data = small_data().train
        idx = np.array([5, 0, 7])
        part = data[idx]
        assert [s.id for s in part.qa] == [data.qa[i].id for i in idx]
        assert np.array_equal(part.labels, data.labels[idx])
        assert np.array_equal(part.question, data.question[idx])
        assert len(data[2:4]) == 2


class TestFlatParameters:
    def test_params_are_views_of_one_buffer_in_dict_order(self):
        model = ToyModel.initialize(6, 16, seed=0)
        assert model.flat.size == sum(arr.size for arr in model.params.values())
        pos = 0
        for arr in model.params.values():
            assert np.shares_memory(arr, model.flat)
            assert np.array_equal(arr.ravel(), model.flat[pos : pos + arr.size])
            pos += arr.size

    def test_training_writes_through_the_views(self):
        data = small_data()
        model = ToyModel.initialize(6, 16, seed=0)
        views = dict(model.params)
        before = model.flat.copy()
        train(model, data.train, QUICK)
        assert all(model.params[k] is v for k, v in views.items())
        assert not np.array_equal(before, model.flat)


class TestForward:
    def test_heads_shapes(self):
        data = small_data()
        model = ToyModel.initialize(6, 16, seed=0)
        logits = head_logits(model, data.train[:10])
        assert set(logits) == {"audio", "video", "question", "fused"}
        assert all(v.shape == (10, 6) for v in logits.values())

    def test_batching_invariance(self):
        data = small_data()
        model = ToyModel.initialize(6, 16, seed=0)
        whole = head_logits(model, data.train[:8])
        for i in range(8):
            single = head_logits(model, data.train[i : i + 1])
            for name in whole:
                assert np.allclose(whole[name][i], single[name][0], atol=1e-12)

    def test_feature_dim_checked(self):
        # data meets the model in train and predict_logits; both check
        data = small_data()
        model = ToyModel.initialize(6, 8, seed=0)
        with pytest.raises(ToyError, match="audio feature dim 16 does not match model dim 8"):
            train(model, data.train, QUICK)
        with pytest.raises(ToyError, match="audio feature dim 16 does not match model dim 8"):
            predict_logits(model, data.test)

    def test_predict_uses_only_fusion_path(self):
        data = small_data()
        model = ToyModel.initialize(6, 16, seed=0)
        before = predict_logits(model, data.test[:20])
        # clobber every bias-learner parameter; inference must not move
        for name, arr in model.params.items():
            if name.startswith("bias_"):
                arr += 100.0
        after = predict_logits(model, data.test[:20])
        assert np.array_equal(before, after)
        assert np.array_equal(before, head_logits(model, data.test[:20])["fused"])


class TestTrain:
    def test_deterministic(self):
        data = small_data()
        models, histories = [], []
        for _ in range(2):
            models.append(ToyModel.initialize(6, 16, seed=1))
            histories.append(train(models[-1], data.train, replace(QUICK, seed=1)))
        for k in models[0].params:
            assert np.array_equal(models[0].params[k], models[1].params[k])
        assert histories[0] == histories[1]

    def test_one_stacked_softmax_per_step(self, monkeypatch):
        # each step softmaxes its four heads once, as one (4, K, C) array,
        # and every loss term reads that record
        shapes = []

        def counting(v):
            shapes.append(np.shape(v))
            return softmaxed(v)

        monkeypatch.setattr(toy, "softmaxed", counting)
        monkeypatch.setattr(losses, "softmaxed", counting)
        train(ToyModel.initialize(6, 16, seed=0), small_data().train, replace(QUICK, epochs=1))
        assert shapes == [(4, 64, 6)] * 4 + [(4, 300 - 4 * 64, 6)]

    @pytest.mark.parametrize("lr", [0.0, -1e-3, float("nan"), float("inf")])
    def test_learning_rate_must_be_finite_and_positive(self, lr):
        with pytest.raises(ToyError, match="learning_rate must be finite and positive"):
            TrainConfig(learning_rate=lr)

    def test_history_schema_and_lr_decay(self):
        data = small_data()
        model = ToyModel.initialize(6, 16, seed=0)
        tcfg = TrainConfig(epochs=41, learning_rate=1e-3)
        hist = train(model, data.train, tcfg)
        assert [h["epoch"] for h in hist] == list(range(1, 42))
        assert set(hist[0]) == {"epoch", "L_a", "L_d", "L_c", "train_acc", "lr"}
        # halved after every 20 epochs
        assert [hist[e - 1]["lr"] for e in (1, 20, 21, 40, 41)] == [1e-3, 1e-3, 5e-4, 5e-4, 2.5e-4]

    def test_empty_corpus(self):
        model = ToyModel.initialize(6, 16, seed=0)
        with pytest.raises(ToyError, match="empty"):
            train(model, small_data().train[:0], QUICK)

    def test_loss_decreases(self):
        data = small_data()
        model = ToyModel.initialize(6, 16, seed=0)
        hist = train(model, data.train, TrainConfig(epochs=10))
        assert hist[-1]["L_a"] < hist[0]["L_a"]
        assert hist[-1]["train_acc"] > hist[0]["train_acc"]


class TestBiasLearners:
    def test_bias_gradients_stop_at_the_encoder_output(self):
        # gradients that reach only the uni-modal heads must train the
        # bias learners and leave every inference-path parameter alone
        data = small_data()
        model = ToyModel.initialize(6, 16, seed=0)
        cache = _forward_cache(model, data.train[:16].features())
        rng = np.random.default_rng(0)
        dlogits = np.zeros((4, 16, 6))  # HEADS order: the fused head is last
        dlogits[:3] = rng.standard_normal((3, 16, 6))
        buf = np.full_like(model.flat, np.nan)
        grads = model.views(buf)
        _backward(model, cache, dlogits, grads)
        assert not np.isnan(buf).any()  # every gradient entry is written
        for name in grads:
            if name.startswith("bias_"):
                assert np.any(grads[name]), name
            else:  # encoders and fusion head: the inference path
                assert not np.any(grads[name]), name

    def test_question_head_learns_the_shortcut(self):
        # with its own answer loss the question-only learner picks up the
        # planted channel, which is the bias the discrepancy term needs
        data = small_data()
        model = ToyModel.initialize(6, 16, seed=0)
        train(model, data.train, TrainConfig(epochs=10), AblationSpec(variant=AblationVariant.FULL))
        guesses = np.argmax(head_logits(model, data.train)["question"], axis=1)
        shortcut = np.argmax(data.train.question, axis=1)
        assert np.mean(guesses == shortcut) > 0.5


    def test_non_finite_bias_learner_loss_is_caught(self):
        # the baseline variant feeds no bias head into L_a + L_d + L_c, so
        # only the bias learners' own losses can show this divergence
        data = small_data()
        model = ToyModel.initialize(6, 16, seed=0)
        model.params["bias_question_2_W"][0, 0] = np.nan
        with pytest.raises(ToyError, match="non-finite question bias-learner loss at epoch 1"):
            train(model, data.train, QUICK, AblationSpec(variant=AblationVariant.BASELINE_CE_ONLY))


class TestAblationContract:
    def variant_history(self, variant, data):
        model = ToyModel.initialize(6, 16, seed=0)
        return train(model, data.train, QUICK, AblationSpec(variant=variant))

    def test_dropped_terms_are_identically_zero(self):
        data = small_data()
        assert all(h["L_d"] == 0.0 for h in self.variant_history(AblationVariant.WITHOUT_MD, data))
        assert all(h["L_c"] == 0.0 for h in self.variant_history(AblationVariant.WITHOUT_CG, data))
        baseline = self.variant_history(AblationVariant.BASELINE_CE_ONLY, data)
        assert all(h["L_d"] == 0.0 and h["L_c"] == 0.0 for h in baseline)

    def test_baseline_equals_full_with_zero_weights(self):
        data = small_data()
        zeroed = replace(QUICK, mccd=MccdConfig(alpha=0.0, beta=0.0))
        m1 = ToyModel.initialize(6, 16, seed=0)
        train(m1, data.train, zeroed, AblationSpec(variant=AblationVariant.FULL))
        m2 = ToyModel.initialize(6, 16, seed=0)
        train(m2, data.train, QUICK, AblationSpec(variant=AblationVariant.BASELINE_CE_ONLY))
        for k in m1.params:
            assert np.array_equal(m1.params[k], m2.params[k])

    def test_single_term_drops_rescale_the_share(self):
        cfg = AblationSpec(variant=AblationVariant.WITHOUT_DQ).effective(MccdConfig())
        assert cfg.heads == ("audio", "video")  # so the 1/3 factor becomes 1/2
        assert cfg.alpha == MccdConfig().alpha

    def test_every_variant_resolves(self):
        for v in AblationVariant:
            heads = AblationSpec(variant=v).effective(MccdConfig()).heads
            assert len(heads) in (2, 3)
            assert all(h in ("audio", "video", "question") for h in heads)


class TestEvaluate:
    def test_report_covers_all_test_samples(self):
        data = small_data()
        model = ToyModel.initialize(6, 16, seed=0)
        train(model, data.train, QUICK)
        report = evaluate(model, data.test, data.splits)
        agg = report.aggregate
        assert agg.head_n + agg.tail_n == len(data.test)
        assert report.unmatched_ids == []

    def test_trained_model_beats_chance(self):
        data = small_data()
        model = ToyModel.initialize(6, 16, seed=0)
        train(model, data.train, TrainConfig(epochs=15))
        report = evaluate(model, data.test, data.splits)
        assert float(report.aggregate.overall_acc) > 1.0 / 6.0


class TestRunVariant:
    def test_row_schema(self):
        row = run_variant(SMALL, QUICK, AblationSpec(), seed=3)
        assert row["variant"] == "full" and row["seed"] == 3
        assert 0.0 <= row["tail_acc"] <= 1.0
        assert row["final_epoch"]["epoch"] == QUICK.epochs

    def test_ablation_run_medians(self):
        rows = ablation_run(SMALL, [(QUICK, AblationSpec())], seeds=[0, 1, 2])
        (row,) = rows
        assert row["median_tail_acc"] == statistics.median(
            r["tail_acc"] for r in row["runs"]
        )
        assert [r["seed"] for r in row["runs"]] == [0, 1, 2]

    def test_ablation_generates_each_corpus_once(self, monkeypatch):
        calls = []

        def counting(cfg):
            calls.append(cfg.seed)
            return generate_synthetic(cfg)

        variants = [AblationSpec(variant=v) for v in
                    (AblationVariant.FULL, AblationVariant.BASELINE_CE_ONLY)]
        monkeypatch.setattr(toy, "generate_synthetic", counting)
        rows = ablation_run(SMALL, [(QUICK, spec) for spec in variants], seeds=[0, 1])
        assert calls == [0, 1]
        monkeypatch.undo()
        # rows stay variant-major, and a shared corpus changes no run
        assert [r["variant"] for r in rows] == ["full", "baseline"]
        for spec, row in zip(variants, rows):
            assert row["runs"] == [run_variant(SMALL, QUICK, spec, seed) for seed in (0, 1)]

    def test_worker_pool_returns_the_in_process_rows(self):
        # 2 seeds x 3 arms: more tasks than workers, and each worker moves
        # from one seed's corpus to the next
        arms = [(QUICK, AblationSpec(v)) for v in (AblationVariant.FULL,
                AblationVariant.WITHOUT_CG, AblationVariant.BASELINE_CE_ONLY)]
        in_process = ablation_run(SMALL, arms, seeds=[0, 1])
        assert ablation_run(SMALL, arms, seeds=[0, 1], workers=2) == in_process
        assert [r["variant"] for r in in_process] == ["full", "without_cg", "baseline"]

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_must_be_positive(self, workers):
        with pytest.raises(ToyError, match="workers must be at least 1"):
            ablation_run(SMALL, [(QUICK, AblationSpec())], seeds=[0], workers=workers)

    def test_dead_worker_breaks_the_pool(self, monkeypatch):
        monkeypatch.setattr(toy, "_run_task", exit_in_worker)
        with pytest.raises(BrokenProcessPool):
            ablation_run(SMALL, [(QUICK, AblationSpec())], seeds=[0, 1], workers=2)

    def test_first_failure_cancels_the_pending_tasks(self, monkeypatch, tmp_path):
        monkeypatch.setattr(toy, "_run_task", fail_first_then_mark)
        monkeypatch.setattr(sys.modules[__name__], "MARK_DIR", tmp_path)
        arms = [(QUICK, AblationSpec(v)) for v in list(AblationVariant)[:4]]
        with pytest.raises(ToyError, match="planted failure"):
            ablation_run(SMALL, arms, seeds=[0, 1, 2], workers=2)
        # only tasks already started or queued to a worker leave a mark; a
        # pool that ran every pending task before raising would leave 11
        assert len(list(tmp_path.iterdir())) < 11

    def test_seed_changes_the_data_and_model(self):
        a = run_variant(SMALL, QUICK, AblationSpec(), seed=0)
        b = run_variant(SMALL, QUICK, AblationSpec(), seed=1)
        assert a != b
