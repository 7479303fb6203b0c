import math
import os
import statistics
import sys
import time
import warnings
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from avqa_debias import losses, toy
from avqa_debias.losses import HEADS, LossError, MccdConfig, Softmaxed, softmaxed
from avqa_debias.data import GroupKey, QuestionType, Task
from avqa_debias.serialize import read_model
from avqa_debias.splitting import SplitDecision, SplitLabel, SplitRule, assign_splits
from avqa_debias.toy import (
    AblationSpec,
    AblationVariant,
    SyntheticConfig,
    ToyError,
    ToyModel,
    SyntheticData,
    ToySet,
    TrainConfig,
    Adam,
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


# The training step written out term by term, one numpy call per formula:
# the reference that the fused step of ``train`` must match bit for bit.
def ref_softmaxed(v):
    shifted = v - v.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=-1, keepdims=True)
    return Softmaxed(v, e / total, shifted - np.log(total))


def ref_softmax_vjp(p, g):
    return p * (g - (p * g).sum(axis=-1, keepdims=True))


def ref_ordered_sum(rows):
    total = 0.0
    for v in np.ascontiguousarray(rows).reshape(len(rows), -1).sum(axis=1).tolist():
        total += v
    return total


def ref_discrepancy(sm, cfg, grad):
    if cfg.alpha == 0.0 or not cfg.heads:
        return 0.0
    scale = cfg.alpha / (len(cfg.heads) * sm.p.shape[1])
    prob_mode = cfg.distance_space == "probability"
    z = sm.p if prob_mode else sm.logits
    rows = [HEADS.index(h) for h in cfg.heads]
    diff = z[rows] - z[-1]
    d = np.linalg.norm(diff, axis=-1)
    total = ref_ordered_sum(1.0 / (d + cfg.epsilon))
    coef = -1.0 / (d + cfg.epsilon) ** 2
    d = d[..., None]
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = np.where(d > 0.0, diff / np.where(d > 0.0, d, 1.0), 0.0)
    g = scale * coef[..., None] * unit
    g = np.concatenate([g, -g.sum(axis=0, keepdims=True)])
    rows.append(len(HEADS) - 1)
    grad[rows] += ref_softmax_vjp(z[rows], g) if prob_mode else g
    return scale * total


def ref_cycle(sm, cfg, grad):
    if cfg.beta == 0.0:
        return 0.0
    scale = cfg.beta / (3.0 * sm.p.shape[1])
    src = [2, 0, 1]
    p, logp = sm.p[:3], sm.logp[:3]
    s = logp[src] - logp
    total = ref_ordered_sum(p[src] * s)
    through_src = scale * ref_softmax_vjp(p[src], s)
    grad[:3] += scale * (p - p[src]) + through_src[[1, 2, 0]]
    return scale * total


def ref_answer(sm, labels, grad):
    k = sm.p.shape[1]
    rows = np.arange(k)
    value = -np.ascontiguousarray(sm.logp[:, rows, labels]).sum(axis=1) / k
    g = sm.p.copy()
    g[:, rows, labels] -= 1.0
    g /= k
    grad += g
    return value


def ref_step_terms(logits, labels, cfg):
    """(L_a, L_d, L_c, the bias-learner losses, the heads' gradient) of one
    step: discrepancy, cycle, the fused cross-entropy, then the uni-modal
    ones, each added into one buffer."""
    sm = ref_softmaxed(logits)
    grad = np.zeros(sm.p.shape)
    ld = ref_discrepancy(sm, cfg, grad)
    lc = ref_cycle(sm, cfg, grad)
    la = float(ref_answer(sm[-1:], labels, grad[-1:])[0])
    bias = ref_answer(sm[:3], labels, grad[:3])
    return la, ld, lc, bias, grad


def ref_train(model, corpus, tcfg, spec=AblationSpec()):
    """``train`` through ``ref_step_terms``; the forward and backward
    passes and Adam are ``train``'s own."""
    cfg = spec.effective(tcfg.mccd)
    rng = np.random.default_rng(tcfg.seed)
    opt = Adam(model.flat, lr=tcfg.learning_rate)
    grad_flat = np.empty_like(model.flat)
    grads = model.views(grad_flat)
    history = []
    n = len(corpus)
    for epoch in range(1, tcfg.epochs + 1):
        opt.lr = tcfg.learning_rate * tcfg.LR_DECAY_FACTOR ** ((epoch - 1) // tcfg.LR_DECAY_EVERY)
        order = rng.permutation(n)
        sums = [0.0, 0.0, 0.0]
        correct = batches = 0
        for start in range(0, n, tcfg.batch_size):
            idx = order[start : start + tcfg.batch_size]
            labels = corpus.labels[idx]
            cache = _forward_cache(model, np.take(corpus.x, idx, axis=1))
            logits = cache["heads"].logits
            la, ld, lc, _, dlogits = ref_step_terms(logits, labels, cfg)
            correct += int(np.sum(np.argmax(logits[-1], axis=1) == labels))
            sums = [a + b for a, b in zip(sums, (la, ld, lc))]
            batches += 1
            _backward(model, cache, dlogits, grads)
            opt.step(grad_flat)
        history.append({"epoch": epoch, "L_a": sums[0] / batches, "L_d": sums[1] / batches,
                        "L_c": sums[2] / batches, "train_acc": correct / n, "lr": opt.lr})
    return history


@np.errstate(over="ignore", invalid="ignore")
def ref_generate_synthetic(cfg: SyntheticConfig = SyntheticConfig()) -> SyntheticData:
    """``generate_synthetic`` as it was when it did all of a row's arithmetic
    in its row loop; any change to its draws, their order or its float
    operations gives other bits."""
    rng = np.random.default_rng(cfg.seed)
    c, d = cfg.num_classes, cfg.feature_dim
    if d < c:
        raise ToyError("feature_dim must be at least num_classes for the shortcut channel")
    n_video = 2
    n_audio = math.ceil(c / n_video)
    audio_protos = rng.choice([-1.0, 1.0], size=(n_audio, d))
    video_protos = rng.choice([-1.0, 1.0], size=(n_video, d))
    probs = toy._label_probs(c)

    group = GroupKey(Task.AVQA, QuestionType.EXISTENTIAL)

    def draw(n: int, prefix: str, regime: np.ndarray | None) -> ToySet:
        labels = rng.choice(c, size=n, p=probs)
        x = np.empty((3, n, d))
        audio, video, question = x
        gold = {}
        for i, label in enumerate(labels):
            label = int(label)
            audio[i] = audio_protos[label // n_video] + cfg.noise_scale * rng.standard_normal(d)
            video[i] = video_protos[label % n_video] + cfg.noise_scale * rng.standard_normal(d)
            if regime is None:
                shortcut_ok = rng.random() < cfg.bias_strength
            else:
                shortcut_ok = bool(regime[i])
            if shortcut_ok:
                shortcut = label
            else:
                shortcut = int(rng.integers(c - 1))
                if shortcut >= label:
                    shortcut += 1
            question[i] = 0.1 * rng.standard_normal(d)
            question[i, shortcut] += 2.0
            gold[f"{prefix}-{i:05d}"] = group, class_name(label)
        if not np.isfinite(x).all():
            raise ToyError(f"noise_scale {cfg.noise_scale} makes non-finite {prefix} features")
        return ToySet(gold=gold, labels=labels.astype(np.int64), x=x)

    train = draw(cfg.train_n, "train", regime=None)
    head_mask = np.ones(cfg.test_n, dtype=bool)
    n_tail = int(round(cfg.tail_fraction * cfg.test_n))
    head_mask[:n_tail] = False
    rng.shuffle(head_mask)
    test = draw(cfg.test_n, "test", regime=head_mask)

    decisions = {
        (answer, head): SplitDecision(group, answer, SplitLabel.HEAD if head else SplitLabel.TAIL,
                                      SplitRule.GENERAL_THRESHOLD)
        for answer in map(class_name, range(c)) for head in (True, False)
    }
    splits = {sid: decisions[answer, head]
              for (sid, (_, answer)), head in zip(test.gold.items(), head_mask.tolist())}
    return SyntheticData(train=train, test=test, splits=splits)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def head_logits(model, x):
    """All four logit heads of the training forward pass over the (3, K, d)
    features ``x``, keyed by head name."""
    return dict(zip(HEADS, _forward_cache(model, x)["heads"].logits))


class TestClassNames:
    def test_round_trip(self):
        assert class_name(4) == "c04"
        assert class_index("c04") == 4

    def test_bad_name(self):
        with pytest.raises(ToyError):
            class_index("dog")

    def test_only_class_name_spellings(self):
        # class_name(k) is the one spelling of class k; any other would
        # never equal a prediction
        for name in ["c2", "c002", "c+2", "c-1", "c", "c 2", "c\u0662\u0662", "C02"]:
            with pytest.raises(ToyError, match="not a synthetic answer class"):
                class_index(name)
        assert class_index("c100") == 100 and class_name(100) == "c100"


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


_SYNTH_CONFIGS = st.integers(2, 10).flatmap(lambda c: st.builds(
    SyntheticConfig,
    num_classes=st.just(c),
    feature_dim=st.integers(c, 20),
    train_n=st.integers(1, 300),
    test_n=st.integers(1, 300),
    bias_strength=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
    tail_fraction=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    noise_scale=st.sampled_from([0.0, 3.0, 1e308]),
    seed=st.integers(0, 2**32 - 1),
))


# Tail fractions as near 0 and 1 as a corpus of under 5 * 10**8 test rows
# can tell: no test row is a tail, or every one is.
_NO_TAIL, _ALL_TAIL = 1e-9, 1 - 1e-9


class TestGenerateSynthetic:
    def test_deterministic(self):
        a, b = small_data(), small_data()
        assert a.train.gold == b.train.gold and a.test.gold == b.test.gold
        for p, q in ((a.train, b.train), (a.test, b.test)):
            assert np.array_equal(p.labels, q.labels)
            assert np.array_equal(p.x, q.x)

    def test_sizes_and_split_fractions(self):
        data = small_data()
        assert len(data.train) == 300 and len(data.test) == 200
        assert list(data.splits) == list(data.test.gold)
        tails = sum(1 for d in data.splits.values() if d.label is SplitLabel.TAIL)
        assert tails == round(0.3 * 200)

    def test_shortcut_channel_semantics(self):
        # bias_strength 1: the shortcut channel always names the label;
        # bias_strength 0: it never does
        clean = small_data(bias_strength=1.0).train
        assert np.array_equal(np.argmax(clean.x[2], axis=1), clean.labels)
        flipped = small_data(bias_strength=0.0).train
        assert np.all(np.argmax(flipped.x[2], axis=1) != flipped.labels)

    def test_test_regime_matches_split_labels(self):
        data = small_data()
        row = {sid: i for i, sid in enumerate(data.test.gold)}
        for sid, d in data.splits.items():
            i = row[sid]
            agrees = int(np.argmax(data.test.x[2, i])) == data.test.labels[i]
            assert agrees == (d.label is SplitLabel.HEAD)
            assert d[:2] == data.test.gold[sid]

    def test_training_answers_are_splitter_compatible(self):
        # the planted skew keeps normalized entropy under the 0.9 cutoff
        data = generate_synthetic(SyntheticConfig())
        [report] = assign_splits(data.train.gold).group_reports
        assert report.retained and report.distribution.normalized_entropy < 0.9

    @settings(max_examples=300, deadline=None)
    @given(cfg=_SYNTH_CONFIGS)
    @example(cfg=SyntheticConfig(train_n=300, test_n=300, bias_strength=0.5, tail_fraction=0.5))
    # One row, and one row either side of a scratch block, in each part;
    # no shortcut and a shortcut on every training row; every test row a
    # head (no tail row rounds up) and every one a tail.
    @example(cfg=SyntheticConfig(train_n=1, test_n=1, bias_strength=0.0, tail_fraction=_NO_TAIL))
    @example(cfg=SyntheticConfig(train_n=1, test_n=1, bias_strength=1.0, tail_fraction=_ALL_TAIL))
    @example(cfg=SyntheticConfig(train_n=toy._PROTO_ROWS - 1, test_n=toy._PROTO_ROWS + 1,
                                 bias_strength=0.0, tail_fraction=_ALL_TAIL))
    @example(cfg=SyntheticConfig(train_n=toy._PROTO_ROWS + 1, test_n=toy._PROTO_ROWS - 1,
                                 bias_strength=1.0, tail_fraction=_NO_TAIL))
    @example(cfg=SyntheticConfig(train_n=2 * toy._PROTO_ROWS + 1, test_n=toy._PROTO_ROWS + 1,
                                 bias_strength=0.9, tail_fraction=0.5))
    def test_matches_the_row_by_row_generator(self, cfg):
        """Feature bits, labels, samples and splits, or the overflow error,
        are those of ``ref_generate_synthetic`` for the same settings."""

        def generated(generate):
            try:
                made = generate(cfg)
            except ToyError as exc:
                return str(exc)
            return ([(part.x.shape, part.x.tobytes(), part.labels.dtype, part.labels.tolist(),
                      list(part.gold.items())) for part in (made.train, made.test)],
                    list(made.splits.items()))

        assert generated(generate_synthetic) == generated(ref_generate_synthetic)

    def test_noise_that_overflows_is_a_toy_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warning is off
            with pytest.raises(ToyError) as info:
                small_data(noise_scale=1e308)
        assert str(info.value) == "noise_scale 1e+308 makes non-finite train features"

    def test_label_needs_both_modalities(self):
        # audio index is label // 2 and video index label % 2, so two
        # labels share each audio prototype and three share each video one
        data = small_data(noise_scale=0.0)
        by_audio = {}
        for audio, label in zip(data.train.x[0], data.train.labels):
            by_audio.setdefault(tuple(audio), set()).add(int(label))
        assert any(len(v) > 1 for v in by_audio.values())


class TestToySet:
    def test_rows_must_align(self):
        data = small_data().train
        assert data.x.shape == (3, 300, 16)
        with pytest.raises(ToyError, match="labels"):
            replace(data, labels=data.labels[:-1])
        with pytest.raises(ToyError, match="features"):
            replace(data, x=data.x[:, :-1])


class TestFlatParameters:
    def test_params_are_views_of_one_buffer_in_dict_order(self):
        # every parameter is a view of flat, and the named ones tile it in order
        model = ToyModel.initialize(6, 16, seed=0)
        assert all(np.shares_memory(arr, model.flat) for arr in model.params.values())
        assert model.flat.size == sum(arr.size for arr in model.params.values())
        pos = 0
        for arr in model.named().values():
            assert np.array_equal(arr.ravel(), model.flat[pos : pos + arr.size])
            pos += arr.size
        assert pos == model.flat.size

    def test_training_writes_through_the_views(self):
        data = small_data()
        model = ToyModel.initialize(6, 16, seed=0)
        views = dict(model.params)
        before = model.flat.copy()
        train(model, data.train, QUICK)
        assert all(model.params[k] is v for k, v in views.items())
        assert not np.array_equal(before, model.flat)


class TestNamedParameters:
    def test_named_are_the_stacked_rows_in_model_bin_order(self):
        # the names and shapes of a model.bin, in its order; row i of each
        # (3, ...) parameter is modality i's, in place
        stored = read_model(Path(__file__).parent / "golden" / "toy" / "train" / "model.bin")
        model = ToyModel.initialize(6, 8, seed=0)
        named = model.named()
        assert [(k, v.shape) for k, v in named.items()] == [(k, v.shape) for k, v in stored.items()]
        assert list(model.params) == [*ToyModel.PER_MODALITY, "fusion_W", "fusion_b"]
        for i, m in enumerate(ToyModel.MODALITIES):
            for kind in ToyModel.PER_MODALITY:
                view = named[kind.format(m)]
                assert np.shares_memory(view, model.flat), (kind, m)
                assert np.array_equal(view, model.params[kind][i]), (kind, m)
        for name in ("fusion_W", "fusion_b"):
            assert named[name] is model.params[name]


class TestForward:
    def test_heads_shapes(self):
        data = small_data()
        model = ToyModel.initialize(6, 16, seed=0)
        logits = head_logits(model, data.train.x[:, :10])
        assert set(logits) == {"audio", "video", "question", "fused"}
        assert all(v.shape == (10, 6) for v in logits.values())

    def test_batching_invariance(self):
        data = small_data()
        model = ToyModel.initialize(6, 16, seed=0)
        whole = head_logits(model, data.train.x[:, :8])
        for i in range(8):
            single = head_logits(model, data.train.x[:, i : i + 1])
            for name in whole:
                assert np.allclose(whole[name][i], single[name][0], atol=1e-12)

    def test_feature_dim_checked(self):
        # data meets the model in train and predict_logits; both check
        data = small_data()
        model = ToyModel.initialize(6, 8, seed=0)
        with pytest.raises(ToyError, match="^feature dim 16 does not match model dim 8$"):
            train(model, data.train, QUICK)
        with pytest.raises(ToyError, match="^feature dim 16 does not match model dim 8$"):
            predict_logits(model, data.test)

    def test_predict_uses_only_fusion_path(self):
        data = small_data()
        model = ToyModel.initialize(6, 16, seed=0)
        test = ToySet(dict(islice(data.test.gold.items(), 20)), data.test.labels[:20],
                      data.test.x[:, :20])
        before = predict_logits(model, test)
        # clobber every bias-learner parameter; inference must not move
        for name, arr in model.params.items():
            if name.startswith("bias_"):
                arr += 100.0
        after = predict_logits(model, test)
        assert np.array_equal(before, after)
        assert np.array_equal(before, head_logits(model, test.x)["fused"])


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

    @pytest.mark.parametrize("bad", [6, -1])
    def test_labels_are_checked_before_the_first_step(self, bad):
        data = small_data()
        labels = data.train.labels.copy()
        # the row that the first epoch's shuffle puts in its last batch
        labels[np.random.default_rng(QUICK.seed).permutation(len(labels))[-1]] = bad
        model = ToyModel.initialize(6, 16, seed=0)
        before = model.flat.copy()
        with pytest.raises(LossError, match=r"labels must lie in \[0, 6\)"):
            train(model, ToySet(data.train.gold, labels, data.train.x), QUICK)
        assert same_bits(model.flat, before)

    def test_empty_corpus(self):
        model = ToyModel.initialize(6, 16, seed=0)
        with pytest.raises(ToyError, match="empty"):
            train(model, ToySet({}, np.empty(0, np.int64), np.empty((3, 0, 16))), QUICK)

    def test_loss_decreases(self):
        data = small_data()
        model = ToyModel.initialize(6, 16, seed=0)
        hist = train(model, data.train, TrainConfig(epochs=10))
        assert hist[-1]["L_a"] < hist[0]["L_a"]
        assert hist[-1]["train_acc"] > hist[0]["train_acc"]


class TestStepMatchesTheReference:
    """The fused training step against ``ref_train`` and ``ref_step_terms``,
    bit for bit, on configurations that the golden files do not cover."""

    @pytest.mark.parametrize("num_classes, mccd, coincident", [
        (10, MccdConfig(), False),
        (6, MccdConfig(heads=("question", "audio", "video")), False),
        (6, MccdConfig(distance_space="raw_logit"), False),
        (6, MccdConfig(), True),
    ], ids=["ten_classes", "permuted_heads", "raw_logit_all_heads", "coincident_heads"])
    def test_two_epochs(self, num_classes, mccd, coincident):
        data = small_data(num_classes=num_classes)
        models = [ToyModel.initialize(num_classes, 16, seed=3) for _ in range(2)]
        if coincident:
            # every head's logits are 0, so on the first step each
            # uni-modal head's distance to the fused head is 0
            for model in models:
                for kind in ("bias_{}_2_W", "bias_{}_2_b", "fusion_W", "fusion_b"):
                    model.params[kind][...] = 0.0
            assert not np.any(_forward_cache(models[0], data.train.x[:, :8])["heads"].logits)
        tcfg = TrainConfig(epochs=2, mccd=mccd, seed=3)
        history = train(models[0], data.train, tcfg)
        assert history == ref_train(models[1], data.train, tcfg)
        assert same_bits(models[0].flat, models[1].flat)

    @settings(max_examples=300, deadline=None)
    @given(v=hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 6),
                                              st.integers(1, 40)),
                        elements=st.floats(-1e3, 1e3)))
    @example(v=np.array([[[-0.0, 0.0, -0.0]], [[0.0, -0.0, 0.0]]]))
    @example(v=np.zeros((4, 2, 9)))
    def test_softmaxed(self, v):
        sm, ref = softmaxed(v), ref_softmaxed(v)
        assert same_bits(sm.p, ref.p) and same_bits(sm.logp, ref.logp)
        assert same_bits(softmaxed(v[0, 0]).logp, ref_softmaxed(v[0, 0]).logp)  # one vector

    CONFIGS = st.builds(
        MccdConfig,
        alpha=st.sampled_from([0.0, 1e-2, 1.0]),
        beta=st.sampled_from([0.0, 0.3, 2.0]),
        epsilon=st.sampled_from([1e-5, 0.5]),
        distance_space=st.sampled_from(["probability", "raw_logit"]),
        heads=st.lists(st.sampled_from(losses.UNIMODAL), unique=True, max_size=3).map(tuple),
    )
    HEADS_LOGITS = hnp.arrays(np.float64, st.tuples(st.just(4), st.integers(1, 6),
                                                   st.integers(2, 12)),
                              elements=st.floats(-30, 30))

    @settings(max_examples=300, deadline=None)
    @given(v=HEADS_LOGITS, cfg=CONFIGS, start=st.floats(-1, 1))
    @example(v=np.zeros((4, 3, 6)), cfg=MccdConfig(), start=0.5)  # every distance 0
    def test_discrepancy_and_cycle(self, v, cfg, start):
        sm = ref_softmaxed(v)
        for term, ref in ((losses.discrepancy_loss_stacked, ref_discrepancy),
                          (losses.cycle_loss_stacked, ref_cycle)):
            grad, ref_grad = np.full(v.shape, start), np.full(v.shape, start)
            value = term(sm, cfg, grad).value
            assert same_bits(value, ref(sm, cfg, ref_grad)), term.__name__
            assert same_bits(grad, ref_grad), term.__name__

    @settings(max_examples=200, deadline=None)
    @given(v=HEADS_LOGITS, cfg=CONFIGS, data=st.data())
    def test_training_components(self, v, cfg, data):
        k, c = v.shape[1:]
        labels = np.array(data.draw(st.lists(st.integers(0, c - 1), min_size=k, max_size=k)))
        ce, ld, lc, grad = losses.training_components_stacked(softmaxed(v), labels, cfg)
        la, ref_ld, ref_lc, bias, ref_grad = ref_step_terms(v, labels, cfg)
        assert same_bits(ce.value, [*bias, la])
        assert same_bits(ld.value, ref_ld) and same_bits(lc.value, ref_lc)
        assert same_bits(grad, ref_grad)


class TestBackward:
    def test_matches_central_differences(self):
        # L = sum(G * logits) over the four heads. The bias learners'
        # gradient stops at the encoder output, so an encoder's gradient is
        # that of the fused head's part of L alone.
        rng = np.random.default_rng(0)
        data = small_data(num_classes=4, feature_dim=5)
        model = ToyModel.initialize(4, 5, seed=0)
        model.flat[:] = 0.5 * rng.standard_normal(model.flat.size)  # nonzero biases too
        x = data.train.x[:, :6]
        G = rng.standard_normal((4, 6, 4))
        G_fused = np.concatenate([np.zeros((3, 6, 4)), G[3:]])
        buf = np.full_like(model.flat, np.nan)
        grads = model.views(buf)
        _backward(model, _forward_cache(model, x), G, grads)

        def loss(weights):
            return float(np.sum(weights * _forward_cache(model, x)["heads"].logits))

        step = 1e-6
        coords = model.flat
        positions = model.views(np.arange(coords.size))  # each entry's index in flat
        for name, grad in grads.items():
            weights = G_fused if name.startswith("enc_") else G
            numeric = np.empty(grad.size)
            for j, k in enumerate(positions[name].ravel().tolist()):
                orig = coords[k]
                coords[k] = orig + step
                up = loss(weights)
                coords[k] = orig - step
                down = loss(weights)
                coords[k] = orig
                numeric[j] = (up - down) / (2 * step)
            rows = grad if name in ToyModel.PER_MODALITY else grad[None]
            assert all(np.any(row) for row in rows), name  # each modality's, too
            analytic = grad.ravel()
            scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
            assert np.max(np.abs(analytic - numeric) / scale) < 1e-5, name


class TestBiasLearners:
    def test_bias_gradients_stop_at_the_encoder_output(self):
        # gradients that reach only the uni-modal heads must train the
        # bias learners and leave every inference-path parameter alone
        data = small_data()
        model = ToyModel.initialize(6, 16, seed=0)
        cache = _forward_cache(model, data.train.x[:, :16])
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
        guesses = np.argmax(head_logits(model, data.train.x)["question"], axis=1)
        shortcut = np.argmax(data.train.x[2], axis=1)
        assert np.mean(guesses == shortcut) > 0.5


    def test_non_finite_bias_learner_loss_is_caught(self):
        # the baseline variant feeds no bias head into L_a + L_d + L_c, so
        # only the bias learners' own losses can show this divergence
        data = small_data()
        model = ToyModel.initialize(6, 16, seed=0)
        model.params["bias_{}_2_W"][2, 0, 0] = np.nan  # the question learner's
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

    def test_non_finite_logits_are_a_toy_error(self):
        """A model whose last update overflowed is not scored: the argmax of
        its NaN logits would land on one class."""
        data = small_data()
        model = ToyModel.initialize(6, 16, seed=0)
        model.flat[:] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warnings are off
            with pytest.raises(ToyError, match="^non-finite test logits"):
                evaluate(model, data.test, data.splits)

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
        with pytest.raises(ToyError, match="terminated abruptly") as info:
            ablation_run(SMALL, [(QUICK, AblationSpec())], seeds=[0, 1], workers=2)
        assert isinstance(info.value.__cause__, BrokenProcessPool)

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
