import numpy as np
import plain_ops
import pytest

from blockmdm import nd, talker, training
from blockmdm.errors import DimensionError, NonFiniteError, ParameterError, TrainingDivergedError
from blockmdm.masking import MaskingConfig
from blockmdm.synthtask import TaskSpec, gen_dataset
from blockmdm.training import (DistillConfig, OptimizerConfig, batch_loss, distill_loss, draw_batch,
                               teacher_rollout, train_distill, train_mdm)

CFG = talker.TalkerConfig(data_tokens=12, src_vocab=6, d=16, d_ff=32, n_layers=2, n_heads=2,
                          B=4, Q=2, T_max=32)


def tiny_dataset(n=40, seed=0):
    spec = TaskSpec(source_vocab=CFG.src_vocab, data_tokens=CFG.data_tokens, upsample=2,
                    grammar_seed=1)
    return gen_dataset(spec, n, (2, 5), nd.make_rng(seed), eos_id=CFG.vocab.eos_id)


class ScriptedTeacher:
    """Fake forward fn whose logits change on every call; logs call count.
    Call number ``nan_at`` returns one NaN logit."""

    def __init__(self, T, V, seed=0, nan_at=None):
        self.rng = nd.make_rng(seed)
        self.T, self.V = T, V
        self.nan_at = nan_at
        self.calls = 0
        self.history = []

    def __call__(self, tokens):
        assert len(tokens) == self.T  # every forward covers all the rows
        self.calls += 1
        logits = self.rng.normal(size=(self.T, self.V)) + self.calls  # distinct per step
        if self.calls == self.nan_at:
            logits[self.T // 2, 0] = np.nan
        self.history.append(logits.copy())
        return logits


class TestDistillConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            DistillConfig(K=0)
        with pytest.raises(ParameterError):
            DistillConfig(tau=0.0)
        with pytest.raises(ParameterError):
            DistillConfig(alpha=1.5)
        with pytest.raises(ParameterError):
            DistillConfig(kl_direction="diagonal")

    @pytest.mark.parametrize("tau", [float("nan"), float("inf")])
    def test_tau_must_be_finite(self, tau):
        with pytest.raises(ParameterError):
            DistillConfig(tau=tau)


class TestTeacherRollout:
    def test_k1_records_single_pass_logits_everywhere(self):
        T, V, B = 12, 9, 4
        teacher = ScriptedTeacher(T, V)
        corrupted = np.full(T, 7)
        mask = np.array([1, 2, 5, 9, 10])
        targets, final, n_fwd = teacher_rollout(corrupted, mask, teacher, B=B, K=1, lengths=[T])
        assert n_fwd == 1
        assert targets.shape == (len(mask), V)
        np.testing.assert_array_equal(targets, teacher.history[0][mask])
        np.testing.assert_array_equal(final[mask], teacher.history[0][mask].argmax(axis=1))

    def test_nonfinite_logits_raise_naming_the_step(self):
        T, V, B = 12, 9, 4
        teacher = ScriptedTeacher(T, V, seed=3, nan_at=2)
        with pytest.raises(NonFiniteError, match="non-finite teacher logits at rollout step 2"):
            teacher_rollout(np.full(T, 7), np.arange(T), teacher, B=B, K=3, lengths=[T])
        assert teacher.calls == 2

    def test_all_revealed_within_k_and_monotone(self):
        T, V, B, K = 16, 9, 4, 4
        teacher = ScriptedTeacher(T, V, seed=1)
        corrupted = np.full(T, 7)
        mask = np.arange(T)  # everything masked
        targets, final, n_fwd = teacher_rollout(corrupted, mask, teacher, B=B, K=K, lengths=[T])
        assert n_fwd == K
        assert targets.shape == (T, V)
        # every row is the teacher's logits for its position at some step
        assert all(any(np.array_equal(row, h[t]) for h in teacher.history) for t, row in zip(mask, targets))
        np.testing.assert_array_equal(final[mask], targets.argmax(axis=1))  # each replaced by its row's argmax

    def test_untouched_block_never_written(self):
        T, V, B = 12, 9, 4
        teacher = ScriptedTeacher(T, V, seed=2)
        corrupted = np.arange(T) % 9
        mask = np.array([0, 1, 9])  # blocks 0 and 2 only
        targets, final, _ = teacher_rollout(corrupted, mask, teacher, B=B, K=2, lengths=[T])
        assert targets.shape == (len(mask), V)  # no row for the unmasked block
        np.testing.assert_array_equal(final[4:8], corrupted[4:8])

    def test_forward_count_is_k_when_blocks_have_enough_work(self):
        T, V, B, K = 8, 5, 4, 4
        teacher = ScriptedTeacher(T, V, seed=3)
        mask = np.arange(8)  # each block has R=4 >= K
        _, _, n_fwd = teacher_rollout(np.zeros(T, int), mask, teacher, B=B, K=K, lengths=[T])
        assert n_fwd == K == teacher.calls

    def test_provenance_rows_match_reveal_step(self):
        # per-block even allocation with R=4, K=2 reveals 2 then 2; the rows
        # recorded for the second pair must come from the second forward pass
        T, V, B, K = 4, 6, 4, 2
        teacher = ScriptedTeacher(T, V, seed=4)
        mask = np.arange(4)
        targets, _, _ = teacher_rollout(np.zeros(T, int), mask, teacher, B=B, K=K, lengths=[T])
        step1, step2 = teacher.history
        matches_step1 = [np.array_equal(targets[t], step1[t]) for t in range(4)]
        matches_step2 = [np.array_equal(targets[t], step2[t]) for t in range(4)]
        assert sum(matches_step1) == 2 and sum(matches_step2) == 2
        for t in range(4):
            assert matches_step1[t] != matches_step2[t]

    def test_confidence_ties_resolved_by_lowest_index(self):
        T, V, B = 4, 5, 4
        calls = []

        def flat_teacher(tokens):
            calls.append(None)
            return np.full((T, V), float(len(calls)))  # uniform rows, valued by step

        targets, final, _ = teacher_rollout(np.full(T, 3), np.arange(T), flat_teacher, B=B, K=2, lengths=[T])
        # with all-equal confidence, step 1 must reveal positions 0 and 1
        np.testing.assert_array_equal(targets, [[1.0] * V, [1.0] * V, [2.0] * V, [2.0] * V])

    def test_rows_follow_mask_positions_order(self):
        T, V, B, K = 12, 9, 4, 2
        mask = np.array([9, 1, 5, 10, 2])
        rows, final, _ = teacher_rollout(np.full(T, 7), mask, ScriptedTeacher(T, V, seed=5), B=B, K=K, lengths=[T])
        sorted_rows, sorted_final, _ = teacher_rollout(np.full(T, 7), np.sort(mask), ScriptedTeacher(T, V, seed=5),
                                                       B=B, K=K, lengths=[T])
        assert rows.shape == (len(mask), V)
        np.testing.assert_array_equal(rows, sorted_rows[np.argsort(np.argsort(mask))])
        np.testing.assert_array_equal(final, sorted_final)

    def test_empty_mask_rejected(self):
        with pytest.raises(ParameterError):
            teacher_rollout(np.zeros(8, int), np.array([], dtype=int), ScriptedTeacher(8, 5), B=4, K=2, lengths=[8])


class TestDistillLoss:
    def _setup(self, seed=0):
        rng = nd.make_rng(seed)
        T, V = 8, 10
        student = nd.Tensor(rng.normal(0, 2, (T, V)), requires_grad=True)
        targets = rng.integers(0, V, T)
        M = np.array([0, 2, 5])
        z = rng.normal(0, 3, (T, V))
        return student, targets, M, z[M]

    def test_alpha_zero_is_pure_masked_ce(self):
        student, targets, M, tea = self._setup()
        loss, kd, mdm = distill_loss(student, targets, M, tea, DistillConfig(alpha=0.0))
        ce = plain_ops.masked_cross_entropy(student, targets, M).item() / len(M)
        assert loss.item() == pytest.approx(ce, rel=1e-12)
        assert mdm == pytest.approx(ce, rel=1e-12)

    def test_alpha_one_identical_logits_zero_kd(self):
        student, targets, M, tea = self._setup()
        student.data[M] = tea
        loss, kd, mdm = distill_loss(student, targets, M, tea, DistillConfig(alpha=1.0))
        assert loss.item() == 0.0 and kd == 0.0

    def test_gradient_matches_finite_differences(self):
        student, targets, M, tea = self._setup(1)
        cfg = DistillConfig(alpha=0.7, tau=2.0)
        report = nd.grad_check(lambda: distill_loss(student, targets, M, tea, cfg)[0],
                               {"student": student}, max_coords_per_param=40)
        assert report.max_rel_err < 1e-5

    def test_missing_teacher_rows_rejected(self):
        student, targets, M, tea = self._setup(2)
        for rows in (tea[1:], np.concatenate([tea, tea[:1]])):
            with pytest.raises(DimensionError):
                distill_loss(student, targets, M, rows, DistillConfig())

    def test_empty_mask_zero(self):
        student, targets, _, _ = self._setup(3)
        for tea in (None, np.zeros((0, student.data.shape[1]))):
            nd.zero_grads([student])
            loss, kd, mdm = distill_loss(student, targets, np.array([], dtype=int), tea, DistillConfig())
            loss.backward()
            assert loss.item() == 0.0 and kd == 0.0 and mdm == 0.0
            assert not student.grad.any()


GLOBAL = MaskingConfig(mode="global_bernoulli", gamma_g=(0.3, 0.8))
HIER = MaskingConfig(mode="hierarchical", gamma_c=(0.5, 1.0), gamma_t=(0.3, 1.0))
OPT = OptimizerConfig(lr=1e-3, batch_size=4)


class TestTrainMdm:
    def test_loss_descends_over_200_steps(self):
        result = train_mdm(CFG, tiny_dataset(), GLOBAL, OPT, steps=200, seed=0)
        first = np.mean([r["loss"] for r in result.curve[:20]])
        last = np.mean([r["loss"] for r in result.curve[-20:]])
        assert last < first

    def test_empty_masks_contribute_exactly_zero(self):
        never = MaskingConfig(mode="global_bernoulli", gamma_g=(0.0, 0.0))
        result = train_mdm(CFG, tiny_dataset(), never, OPT, steps=5, seed=0)
        assert all(r["loss"] == 0.0 for r in result.curve)

    def test_identical_seeds_identical_runs(self):
        r1 = train_mdm(CFG, tiny_dataset(), GLOBAL, OPT, steps=30, seed=7)
        r2 = train_mdm(CFG, tiny_dataset(), GLOBAL, OPT, steps=30, seed=7)
        assert [r["loss"] for r in r1.curve] == [r["loss"] for r in r2.curve]
        assert plain_ops.param_digest(r1.params) == plain_ops.param_digest(r2.params)

    def test_nonfinite_loss_aborts_with_params(self):
        ds = tiny_dataset()
        bad = talker.init_params(CFG, nd.make_rng(0))
        bad["head"].data[0, 0] = np.inf
        with pytest.raises(TrainingDivergedError) as exc:
            train_mdm(CFG, ds, GLOBAL, OPT, steps=3, seed=0, params=bad)
        assert exc.value.params is bad
        assert exc.value.step == 1

    def test_empty_dataset_rejected(self):
        with pytest.raises(ParameterError):
            train_mdm(CFG, [], GLOBAL, OPT, steps=1, seed=0)

    def test_each_call_starts_its_moments_at_zero(self):
        # a second call on trained parameters moves them as a fresh run from
        # a copy does, with no optimizer state carried over from the first
        ds = tiny_dataset()
        params = train_mdm(CFG, ds, GLOBAL, OPT, steps=3, seed=0).params
        between = params.copy()
        again = train_mdm(CFG, ds, GLOBAL, OPT, steps=2, seed=1, params=params)
        fresh = train_mdm(CFG, ds, GLOBAL, OPT, steps=2, seed=1, params=between)
        assert again.params is params
        assert again.curve == fresh.curve
        assert plain_ops.param_digest(params) == plain_ops.param_digest(between)


class TestTrainDistill:
    def test_teacher_frozen_start_params_untouched(self):
        ds = tiny_dataset()
        start = talker.init_params(CFG, nd.make_rng(1))
        digest_before = plain_ops.param_digest(start)
        result = train_distill(CFG, start, ds, DistillConfig(K=2), HIER, OPT, steps=10, seed=2)
        assert plain_ops.param_digest(start) == digest_before
        assert plain_ops.param_digest(result.params) != digest_before  # student actually moved

    def test_alpha_zero_matches_pure_mdm_run(self):
        ds = tiny_dataset()
        start = talker.init_params(CFG, nd.make_rng(3))
        d = train_distill(CFG, start, ds, DistillConfig(K=2, alpha=0.0), HIER, OPT,
                          steps=25, seed=9)
        m = train_mdm(CFG, ds, HIER, OPT, steps=25, seed=9, params=start.copy())
        assert [r["loss"] for r in d.curve] == [r["loss"] for r in m.curve]
        assert plain_ops.param_digest(d.params) == plain_ops.param_digest(m.params)

    def test_curve_reports_kd_and_mdm_components(self):
        ds = tiny_dataset()
        start = talker.init_params(CFG, nd.make_rng(4))
        result = train_distill(CFG, start, ds, DistillConfig(K=2, alpha=0.7), HIER, OPT,
                               steps=5, seed=5)
        for row in result.curve:
            assert set(row) == {"step", "loss", "kd_loss", "mdm_loss"}
            assert row["loss"] == pytest.approx(0.7 * row["kd_loss"] + 0.3 * row["mdm_loss"],
                                                abs=1e-9)

    def test_pinned_digest_and_curve(self):
        # hierarchical masks at K=3 over targets of 11..25 rows (never a
        # multiple of B=4), from a start sharp enough that every reveal
        # order shows: one bit moved in any teacher target moves the digest
        spec = TaskSpec(source_vocab=CFG.src_vocab, data_tokens=CFG.data_tokens, upsample=2,
                        grammar_seed=1)
        ds = gen_dataset(spec, 40, (5, 12), nd.make_rng(0), eos_id=CFG.vocab.eos_id)
        start = talker.init_params(CFG, nd.make_rng(12), std=0.5)
        result = train_distill(CFG, start, ds, DistillConfig(K=3), HIER, OPT, steps=3, seed=31)
        digest = plain_ops.param_digest(result.params)
        assert digest == "bbe3a79fe6e2d52a06cca4cf6dd878f6056ab6cb50677271cc7d6070ccf606e4"
        assert [(r["loss"], r["kd_loss"], r["mdm_loss"]) for r in result.curve] == [
            (1.0609947851952748, 0.1068777971595116, 3.2872677572787214),
            (1.0335247409410713, 0.06861668900766375, 3.284976862119022),
            (1.2037711328199372, 0.13915157706721584, 3.6878834295762863)]

    def test_nonfinite_teacher_logits_abort_with_start_params(self):
        start = talker.init_params(CFG, nd.make_rng(1))
        start["head"].data[0, 0] = np.inf
        digest = plain_ops.param_digest(start)
        with pytest.raises(TrainingDivergedError, match="teacher logits at rollout step 1 at step 1") as exc:
            train_distill(CFG, start, tiny_dataset(), DistillConfig(K=2), HIER, OPT, steps=3, seed=2)
        assert exc.value.step == 1
        assert plain_ops.param_digest(exc.value.params) == digest

    def test_deterministic(self):
        ds = tiny_dataset()
        start = talker.init_params(CFG, nd.make_rng(6))
        a = train_distill(CFG, start, ds, DistillConfig(K=2), HIER, OPT, steps=10, seed=11)
        b = train_distill(CFG, start, ds, DistillConfig(K=2), HIER, OPT, steps=10, seed=11)
        assert plain_ops.param_digest(a.params) == plain_ops.param_digest(b.params)

    def test_copies_only_the_student(self, monkeypatch):
        # the teacher reads the start parameters themselves
        copies = []
        copy = talker.TalkerParams.copy
        monkeypatch.setattr(talker.TalkerParams, "copy", lambda self: copies.append(self) or copy(self))
        start = talker.init_params(CFG, nd.make_rng(7))
        result = train_distill(CFG, start, tiny_dataset(), DistillConfig(K=2), HIER, OPT, steps=2, seed=3)
        assert len(copies) == 1 and copies[0] is start and result.params is not start

    def test_step_aligns_each_sample_once(self, monkeypatch):
        # teacher and student read the stream the batch drew
        aligned, batches = [], []
        align, draw = talker.align_for_canvas, training.draw_batch
        monkeypatch.setattr(talker, "align_for_canvas", lambda *args: aligned.append(args) or align(*args))
        monkeypatch.setattr(training, "draw_batch", lambda *args: batches.append(draw(*args)) or batches[-1])
        start = talker.init_params(CFG, nd.make_rng(7))
        train_distill(CFG, start, tiny_dataset(), DistillConfig(K=2), HIER, OPT, steps=1, seed=3)
        assert len(batches[0].lengths) == OPT.batch_size  # no mask draw came up empty
        assert len(aligned) == OPT.batch_size

    def test_read_only_start_arrays(self):
        start = talker.init_params(CFG, nd.make_rng(8))
        digest = plain_ops.param_digest(start)
        for p in start.values():
            p.data.setflags(write=False)
        result = train_distill(CFG, start, tiny_dataset(), DistillConfig(K=2), HIER, OPT, steps=3, seed=4)
        assert plain_ops.param_digest(start) == digest and plain_ops.param_digest(result.params) != digest


def scripted_batch(monkeypatch, masks, seed=0, dataset=None):
    """A batch of ``len(masks)`` samples whose mask draws are ``masks``."""
    draws = iter(masks)
    monkeypatch.setattr(training, "sample_mask", lambda part, cfg, rng: np.array(next(draws), dtype=np.intp))
    dataset = tiny_dataset(seed=seed) if dataset is None else dataset
    batch = draw_batch(dataset, CFG, GLOBAL, nd.make_rng(seed), len(masks))
    rng = nd.make_rng(seed)  # the same draws again, for the per-sample oracle
    samples = [dataset[int(rng.integers(len(dataset)))] for _ in masks]
    return batch, samples


class TestBatchedStep:
    """One forward/backward over the stacked batch against its oracle: one
    plain forward and backward per sample, gradients summed in sample order.
    The batch takes each sample's rows through the same arithmetic, so the
    two agree bit for bit."""

    MASKS = ([0, 2, 3], [], [1, 4, 5, 6, 8], [3])  # the second sample's mask came up empty

    def rollout(self, teacher, batch, K=2, forwards=None):
        def forward_fn(tokens):
            if forwards is not None:
                forwards.append(len(tokens))
            return talker.forward_array(teacher, CFG, tokens, batch.stream, lengths=batch.lengths)

        return teacher_rollout(batch.corrupted, batch.masked, forward_fn, B=CFG.B, K=K,
                               lengths=batch.lengths)

    def test_batch_layout(self, monkeypatch):
        batch, samples = scripted_batch(monkeypatch, self.MASKS)
        kept = [s for s, m in zip(samples, self.MASKS) if m]
        assert batch.size == 4 and batch.lengths == [len(s.target) for s in kept]
        np.testing.assert_array_equal(batch.targets, np.concatenate([s.target for s in kept]))
        starts = np.cumsum([0] + batch.lengths)
        want = np.concatenate([start + np.array(m) for start, m in zip(starts, [m for m in self.MASKS if m])])
        np.testing.assert_array_equal(batch.masked, want)
        assert (batch.corrupted[batch.masked] == CFG.vocab.mask_id).all()
        np.testing.assert_array_equal(batch.counts, [3] * 3 + [5] * 5 + [1])

    @pytest.mark.parametrize("distill", [False, True])
    def test_gradients_equal_sum_of_per_sample_gradients(self, monkeypatch, distill):
        batch, samples = scripted_batch(monkeypatch, self.MASKS, seed=1)
        params = talker.init_params(CFG, nd.make_rng(2))
        plist = list(params.values())
        dcfg = DistillConfig(K=2, alpha=0.7)
        tea = self.rollout(talker.init_params(CFG, nd.make_rng(3)), batch)[0] if distill else None

        nd.zero_grads(plist)
        total, kd, mdm = batch_loss(params, CFG, batch, tea, dcfg)
        total.backward()
        got = {name: p.grad.copy() for name, p in params.items()}

        nd.zero_grads(plist)
        losses, kds, first_row = [], [], 0
        for sample, mask in zip(samples, self.MASKS):
            if not mask:
                losses.append(0.0)
                kds.append(0.0)
                continue
            T = len(sample.target)
            corrupted = sample.target.copy()
            corrupted[mask] = CFG.vocab.mask_id
            logits = talker.forward(params, CFG, corrupted,
                                    talker.align_for_canvas(params, CFG, sample.source, T))
            tea_i = tea[first_row:first_row + len(mask)] if distill else None
            loss_i, kd_i, _ = distill_loss(logits, sample.target, mask, tea_i, dcfg)
            loss_i.backward()
            losses.append(loss_i.item())
            kds.append(kd_i)
            first_row += len(mask)
        assert total.item() == pytest.approx(np.sum(losses), rel=1e-12)
        assert kd == pytest.approx(np.sum(kds), rel=1e-12, abs=0.0)
        assert (kd > 0) == distill
        for name, p in params.items():
            assert np.abs(p.grad).max() > 0, name
            np.testing.assert_array_equal(got[name], p.grad, err_msg=name)

    # samples of 5, 7 and 9 rows; the last one's only masked row is alone in
    # its ragged last block (R=1 < K), so at K=3 that sample is done after
    # the first forward, and later forwards still cover its rows
    EARLY = ([0, 2, 3], [1, 4, 5, 6], [8])

    @pytest.mark.parametrize("K, early", [(1, False), (3, False), (3, True)], ids=["1", "3", "3-early"])
    def test_batched_rollout_equals_per_sample_rollout(self, monkeypatch, K, early):
        masks = self.EARLY if early else self.MASKS
        batch, samples = scripted_batch(monkeypatch, masks, seed=4)
        teacher = talker.init_params(CFG, nd.make_rng(5))
        forwards = []  # per forward: the rows it covers
        tea, final, n_fwd = self.rollout(teacher, batch, K=K, forwards=forwards)
        assert n_fwd == K
        if early:
            assert batch.lengths == [5, 7, 9]
            assert forwards == [21, 21, 21]
        starts = np.cumsum([0] + batch.lengths)
        kept = [(s, m) for s, m in zip(samples, masks) if m]
        first_rows = np.cumsum([0] + [len(m) for _, m in kept])
        for (sample, mask), lo, hi, first_row in zip(kept, starts[:-1], starts[1:], first_rows):
            corrupted = batch.corrupted[lo:hi]
            aligned = talker.align_for_canvas(teacher, CFG, sample.source, hi - lo)
            one, one_final, _ = teacher_rollout(
                corrupted, np.array(mask),
                lambda toks: talker.forward_array(teacher, CFG, toks, aligned), B=CFG.B, K=K, lengths=[hi - lo])
            np.testing.assert_array_equal(tea[first_row:first_row + len(mask)], one)
            np.testing.assert_array_equal(final[lo:hi], one_final)

    def test_rollout_blocks_are_per_sequence(self):
        # two sequences of 6 rows at B=4: rows 4-5 end the first sequence and
        # rows 6-7 start the second, so they are two blocks of R=2, not one
        # block of R=4; at K=4 each reveals one row per step and is done in 2
        T, V = 12, 7
        teacher = ScriptedTeacher(T, V, seed=6)
        mask = np.array([4, 5, 6, 7])
        targets, _, n_fwd = teacher_rollout(np.zeros(T, int), mask, teacher, B=4, K=4, lengths=[6, 6])
        assert n_fwd == 2
        step1 = teacher.history[0]
        assert sum(map(np.array_equal, targets[:2], step1[4:6])) == 1  # rows of positions 4, 5
        assert sum(map(np.array_equal, targets[2:], step1[6:8])) == 1  # rows of positions 6, 7
        with pytest.raises(ParameterError):
            teacher_rollout(np.zeros(T, int), mask, teacher, B=4, K=2, lengths=[6, 5])


class TestKLGradientDirections:
    def test_reverse_gradient_weighted_by_student_probs(self):
        # closed form: d/ds of tau^2 * KL(p||q) is tau * p * (log p - log q - KL),
        # i.e. each coordinate's gradient carries its own student probability
        tau = 2.0
        student = nd.Tensor(np.array([[2.0, 0.0, -30.0, 1.0]]), requires_grad=True)
        teacher = np.array([[0.0, 1.0, 3.0, -1.0]])
        nd.kl_rows(student, teacher, tau, "reverse").backward()
        p = plain_ops.softmax(student.data / tau)
        q = plain_ops.softmax(teacher / tau)
        logdiff = np.log(p) - np.log(q)
        kl = (p * logdiff).sum()
        np.testing.assert_allclose(student.grad, tau * p * (logdiff - kl), rtol=1e-10)
        # where the student has ~1e-7 mass, its gradient is ~1e-6 even though
        # the teacher concentrates there; forward KL pushes hard instead
        assert abs(student.grad[0, 2]) < 1e-4

        student2 = nd.Tensor(np.array([[2.0, 0.0, -30.0, 1.0]]), requires_grad=True)
        nd.kl_rows(student2, teacher, tau, "forward").backward()
        np.testing.assert_allclose(student2.grad, tau * (p - q), rtol=1e-10)
        assert abs(student2.grad[0, 2]) > 1e-2  # teacher mass dominates there
