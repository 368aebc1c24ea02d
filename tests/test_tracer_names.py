"""The names ``perfbench/tracing.py`` patches still exist and are still the
ones the package calls: a rename fails here, not only in a traced
benchmark run."""

import importlib
import os

from blockmdm import bench, decode, nd, talker, training
from blockmdm.masking import MaskingConfig
from blockmdm.synthtask import TaskSpec, gen_dataset

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

CFG = talker.TalkerConfig(data_tokens=12, src_vocab=6, d=16, d_ff=32, n_layers=1, n_heads=2,
                          B=4, Q=2, T_max=32)


def test_traced_spans_recorded(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    params = talker.init_params(CFG, nd.make_rng(0))
    spec = TaskSpec(source_vocab=CFG.src_vocab, data_tokens=CFG.data_tokens, upsample=2, grammar_seed=1)
    pairs = gen_dataset(spec, 4, (2, 3), nd.make_rng(1), eos_id=CFG.vocab.eos_id)
    dcfg = decode.DecodeConfig(B=CFG.B, K=2, max_blocks=2)
    with tracing.installed(tracing.Tracer()) as tracer:
        decode.decode_source(pairs[0].source, params, CFG, dcfg)
        training.train_distill(CFG, params, pairs, training.DistillConfig(K=2),
                               MaskingConfig(mode="hierarchical"), training.OptimizerConfig(batch_size=2),
                               steps=1, seed=0)
        bench.decode_eval(params, CFG, pairs[1:2], K=2, max_blocks=2)
    recorded = {span[0] for span in tracer.spans}
    for name in ("schedule.reveal", "semantics.fuse", "decode.block", "training.rollout", "bench.uncertainty",
                 "masking.sample", "nd.backward", "nd.adamw", "semantics.align", "nd.attention"):
        assert name in recorded, name
    assert tracer.counts["nd.matmul_calls"] > 0
    assert tracer.counts["masking.target_positions"] > 0
