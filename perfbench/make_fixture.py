"""Train the benchmark's fixed stage-one checkpoint.

Run once from the repository root, then record the printed sha256 as
``FIXTURE_SHA256`` in ``workloads.py``::

    python3 perfbench/make_fixture.py

The recipe is the acceptance stage one: 3000 training pairs with source
length 4..12 drawn from data seed 42, global Bernoulli masking 0.3-0.8,
AdamW at lr 1e-3, batch 8, 3000 steps, seed 0. The benchmark never
retrains: set-up only verifies the hash of the committed file, so the
decode workloads do not depend on training arithmetic.
"""

import hashlib
import os
import sys
import time

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from blockmdm import masking, nd, synthtask, talker, training  # noqa: E402

from workloads import FIXTURE_PATH, MODEL_CFG, TASK  # noqa: E402

DATA_SEED, TRAIN_COUNT, N_RANGE = 42, 3000, (4, 12)
STEPS, SEED = 3000, 0


def main():
    train = synthtask.gen_dataset(TASK, TRAIN_COUNT, N_RANGE, nd.make_rng(DATA_SEED),
                                  eos_id=MODEL_CFG.vocab.eos_id)
    t0 = time.perf_counter()
    result = training.train_mdm(
        MODEL_CFG, train,
        masking.MaskingConfig(mode="global_bernoulli", gamma_g=(0.3, 0.8)),
        training.OptimizerConfig(lr=1e-3, batch_size=8), steps=STEPS, seed=SEED)
    os.makedirs(os.path.dirname(FIXTURE_PATH), exist_ok=True)
    talker.save_checkpoint(FIXTURE_PATH, MODEL_CFG, result.params)
    with open(FIXTURE_PATH, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    print(f"trained {STEPS} steps in {time.perf_counter() - t0:.1f} s, "
          f"final loss {result.final_loss:.4f}")
    print(f"{FIXTURE_PATH}: sha256 {digest}")


if __name__ == "__main__":
    main()
