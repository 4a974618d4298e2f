"""End-to-end walkthrough: synthesize data, train, encode, and evaluate.

Run from the repo root after `pip install -e .`:

    python3 demos/demo_pipeline.py
"""

from aghash.data import make_split, synth_dataset
from aghash.retrieval import evaluate, pack
from aghash.trainer import TrainConfig, encode_queries, fit

# A small clustered dataset: 600 items, 32-dim features, 4 categories.
# Auxiliary semantics are noisy one-hot labels (10% flip rate), so the model
# has to combine them with visual structure rather than trust them outright.
features, aux, truth = synth_dataset(n=600, d=32, c=4, sep=3.0, label_noise=0.1, seed=0)
split = make_split(600, (300, 150), seed=0)
print(f"dataset: {features.d} dims x {features.n} items, {aux.c} categories")
print(f"split: {len(split.train)} train / {len(split.query)} query / {len(split.retrieval)} db")

# Train 16-bit codes. The objective is reconstruction alone: the code
# cosines reconstruct the tags' centred Gram matrix Y^T Y - m 11^T. Smaller
# widths and a higher learning rate than the defaults keep the demo fast.
model, history = fit(
    features, aux, split.train,
    r=16, d_prime=64, hidden=128,
    cfg=TrainConfig(epochs=150, lr=1e-3, seed=0),
)
print(f"trained {len(history)} epochs, "
      f"reconstruction loss {history[0]:.1f} -> {history[-1]:.1f}")

# Out-of-sample items are encoded inductively: each one extends the training
# graph by a single column and is propagated over both hops of the graph.
Bq = encode_queries(model, features.data[:, split.query], aux.data[:, split.query])
Bd = encode_queries(model, features.data[:, split.retrieval], aux.data[:, split.retrieval])

report = evaluate(pack(Bq), pack(Bd),
                  truth.data[:, split.query], truth.data[:, split.retrieval], K=100)
print(f"MAP@100 = {report.map_at_k:.4f}")
for k, p in report.precision_curve:
    print(f"  precision@{k:<4d} = {p:.4f}")
print(f"(random ranking would score about {1.0 / truth.c:.2f} with balanced classes)")
