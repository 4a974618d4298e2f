"""How the attentive features and the augmented graph are built.

    python3 demos/demo_attention_graph.py
"""

import numpy as np

from aghash.attention import AttentionParams, denoise, init_attention
from aghash.data import synth_dataset
from aghash.graph import GraphConfig, normalize, similarity, visual_similarity

features, aux, truth = synth_dataset(n=200, d=16, c=3, sep=4.0, label_noise=0.15, seed=1)
X, Y = features.data, aux.data

# Both modalities are projected into a shared space by fixed random maps,
# then each item attends over the semantic vectors with clipped cosine
# weights; the weighted mean is added back as a residual correction.
# Items with the same tags have the same semantic vector, so the scores are
# taken once per distinct tag column and weighted by how often it occurs.
# The forward cache holds them (and what the projection gradients need).
params = init_attention(features.d, aux.c, d_prime=32, seed=1)
Xatt, cache = denoise(X, Y, params)
alpha = cache.alpha
print(f"attention weights: {alpha.shape[0]} items x {alpha.shape[1]} distinct tag columns, "
      f"range [{alpha.min():.3f}, {alpha.max():.3f}]")
print(f"items per distinct tag column: {cache.counts.tolist()}")
print(f"fraction clipped to zero: {(alpha == 0).mean():.2f}")

# Sanity check on the scores themselves, under identity projections: cosine of
# a vector with itself is 1, opposite directions clip to 0.
v = np.array([[1.0], [2.0]])
identity = AttentionParams(np.eye(2), np.eye(2))
print(f"score(v, v) = {denoise(v, v, identity)[1].alpha[0, 0]:.3f}, "
      f"score(v, -v) = {denoise(v, -v, identity)[1].alpha[0, 0]:.3f}")

# The graph fuses a Gaussian-kernel visual similarity (median-heuristic
# bandwidth unless pinned) with integer aux inner products, then applies
# symmetric degree normalization.
Sv, sigma = visual_similarity(Xatt)
Sa = Y.T @ Y
S, _ = similarity(Xatt, Y, GraphConfig(mu=1.0))
S_tilde, _ = normalize(S.copy())  # build_graph normalizes in S's own buffer
print(f"visual kernel bandwidth (median heuristic): {sigma:.3f}")
print(f"aux similarities are integers: counts {sorted(set(Sa.ravel().astype(int).tolist()))}")

top = np.linalg.eigvalsh(S_tilde).max()
print(f"largest eigenvalue of the normalized graph: {top:.6f} (bounded by 1)")

# Same-category pairs should look more similar than cross-category pairs.
lab = truth.data.argmax(axis=0)
same = lab[:, None] == lab[None, :]
off = ~np.eye(len(lab), dtype=bool)
print(f"mean fused similarity, same category:  {S[same & off].mean():.3f}")
print(f"mean fused similarity, cross category: {S[~same].mean():.3f}")
