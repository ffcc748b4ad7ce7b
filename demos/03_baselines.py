"""Distance and HMM baselines for centerline-to-road association.

KNN labels every centerline with its nearest road and ignores structure.
The HMM walks each lane path, staying on a road or moving to a connected one
(never to an unconnected road), which irons out exactly the errors a rigid
GPS shift causes. Its parameters are fixed: emission sigma 4.07 m, weight 0.7
to stay on a road and 0.3 shared among the roads it connects to.

Run from the repository root:

    python3 demos/03_baselines.py
"""

from mapassoc.baselines import distance_assoc_matrix, hmm_associate, knn_associate
from mapassoc.scenegen import GenConfig, PerturbConfig, generate_scene, perturb_scene


def accuracy(assoc, gt):
    hits = sum(assoc.labels[c] == gt.labels[c] for c in gt.labels)
    return hits / len(gt.labels)


# On a clean scene both baselines recover the ground truth exactly.
clean = generate_scene(GenConfig(seed=11))
print(f"clean scene:  knn accuracy {accuracy(knn_associate(clean), clean.gt):.3f}, "
      f"hmm accuracy {accuracy(hmm_associate(clean), clean.gt):.3f}")

# Shift the HD layer 2 m and drop some centerlines. Nearest-road labels
# start leaking onto neighbouring roads; the HMM keeps paths coherent.
knn_total = hmm_total = n_scenes = 0
for seed in range(20):
    scene = perturb_scene(
        generate_scene(GenConfig(seed=100 + seed)),
        PerturbConfig(gps_shift=2.0, dropout_rate=0.1, seed=seed),
    )
    knn_total += accuracy(knn_associate(scene), scene.gt)
    hmm_total += accuracy(hmm_associate(scene), scene.gt)
    n_scenes += 1
print(f"20 noisy scenes: mean knn accuracy {knn_total / n_scenes:.3f}, "
      f"mean hmm accuracy {hmm_total / n_scenes:.3f}")

# Both baselines sit on the same soft evidence: a row-stochastic matrix of
# per-centerline probabilities over candidate roads. The decoder demo feeds
# this matrix to beam search.
scene = perturb_scene(generate_scene(GenConfig(seed=3)), PerturbConfig(gps_shift=2.5, seed=3))
amat = distance_assoc_matrix(scene)
cid = amat.centerline_ids[0]
row = ", ".join(f"road {r}: {p:.3f}" for r, p in zip(amat.road_ids, amat.rows_for([cid])[0]))
print(f"\nassociation matrix is {amat.n_centerlines} x {amat.n_roads}; "
      f"row for centerline {cid}: {row}")
