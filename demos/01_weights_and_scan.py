"""Turn a light-field weight channel into per-frame weights and a scan order.

A light field arrives as a grid of perspective frames, each with a
per-pixel confidence map. This walks the first stage of the pipeline:
reduce each map to a frame weight, rescale the weights to a unit
maximum, and lay the frames out along the center-out spiral used as the
pseudo-temporal coding order.
"""

import numpy as np

from lfalloc import FrameCoord, frame_weight, proximity, spiral_order, unify_weights

# A 3x3 light field of 8x8 frames. The confidence maps fade with distance
# from the grid center, the way capture confidence drops off-axis.
width, height = 3, 3
raw_weights = {}
for u in range(width):
    for v in range(height):
        falloff = 1.0 / (1.0 + 0.6 * (abs(u - 1) + abs(v - 1)))
        confidence = np.full((8, 8), 200.0 * falloff)
        raw_weights[FrameCoord(u, v)] = frame_weight(confidence)

print("raw per-frame weights (mean of the confidence map):")
for coord, value in sorted(raw_weights.items()):
    print(f"  frame ({coord.u},{coord.v}): {value:.3f}")

weights = unify_weights(raw_weights)
print("\nunified weights (rescaled so the largest is 1):")
for coord, value in sorted(weights.unified.items()):
    print(f"  frame ({coord.u},{coord.v}): {value:.3f}")

# The coding order spirals out from the center frame, so the best-lit,
# most-referenced views are coded first.
grid = spiral_order(width, height)
print("\nspiral coding order:")
for index, coord in enumerate(grid.coding_order):
    print(f"  t={index}: ({coord.u},{coord.v})")

# Proximity gates which frame pairs the consistency term couples:
# it falls linearly from 3 at distance zero and hits zero at distance 3.
center = FrameCoord(1, 1)
print("\nproximity to the center frame:")
for coord in grid.coding_order:
    print(f"  ({coord.u},{coord.v}): {proximity(center, coord):.0f}")
