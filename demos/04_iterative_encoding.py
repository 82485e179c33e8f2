"""Drive the encode-model-allocate loop until no quantizer moves.

Models are only as good as the encodes they were fitted on, and encodes
depend on the rates the models suggested. The loop alternates the two:
encode at the current targets, refit the models, re-solve the
allocation, and stop once no quantizer moves. One rule commits every
frame. A frame whose quantizer holds, or moves by at most 3 steps from a
model fitted on a pair of encodes, is offered that model: it is encoded
once at its predicted quantizer, and when that encode confirms the
prediction its model keeps its exponent while the scale is rescaled to
that encode (1 call, or none when it holds and its reference frame did
not change either). The "1-call" column counts those frames per pass.
Any other frame is searched, and refit from its committed encode and the
neighbouring quantizer on the far side of its target (2 encoder calls
when the search starts next to the answer).

Moving one frame's quantizer changes the reference of the frame after
it. From the second pass on, each frame carries a reference elasticity,
the change of its log model SSE per unit change of its reference's log
SSE (the "elast." column is its mean). Before a re-encode the allocation
is repeated a few times against models corrected for the references the
frames are predicted to see, which costs no encoder calls and saves
passes.
"""

from lfalloc import (
    FrameCoord,
    MockEncoder,
    MockEncoderConfig,
    run_to_convergence,
    spiral_order,
    unify_weights,
)

# A 5x5 light field on the mock encoder. Reference coupling (gamma > 0)
# makes each frame's distortion depend on how well its reference frame
# was coded, which is exactly what forces the loop to iterate.
width = height = 5
frame_params = {}
for u in range(width):
    for v in range(height):
        alpha = 3e7 * (1.0 + 0.04 * (((u * 7 + v * 3) % 5) - 2) / 2.0)
        beta = -(0.28 + 0.003 * (((u + 2 * v) % 4) - 1.5))
        frame_params[FrameCoord(u, v)] = (alpha, beta)
config = MockEncoderConfig(
    frame_params=frame_params,
    qp_anchor=30,
    rate_anchor=1e6,
    dependency_gamma=0.2,
    ref_norm=2e6,
    frame_pixels=100_000,
)
raw = {
    FrameCoord(u, v): 1.0 / (1.0 + 0.04 * (abs(u - 2) + abs(v - 2)))
    for u in range(width)
    for v in range(height)
}
weights = unify_weights(raw)
grid = spiral_order(width, height)

trace = run_to_convergence(
    MockEncoder(config),
    grid,
    weights,
    budget=2e7,
    lam=5.0,
    max_iters=8,
)

print("pass  total rate     joint cost T   wPSNR (dB)  1-call  elast.")
for index, entry in enumerate(trace.entries, start=1):
    total_rate = sum(entry.rates.values())
    one_call = sum(model.sample_count == 1 for model in entry.models.values())
    elasticity = sum(entry.ref_elasticities.values()) / (len(entry.ref_elasticities) - 1)
    print(
        f"{index:4d}  {total_rate:12.0f}  {entry.cost.total:14.1f}"
        f"  {entry.wpsnr_db:10.4f}  {one_call:6d}  {elasticity:6.3f}"
    )
state = "converged" if trace.converged else "stopped unconverged"
print(f"\n{state} after {len(trace.entries)} passes")
print(f"{trace.encodes} encoder calls, {trace.cache_hits} repeats answered from the cache")

first, last = trace.entries[0], trace.entries[-1]
gain = (first.cost.total - last.cost.total) / first.cost.total
print(f"joint cost dropped {100 * gain:.1f}% against the uniform first pass")
print(f"wPSNR moved {last.wpsnr_db - first.wpsnr_db:+.4f} dB")

center, corner = FrameCoord(2, 2), FrameCoord(0, 0)
print("\nwhere the bits went (first pass -> last pass):")
for coord in (center, corner):
    print(
        f"  frame ({coord.u},{coord.v}): {first.rates[coord]:10.0f} ->"
        f" {last.rates[coord]:10.0f} bits at qp {first.qps[coord]} -> {last.qps[coord]}"
    )
