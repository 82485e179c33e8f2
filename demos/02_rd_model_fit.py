"""Fit per-frame power-law rate-distortion models from trial encodes.

Each frame's distortion follows D(R) = alpha * R^beta with beta < 0:
spend more bits, lose less. The model is fitted from a handful of trial
encodes at nearby quantizer settings, and a tangent-line expansion of
the fitted curve feeds the consistency-aware allocation step.
"""

import numpy as np

from lfalloc import (
    FrameCoord,
    MockEncoder,
    MockEncoderConfig,
    eval_model,
    fit_power_model,
    tangent_lines,
    trial_sweep,
)

# One hidden frame law the mock encoder will realize: the fit should
# recover these numbers from rate samples alone.
hidden_alpha, hidden_beta = 4.46e7, -0.261
coord = FrameCoord(0, 0)
config = MockEncoderConfig(
    frame_params={coord: (hidden_alpha, hidden_beta)},
    qp_anchor=30,
    rate_anchor=1e6,
)
encoder = MockEncoder(config)

# Five trial encodes around QP 30: the sweep never touches the output
# stream, it only samples the local rate-distortion behavior.
samples = trial_sweep(encoder, coord, center_qp=30, k=2, ref_state=0.0)
print("trial encodes around QP 30:")
for s in samples:
    print(f"  qp={s.qp:2d}  rate={s.rate:12.1f}  sse={s.sse:14.2f}")

params = fit_power_model(samples)
print("\nfitted model vs hidden law:")
print(f"  alpha: fitted {params.alpha:.6g}   hidden {hidden_alpha:.6g}")
print(f"  beta:  fitted {params.beta:.6g}  hidden {hidden_beta:.6g}")
print(f"  r_squared: {params.r_squared:.9f} over {params.sample_count} samples")

# The fitted curve predicts distortion at rates the sweep never visited.
print("\npredictions at unseen rates:")
for rate in (3e5, 6e5, 1.2e6):
    print(f"  D({rate:9.0f}) = {eval_model(params, rate):14.2f}")

# Tangent-line expansion at an operating point: the line touches the
# curve at the point and underestimates it everywhere else, which is
# what lets the allocation step treat distortion differences linearly.
expansion = 8e5
intercept, slope = tangent_lines(params.alpha, params.beta, expansion)
print(f"\ntangent line at R0 = {expansion:.0f}:")
print(f"  intercept {intercept:.4f}, slope {slope:.8f}")
for rate in (4e5, 8e5, 1.6e6):
    exact = eval_model(params, rate)
    approx = intercept + slope * rate
    print(
        f"  R={rate:9.0f}  exact {exact:12.2f}  tangent {approx:12.2f}"
        f"  gap {exact - approx:10.2f}"
    )

# Noise punishes narrow sweeps: five points spanning a 1.6x rate range
# barely pin the exponent, while a wider sweep absorbs the same noise.
rng = np.random.default_rng(7)


def noisy_fit(sweep):
    noisy = [
        type(s)(qp=s.qp, rate=s.rate, sse=s.sse * rng.lognormal(0.0, 0.05))
        for s in sweep
    ]
    return fit_power_model(noisy)


narrow = noisy_fit(samples)
wide = noisy_fit(trial_sweep(encoder, coord, center_qp=30, k=6, ref_state=0.0))
print("\nsame 5% log-normal noise, two sweep widths:")
print(
    f"  k=2 (5 points):  beta {narrow.beta:8.4f}  r_squared {narrow.r_squared:.4f}"
)
print(
    f"  k=6 (13 points): beta {wide.beta:8.4f}  r_squared {wide.r_squared:.4f}"
)
print(f"  hidden beta:     {hidden_beta:8.4f}")
