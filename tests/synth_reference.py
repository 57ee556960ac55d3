"""Reference frame renderer: the per-wave loop `render_ride_frames` replaced.

Each frame sums 48 full-frame cosine fields, one plane wave at a time, on a
pixel meshgrid magnified about the focus. It draws the same random waves in
the same order as `cyclerisk.synth.render_ride_frames`, so the two must agree
byte for byte; it shares no helper with the code it checks.
"""

import numpy as np


def reference_render_ride_frames(dims, n_frames, seed=0, zoom=1.002, focus=None):
    """List of (index, uint8 frame), summed wave by wave over the pixel grid."""
    w, h = dims
    rng = np.random.default_rng(seed)
    n_waves = 48
    lam = np.exp(rng.uniform(np.log(6.0), np.log(40.0), n_waves))
    theta = rng.uniform(0.0, 2.0 * np.pi, n_waves)
    kvec = (2.0 * np.pi / lam)[:, None] * np.stack(
        [np.cos(theta), np.sin(theta)], axis=1)
    phase = rng.uniform(0.0, 2.0 * np.pi, n_waves)
    amp = rng.uniform(0.5, 1.0, n_waves)
    if focus is None:
        focus = (w / 2.0 + rng.uniform(-0.08, 0.08) * w,
                 h / 2.0 + rng.uniform(-0.08, 0.08) * h)
    fx, fy = float(focus[0]), float(focus[1])

    X, Y = np.meshgrid(np.arange(w, dtype=np.float64),
                       np.arange(h, dtype=np.float64))
    denom = 3.5 * np.sqrt(0.5 * (amp ** 2).sum())
    frames = []
    for k in range(n_frames):
        s = zoom ** k
        U = fx + (X - fx) / s
        V = fy + (Y - fy) / s
        field = np.zeros((h, w))
        for m in range(n_waves):
            field += amp[m] * np.cos(kvec[m, 0] * U + kvec[m, 1] * V + phase[m])
        img = np.clip(127.5 + 127.5 * field / denom, 0.0, 255.0)
        frames.append((k, img.astype(np.uint8)))
    return frames
