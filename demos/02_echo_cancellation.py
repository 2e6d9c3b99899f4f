"""A miniature echo canceller: identify an unknown sparse echo path.

White noise plays through an unknown 256-tap system; the adaptive filter
only sees the input and the noisy output (30 dB SNR) and has to match the
system.  We track how fast the normalized misalignment falls for a plain
affine projection update versus the block-sparse proportionate one.
"""

import numpy as np

from bspapa import (
    AdaptiveFilter,
    FilterConfig,
    gen_excitation,
    make_block_sparse_ir,
    misalignment_db,
    scale_noise_for_snr,
)

L, SAMPLES = 256, 6000
echo_path = make_block_sparse_ir(L, [(65, 80)], seed=8)
x = gen_excitation(SAMPLES, seed=9, kind="white")
clean = np.convolve(echo_path.taps, x)[: x.size]
d = clean + scale_noise_for_snr(clean, 30.0, seed=10)

filters = {
    "APA": AdaptiveFilter(FilterConfig("apa", L, 4, step_size=0.25)),
    "BS-PAPA(P=16)": AdaptiveFilter(FilterConfig("bs-papa", L, 4, 16, step_size=0.25)),
}

milestones = (-10.0, -20.0, -25.0)
reached = {name: dict.fromkeys(milestones) for name in filters}
for n in range(SAMPLES):
    for name, filt in filters.items():
        filt.process(x[n], d[n])
        level = misalignment_db(echo_path.taps, filt.weights)
        for m in milestones:
            if reached[name][m] is None and level <= m:
                reached[name][m] = n

print(f"echo path: {L} taps, 16-tap cluster, SNR 30 dB, projection order 4")
print(f"{'filter':>14s}" + "".join(f"{f'to {m:.0f} dB':>12s}" for m in milestones))
for name, marks in reached.items():
    cells = "".join(f"{str(marks[m]):>12s}" for m in milestones)
    print(f"{name:>14s}{cells}")
print()
for name, filt in filters.items():
    print(f"{name}: final misalignment {misalignment_db(echo_path.taps, filt.weights):.1f} dB")
