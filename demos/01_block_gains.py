"""Where the adaptation energy goes: proportionate gains on a clustered system.

A block-sparse weight vector concentrates its energy in a few contiguous
clusters.  Per-tap proportionate rules see isolated large coefficients;
block rules see whole active groups.  This script prints, for several
group sizes, how strongly the gains favor the active region over the
quiet one, which is exactly the mechanism that speeds up convergence for
clustered systems.
"""

import numpy as np

from bspapa import FilterConfig, StallGuards, make_block_sparse_ir, variant_gains

L = 256
ir = make_block_sparse_ir(L, [(65, 96)], seed=4)  # one 32-tap cluster
guards = StallGuards(rho=0.01, q=0.01)

active = ir.support_mask()
print(f"system: {L} taps, active cluster at taps 65..96")
print(f"{'group size':>10s} {'blocks':>7s} {'mean gain (active taps)':>24s} {'mean gain (quiet taps)':>23s}")
for group in (1, 8, 32, 64, 256):
    config = FilterConfig("bs-papa", L, group_size=group, guards=guards)
    gains = variant_gains(config, ir.taps).expand()
    print(
        f"{group:>10d} {L // group:>7d} {gains[active].mean():>24.3f} {gains[~active].mean():>23.4f}"
    )

print()
print("group size 32 matches the cluster width, so the whole adaptation")
print("budget lands on one block; per-tap gains (group size 1) still spread")
print("a rho-floored share over every quiet tap, and a single full-length")
print("block (group size 256) is just the uniform update.")
