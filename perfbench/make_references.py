"""Write the committed reference traces the benchmark checks its outputs against.

Run from the repository root, on a commit whose outputs are trusted:

    python3 perfbench/make_references.py

For each workload and each seed in ``workloads.REFERENCE_SEEDS`` it runs one
rep and stores every recorded misalignment value, in full precision, in
``perfbench/references/<workload>.json``.
"""

import json

import numpy as np

import workloads

for name in workloads.WORKLOADS:
    seeds = {}
    for seed in workloads.REFERENCE_SEEDS:
        plan = workloads.build(name, seed)
        rep = workloads.run(plan)
        if rep.failures or sorted(rep.traces) != sorted(plan.labels()):
            raise SystemExit(f"{name} seed {seed}: filter runs failed: {rep.failures}")
        for label, values in rep.traces.items():
            if not np.all(np.isfinite(values)) or np.any(values <= workloads.MISALIGNMENT_FLOOR_DB):
                raise SystemExit(f"{name} seed {seed}: {label} recorded a non-finite or floor value")
        seeds[str(seed)] = {label: [float(v) for v in values] for label, values in rep.traces.items()}
    path = workloads.ROOT / "perfbench" / "references" / f"{name}.json"
    path.write_text(json.dumps({"workload": name, "seeds": seeds}) + "\n")
    print(f"wrote {path}")
