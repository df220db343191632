"""Record the trombone-cli reference spectra (trombone_reference.json).

  python3 perfbench/record_reference.py

Run from the root of a checkout, with `src` on PYTHONPATH. For each input
variant of the trombone-cli workload it runs the same inputs on a grid
REFERENCE_CELLS_FACTOR times finer and stores the outlet pressure harmonic
magnitudes over the last periods, read the way `ductwave run` reads them.
The workload's ref_err is the shipped grid's error against these.
"""

import json
import math
import sys

import workloads
from ductwave import config, driver


def reference_spectrum(seed: int) -> list[float]:
    workload = workloads.WORKLOADS["trombone-cli"]
    doc = workloads.make_inputs(workload, seed,
                                cells_factor=workloads.REFERENCE_CELLS_FACTOR)
    result = driver.run(config.scenario_from_config(doc))
    period = result.scenario.fundamental_period
    _, spec = workloads.last_window(result.resampled[0], period,
                                    doc.get("output.kmax"), "p")
    return [spec.magnitude(k) for k in range(1, spec.k_max + 1)]


def main() -> int:
    table = []
    for seed in range(workloads.TROMBONE_VARIANTS):
        table.append(reference_spectrum(seed))
        print(f"variant {seed}: |p_1| = {table[-1][0]:.6g} Pa", flush=True)
    workloads.TROMBONE_REFERENCE.write_text(json.dumps({
        "about": "outlet |p_k| [Pa], k = 1..kmax, of the trombone-cli inputs"
                 f" on a grid {workloads.REFERENCE_CELLS_FACTOR}x finer,"
                 " one list per input variant (seed % variants)",
        "mag_p_Pa": table,
    }, indent=1) + "\n", encoding="utf-8")
    return 0 if all(math.isfinite(v) for row in table for v in row) else 1


if __name__ == "__main__":
    sys.exit(main())
