"""Write oracle.json: the layout-independent outputs the workloads check.

The committed file was captured from the commit that introduced this
benchmark; re-capture only when a change is meant to alter these outputs.
Run from the repository root:

    python3 perfbench/capture_oracle.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from robustlift import instances, readout  # noqa: E402


def main() -> None:
    shipped = {}
    for label, factory, t_window, eps_out, mode in workloads.SHIPPED:
        cert = readout.run_pipeline_certificate(
            getattr(instances, factory)(t_window), eps_out, mode=mode)
        shipped[label] = workloads.certificate_fields(cert)
    p_s, p_c = workloads.designed_polys()
    oracle = {
        "certify-shipped": shipped,
        "surrogate-design": {"sign": workloads.poly_fields(p_s),
                             "clip": workloads.poly_fields(p_c)},
    }
    with open(workloads.ORACLE_PATH, "w") as fh:
        json.dump(oracle, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
