"""Define a structure in JSON, extract it, and export a SPICE netlist.

The end-to-end flow a downstream tool would script: structures as data,
reproducible extraction, reliability regularization, netlist out.

Run:  python examples/custom_structure_json.py
"""

import json
from pathlib import Path

from repro import FRWConfig, FRWSolver
from repro.analysis import to_spice_subckt
from repro.geometry import load_structure

DOCUMENT = {
    "conductors": [
        {"name": "sig_a", "boxes": [[0.0, 0.0, 1.0, 1.0, 8.0, 2.0]]},
        {"name": "sig_b", "boxes": [[2.5, 0.0, 1.0, 3.5, 8.0, 2.0]]},
        {
            # An L-shaped net drawn as two overlapping boxes: a vertical
            # arm beside sig_a and a horizontal bar south of both signals.
            "name": "shield",
            "boxes": [
                [-2.5, -3.2, 1.0, -1.5, 8.0, 2.0],
                [-2.5, -3.2, 1.0, 6.0, -2.2, 2.0],
            ],
        },
    ],
    "dielectric": {"interfaces": [0.4], "eps": [3.9, 2.7]},
    "enclosure": [-7.0, -5.0, -3.0, 8.5, 13.0, 6.5],
}


def main() -> None:
    path = Path("results")
    path.mkdir(exist_ok=True)
    doc_path = path / "custom_structure.json"
    doc_path.write_text(json.dumps(DOCUMENT, indent=1))

    structure = load_structure(doc_path)
    structure.validate(min_gap=0.2)
    print(structure.summary())

    config = FRWConfig.frw_rr(seed=99, n_threads=8, tolerance=2e-2)
    with FRWSolver(structure, config) as solver:
        result = solver.extract()
    print(result.matrix.pretty())
    print(f"reliable: {result.report.reliable}")

    netlist = to_spice_subckt(result.matrix, name="custom_block")
    sp_path = path / "custom_block.sp"
    sp_path.write_text(netlist)
    print(f"\nSPICE netlist ({sp_path}):\n{netlist}")


if __name__ == "__main__":
    main()
