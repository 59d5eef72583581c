"""Fig. 2 — cross-section view of example random walks.

Traces a handful of walks on a case and renders an SVG cross-section
(x-z projection): conductors as filled rectangles, the Gaussian surface as
a dashed outline, walk paths as polylines ending at their absorbing
conductor.  Pure-SVG output — no plotting dependency.
"""

from __future__ import annotations

from pathlib import Path

from ..frw import build_context, trace_walks
from ..structures import build_case
from .common import (
    RESULTS_DIR,
    ExperimentRecord,
    Stopwatch,
    environment_info,
    paper_config,
)

_COLORS = ("#c03030", "#3060c0", "#30a050", "#a07020", "#8040a0", "#108090")


def render_svg(structure, traces, surface, width: int = 720) -> str:
    """Render the x-z projection of the structure and walk paths."""
    enc = structure.enclosure
    x0, x1 = enc.lo[0], enc.hi[0]
    z0, z1 = enc.lo[2], enc.hi[2]
    scale = width / (x1 - x0)
    height = int((z1 - z0) * scale)

    def sx(x: float) -> float:
        return (x - x0) * scale

    def sz(z: float) -> float:
        return height - (z - z0) * scale  # SVG y grows downward

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" '
        'fill="#fafaf5" stroke="#333"/>',
    ]
    for cond in structure.conductors:
        for box in cond.boxes:
            parts.append(
                f'<rect x="{sx(box.lo[0]):.1f}" y="{sz(box.hi[2]):.1f}" '
                f'width="{(box.hi[0] - box.lo[0]) * scale:.1f}" '
                f'height="{(box.hi[2] - box.lo[2]) * scale:.1f}" '
                'fill="#c8b878" stroke="#555"/>'
            )
    # Gaussian surface: dashed outline of the offset boxes of the master.
    for patch in surface.patches:
        if patch.axis == 1:
            continue  # faces normal to y project onto lines we skip
        if patch.axis == 0:
            x_line = patch.coord
            parts.append(
                f'<line x1="{sx(x_line):.1f}" y1="{sz(patch.rect.y0):.1f}" '
                f'x2="{sx(x_line):.1f}" y2="{sz(patch.rect.y1):.1f}" '
                'stroke="#888" stroke-dasharray="5,4"/>'
            )
        else:
            z_line = patch.coord
            parts.append(
                f'<line x1="{sx(patch.rect.x0):.1f}" y1="{sz(z_line):.1f}" '
                f'x2="{sx(patch.rect.x1):.1f}" y2="{sz(z_line):.1f}" '
                'stroke="#888" stroke-dasharray="5,4"/>'
            )
    for k, trace in enumerate(traces):
        color = _COLORS[k % len(_COLORS)]
        points = " ".join(
            f"{sx(p[0]):.1f},{sz(p[2]):.1f}" for p in trace.positions
        )
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" '
            'stroke-width="1.2"/>'
        )
        end = trace.positions[-1]
        parts.append(
            f'<circle cx="{sx(end[0]):.1f}" cy="{sz(end[2]):.1f}" r="3" '
            f'fill="{color}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def run(
    case: int = 1,
    profile: str = "fast",
    n_walks: int = 6,
    master: int = 0,
    seed: int = 3,
    output: Path | str | None = None,
) -> ExperimentRecord:
    """Trace walks and write the Fig. 2 SVG."""
    structure = build_case(case, profile)
    cfg = paper_config("frw-r", seed=seed)
    with Stopwatch() as sw:
        ctx = build_context(structure, master, cfg)
        traces = trace_walks(ctx, list(range(n_walks)))
        svg = render_svg(structure, traces, ctx.surface)
    out_path = Path(output) if output else RESULTS_DIR / f"fig2_case{case}.svg"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(svg)
    rows = [
        [t.uid, t.n_hops, structure.names[t.dest], f"{t.omega:.4g}"]
        for t in traces
    ]
    record = ExperimentRecord(
        experiment=f"fig2_case{case}",
        params={"case": case, "profile": profile, "n_walks": n_walks, "seed": seed},
        headers=["walk", "hops", "absorbed on", "omega (fF)"],
        rows=rows,
        notes=[f"SVG written to {out_path}"],
        elapsed_seconds=sw.elapsed,
        environment=environment_info(),
    )
    return record


def main(case: int = 1) -> None:
    """Trace walks and report their outcomes."""
    from ..analysis.tables import format_table

    record = run(case=case)
    print(format_table(record.headers, record.rows, title="FIG. 2 — example walks"))
    for note in record.notes:
        print(note)
    record.save()


if __name__ == "__main__":
    main()
