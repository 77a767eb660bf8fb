"""Label stacks: annotations re-ordered by VAT, drawn as stacked bars.

Contiguous chunks of one colour show where same-label recordings sit next
to each other on the ordering; a colour scattered through the stack marks a
class with high intra-class variation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError
from .matrix import check_permutation

# SVG layout, in pixels: the label bar, one record's height, the link
# distance profile beside the bar, and the legend to its right.
BAR_WIDTH = 48
PX_PER_RECORD = 3.0
PROFILE_WIDTH = 120
LEGEND_WIDTH = 170


@dataclass(frozen=True)
class LabelStack:
    order: np.ndarray  # the record indices in VAT order
    labels: tuple  # in VAT order
    runs: tuple    # ((label, length), ...), adjacent labels distinct
    colors: dict   # label -> "#rrggbb"

    @property
    def run_count(self) -> int:
        return len(self.runs)

    @property
    def mean_run_length(self) -> float:
        return len(self.labels) / len(self.runs)

    def __len__(self):
        return len(self.labels)


def label_stack(order, labels: Sequence[str], palette: dict) -> LabelStack:
    """Permute labels by the VAT order and run-length encode them."""
    labels = list(labels)
    if not labels:  # no run: the mean run length would be 0 / 0
        raise InputError("a label stack needs at least one record")
    idx = check_permutation(order, len(labels))
    missing = sorted({lab for lab in labels if lab not in palette})
    if missing:
        raise InputError(f"palette has no colour for label(s) {missing}")
    ordered = [labels[i] for i in idx]
    runs = []
    for lab in ordered:
        if runs and runs[-1][0] == lab:
            runs[-1][1] += 1
        else:
            runs.append([lab, 1])
    return LabelStack(
        order=idx,
        labels=tuple(ordered),
        runs=tuple((lab, length) for lab, length in runs),
        colors={lab: palette[lab] for lab in sorted(set(ordered))},
    )


def stack_csv(stack: LabelStack) -> str:
    """CSV of the stack: position, original record index, label."""
    lines = ["position,record,label"]
    for pos, (rec, lab) in enumerate(zip(stack.order, stack.labels)):
        lines.append(f"{pos},{int(rec)},{lab}")
    return "\n".join(lines) + "\n"


def stack_svg(stack: LabelStack, link_dist) -> str:
    """Render the stack as a standalone SVG string.

    One rectangle per run, top to bottom in VAT order; the per-record MST
    link distances are drawn beside the bar as a horizontal profile, and a
    legend names the colours.  Output is deterministic.
    """
    n = len(stack)
    link = np.asarray(link_dist, dtype=np.float64)
    if link.shape[0] != n:
        raise InputError(
            f"link_dist length {link.shape[0]} does not match stack size {n}"
        )
    height = n * PX_PER_RECORD
    width = BAR_WIDTH + PROFILE_WIDTH + LEGEND_WIDTH + 20

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">'
    ]

    y = 0.0
    for lab, length in stack.runs:
        h = length * PX_PER_RECORD
        parts.append(
            f'<rect x="0" y="{y:.2f}" width="{BAR_WIDTH}" height="{h:.2f}" '
            f'fill="{stack.colors[lab]}"><title>{lab} ({length})</title></rect>'
        )
        y += h

    peak = link.max() if link.size and link.max() > 0 else 1.0
    x0 = BAR_WIDTH + 10
    for i, v in enumerate(link):
        bar = PROFILE_WIDTH * float(v) / peak
        parts.append(
            f'<rect x="{x0}" y="{i * PX_PER_RECORD:.2f}" '
            f'width="{bar:.2f}" height="{PX_PER_RECORD:.2f}" fill="#444444"/>'
        )

    lx = BAR_WIDTH + PROFILE_WIDTH + 20
    for i, lab in enumerate(sorted(stack.colors)):
        ly = 4 + i * 16
        parts.append(
            f'<rect x="{lx}" y="{ly}" width="12" height="12" '
            f'fill="{stack.colors[lab]}"/>'
        )
        parts.append(
            f'<text x="{lx + 16}" y="{ly + 10}" font-size="11" '
            f'font-family="sans-serif">{lab}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
