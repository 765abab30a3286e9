"""Table I row formatting and the paper's reference numbers.

:data:`PAPER_TABLE1` transcribes the paper's Table I so benchmarks can
print paper-vs-measured side by side.  FLOPs values are
absolute (the paper's scientific-notation entries); accuracies in percent.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

__all__ = ["TableRow", "PAPER_TABLE1", "format_table"]


@dataclasses.dataclass
class TableRow:
    """One row of a Table I-style comparison."""

    model: str
    method: str
    baseline_accuracy: float  # percent
    final_accuracy: float  # percent
    baseline_flops: Optional[float] = None
    final_flops: Optional[float] = None
    flops_reduction_pct: Optional[float] = None

    @property
    def accuracy_drop(self) -> float:
        return self.baseline_accuracy - self.final_accuracy

    def reduction(self) -> float:
        if self.flops_reduction_pct is not None:
            return self.flops_reduction_pct
        if self.baseline_flops and self.final_flops is not None:
            return 100.0 * (1.0 - self.final_flops / self.baseline_flops)
        raise ValueError("row carries no FLOPs information")


# The paper's Table I (rows marked * are quoted there from [20], [21]).
PAPER_TABLE1: Dict[str, List[TableRow]] = {
    "VGG16 (CIFAR10)": [
        TableRow("VGG16 (CIFAR10)", "L1 Pruning", 93.3, 93.4, None, 2.06e8, 34.2),
        TableRow("VGG16 (CIFAR10)", "Taylor Pruning", 93.3, 92.3, None, 1.85e8, 44.1),
        TableRow("VGG16 (CIFAR10)", "GM Pruning", 93.6, 93.2, None, 2.11e8, 35.9),
        TableRow("VGG16 (CIFAR10)", "FO Pruning", 93.4, 93.3, None, 1.85e8, 44.1),
        TableRow("VGG16 (CIFAR10)", "Proposed", 93.3, 93.1, 3.13e8, 1.46e8, 53.5),
    ],
    "ResNet56 (CIFAR10)": [
        TableRow("ResNet56 (CIFAR10)", "L1 Pruning", 93.0, 93.1, None, 0.91e8, 27.6),
        TableRow("ResNet56 (CIFAR10)", "Taylor Pruning", 92.9, 92.0, None, 0.71e8, 43.0),
        TableRow("ResNet56 (CIFAR10)", "FO Pruning", 92.9, 93.3, None, 0.71e8, 43.0),
        TableRow("ResNet56 (CIFAR10)", "Proposed", 93.0, 93.2, 1.28e8, 0.80e8, 37.4),
    ],
    "VGG16 (CIFAR100)": [
        TableRow("VGG16 (CIFAR100)", "L1 Pruning", 73.1, 72.3, None, 1.96e8, 37.3),
        TableRow("VGG16 (CIFAR100)", "Taylor Pruning", 73.1, 72.5, None, 1.96e8, 37.3),
        TableRow("VGG16 (CIFAR100)", "FO Pruning", 73.1, 73.2, None, 1.96e8, 37.3),
        TableRow("VGG16 (CIFAR100)", "Proposed: Setting-1", 73.1, 73.2, 3.13e8, 1.87e8, 40.4),
        TableRow("VGG16 (CIFAR100)", "Proposed: Setting-2", 73.1, 72.9, 3.13e8, 1.72e8, 44.9),
    ],
    "VGG16 (ImageNet100)": [
        TableRow("VGG16 (ImageNet100)", "L1 Pruning", 78.5, 76.6, None, 0.76e10, 50.6),
        TableRow("VGG16 (ImageNet100)", "Taylor Pruning", 78.5, 77.3, None, 0.76e10, 50.6),
        TableRow("VGG16 (ImageNet100)", "FO Pruning", 78.5, 79.5, None, 0.76e10, 50.6),
        TableRow("VGG16 (ImageNet100)", "Proposed: Setting-1", 78.5, 79.6, 1.52e10, 0.74e10, 51.2),
        TableRow("VGG16 (ImageNet100)", "Proposed: Setting-2", 78.5, 79.4, 1.52e10, 0.69e10, 54.5),
    ],
}


def format_table(rows: List[TableRow], title: str = "") -> str:
    """Render rows in the paper's Table I column layout."""
    header = (
        f"{'Method':<24} {'Base Acc(%)':>11} {'Final Acc(%)':>12} "
        f"{'Acc Drop(%)':>11} {'FLOPs Red.(%)':>13}"
    )
    lines = [title, header, "-" * len(header)] if title else [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.method:<24} {row.baseline_accuracy:>11.1f} {row.final_accuracy:>12.1f} "
            f"{row.accuracy_drop:>11.1f} {row.reduction():>13.1f}"
        )
    return "\n".join(lines)
