"""Edge assignments: nowhere-zero integer values indexed by edge order.

One type plays three roles, distinguished by a kind tag: signs (all values
in {-1, +1}), weights (arbitrary nonzero integers) and flow values.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidAssignmentError
from .graph_core import Graph

KINDS = ("sign", "weight", "flow")


@dataclass(frozen=True)
class EdgeAssignment:
    """Map from edge index to a nonzero integer, stored positionally."""

    values: tuple[int, ...]
    kind: str = "weight"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidAssignmentError(f"unknown assignment kind {self.kind!r}")
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))
        for i, v in enumerate(self.values):
            if v == 0:
                raise InvalidAssignmentError(f"zero value at edge {i}")
            if self.kind == "sign" and v not in (-1, 1):
                raise InvalidAssignmentError(f"sign value at edge {i} must be +-1, got {v}")

    def check_domain(self, g: Graph) -> None:
        if len(self.values) != g.m:
            raise InvalidAssignmentError(
                f"assignment covers {len(self.values)} edges, graph has {g.m}")

    def max_abs(self) -> int:
        return max((abs(v) for v in self.values), default=0)
