"""Bounding-box geometry in integer pixel coordinates."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class BBox:
    """Axis-aligned box: top-left corner plus positive width and height; a
    plain record that nothing changes once it is built and checked."""

    x: int
    y: int
    w: int
    h: int

    def __post_init__(self):
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"box needs positive size, got {self.w}x{self.h}")
        if self.x < 0 or self.y < 0:
            raise ValueError(f"box origin must be non-negative, got ({self.x}, {self.y})")

    @property
    def area(self) -> int:
        return self.w * self.h

    def intersection_area(self, other: "BBox") -> int:
        width = min(self.x + self.w, other.x + other.w) - max(self.x, other.x)
        height = min(self.y + self.h, other.y + other.h) - max(self.y, other.y)
        if width <= 0 or height <= 0:
            return 0
        return width * height


def overlap_ratio(region: BBox, obj: BBox) -> float:
    """Fraction of the object box covered by the region box, in [0, 1].

    This is intersection over the *object* area, not IoU: the question being
    answered is whether the object lies inside the region.
    """
    return region.intersection_area(obj) / obj.area
