"""Space descriptions: the in-memory config object and its JSON file format.

A space is described by its breakpoints, one section family per interval,
and the interior smoothness orders (the two end entries are always ``-1``
and are implicit in the file format)::

    {
      "breakpoints": [0.0, 1.0, 2.5, 5.0],
      "sections": [
        {"family": "polynomial", "degree": 2},
        {"family": "trigonometric", "degree": 3, "omega": 1.5707963267948966},
        {"family": "exponential", "degree": 4, "omega": 10.0}
      ],
      "smoothness": [2, 2],
      "control_points": [[...], ...]        // optional, N x d
    }

Generalized-polynomial sections with user-supplied callables are available
through the Python API only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .sections import (
    _KINDS,
    ExponentialFamily,
    PolynomialFamily,
    SectionFamily,
    TrigonometricFamily,
    _each,
    _family_kind,
    _integer,
    _number,
    _numbers,
)

__all__ = [
    "SpaceConfig",
    "family_from_dict",
    "family_to_dict",
    "mixed_family_demo_config",
    "conic_profile_demo_config",
]


def family_from_dict(d: dict) -> SectionFamily:
    try:
        kind = d["family"]
        degree = _integer(d["degree"], "section degree", ConfigError)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed section entry {d!r}") from exc
    cls = next((f for k, f in _KINDS if k == kind), None)
    if cls is None:
        raise ConfigError(f"unknown section family {kind!r}")
    if kind == "polynomial":
        return cls(degree)
    if "omega" not in d:
        raise ConfigError(f"section {d!r} needs an omega parameter")
    return cls(degree, _number(d["omega"], "section omega", ConfigError))


def family_to_dict(family: SectionFamily) -> dict:
    kind = _family_kind(family)
    if kind == "custom":
        raise ConfigError(f"family {family!r} has no file representation")
    omega = {} if kind == "polynomial" else {"omega": family.omega}
    return {"family": kind, "degree": family.degree, **omega}


def _family(value, what: str, error: type[Exception]) -> SectionFamily:
    """``value`` if it is a section family; anything else raises ``error``."""
    if isinstance(value, SectionFamily):
        return value
    raise error(f"{what} must be a section family, got {value!r}")


def _control_net(values, name: str) -> np.ndarray:
    """``values`` as rows of finite numbers; anything else raises ConfigError."""
    net = np.atleast_2d(_numbers(values, f"{name} must be rows of numbers", ConfigError))
    if not np.isfinite(net).all():
        raise ConfigError("control net must be rows of finite numbers")
    return net


@dataclass(eq=False)
class SpaceConfig:
    """Description of one spline space, optionally with control points.

    ``smoothness`` lists the interior orders only; the implicit ``-1`` end
    entries are added by :attr:`full_smoothness`.
    """

    breakpoints: list[float]
    sections: list[SectionFamily]
    smoothness: list[int]
    control_points: np.ndarray | None = field(default=None)

    def __post_init__(self):
        self.breakpoints = _each(_number, self.breakpoints, "breakpoint", ConfigError)
        self.sections = _each(_family, self.sections, "section", ConfigError)
        self.smoothness = _each(_integer, self.smoothness, "smoothness", ConfigError)
        if self.control_points is not None:
            self.control_points = _control_net(self.control_points, "control points")
        m = len(self.breakpoints) - 1
        if m < 1:
            raise ConfigError("need at least two breakpoints")
        if len(self.sections) != m:
            raise ConfigError(f"{m} intervals but {len(self.sections)} section entries")
        if len(self.smoothness) != m - 1:
            raise ConfigError(
                f"{m - 1} interior breakpoints but {len(self.smoothness)} smoothness entries"
            )

    @property
    def full_smoothness(self) -> tuple[int, ...]:
        return (-1, *self.smoothness, -1)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(s.degree for s in self.sections)

    @classmethod
    def from_dict(cls, d: dict) -> "SpaceConfig":
        try:
            breakpoints, smoothness = d["breakpoints"], d["smoothness"]
            sections = [family_from_dict(s) for s in d["sections"]]
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed space description: {exc}") from exc
        return cls(breakpoints, sections, smoothness, d.get("control_points"))

    @classmethod
    def from_json_file(cls, path) -> "SpaceConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        d = {
            "breakpoints": list(self.breakpoints),
            "sections": [family_to_dict(s) for s in self.sections],
            "smoothness": list(self.smoothness),
        }
        if self.control_points is not None:
            d["control_points"] = self.control_points.tolist()
        return d


def mixed_family_demo_config(smoothness: tuple[int, int] = (2, 2)) -> SpaceConfig:
    """Mixed-family demo space: a quadratic, a trigonometric cubic, and a
    stiff exponential quartic on ``{0, 1, 5/2, 5}``."""
    return SpaceConfig(
        breakpoints=[0.0, 1.0, 2.5, 5.0],
        sections=[
            PolynomialFamily(2),
            TrigonometricFamily(3, math.pi / 2.0),
            ExponentialFamily(4, 10.0),
        ],
        smoothness=list(smoothness),
    )


def conic_profile_demo_config() -> SpaceConfig:
    """C^1 conic-profile demo curve: a unit circular arc centered at (2, 0),
    a straight segment, and a radius-2 arc centered at (0, 3), parameterized
    by arc length on the arcs."""
    s = math.sqrt(2.0)
    return SpaceConfig(
        breakpoints=[-3.0 * math.pi / 4.0, 0.0, 2.0, 2.0 + math.pi],
        sections=[
            TrigonometricFamily(2, 1.0),
            PolynomialFamily(1),
            TrigonometricFamily(2, 0.5),
        ],
        smoothness=[1, 1],
        control_points=np.array(
            [
                [2.0 + s / 2.0, -s / 2.0],
                [3.0 + s, 1.0],
                [-2.0, 1.0],
                [-2.0, 3.0],
            ]
        ),
    )
