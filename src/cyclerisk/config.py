"""Run configuration: nested dataclasses with strict dict/JSON round-tripping.

Each section is the parameter object of its stages: `clahe`,
`detect_corners` and `lk_flow` take a `VisionConfig`; `magnitude_weights`,
`refine_foe` and `FoeSmoother` a `FoeConfig`; `risk_descriptor` a
`RiskConfig`; `classify_risk` an `EmdConfig`; `smooth_sequence` a
`BehaviorConfig`. Sections are frozen and check their bounds on
construction (ConfigError), so a section object is valid wherever it
exists, whether a config file, `--set` or library code built it.
Unknown keys are rejected rather than ignored so a typo in a config file
fails loudly instead of silently running on defaults.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .errors import ConfigError


def _build(cls, data: dict, where: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected an object, got {type(data).__name__}")
    allowed = {f.name for f in fields(cls)}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")
    kwargs = {}
    for f in fields(cls):
        if f.name not in data:
            continue
        v = data[f.name]
        # tuples arrive from JSON as lists
        if isinstance(v, list):
            v = tuple(v)
        kwargs[f.name] = v
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


# the largest integer a key or grid entry may hold: a stage stores it in a C
# integer, and a grid's cell index (row * cols + col) stays within int64
INT_MAX = 2**31 - 1


def _is_int(v) -> bool:
    """An integer (not a bool) of at most INT_MAX."""
    return (not isinstance(v, bool) and isinstance(v, numbers.Integral)
            and v <= INT_MAX)


def _check_ints(section) -> None:
    """Every field declared `int` must hold an integer (not a bool) of at
    most INT_MAX."""
    for f in fields(section):
        v = getattr(section, f.name)
        if f.type == "int" and not _is_int(v):
            raise ConfigError(f"{f.name} must be an integer <= {INT_MAX}, got {v!r}")


def _check_finite(name: str, value, strict: bool) -> None:
    """value must be a finite float and > 0 (strict) or >= 0; NaN fails both,
    and so does an integer too large for a float."""
    if not ((0.0 < value if strict else 0.0 <= value)
            and value <= sys.float_info.max):
        bound = "> 0" if strict else ">= 0"
        raise ConfigError(f"{name} must be finite and {bound}, got {value}")


def usable_bandwidth(bw: float) -> bool:
    """> 0, with the smoother's and the kernel's 2 * bw**2 finite and not 0."""
    try:
        return 0.0 < bw and 0.0 < 2.0 * float(bw) ** 2 < math.inf
    except OverflowError:
        return False


def _check_grid(name: str, grid) -> None:
    """A grid is two integers (not bools) in [1, INT_MAX]."""
    if len(grid) != 2 or not all(_is_int(v) for v in grid) or min(grid) < 1:
        raise ConfigError(f"{name} must be two integers in [1, {INT_MAX}], got {grid}")


@dataclass(frozen=True)
class VisionConfig:
    clahe_grid: tuple[int, int] = (4, 4)
    clahe_clip: float = 0.03
    corner_grid: tuple[int, int] = (4, 4)
    corner_max_per_cell: int = 8
    corner_quality: float = 0.01
    lk_window: int = 35
    lk_levels: int = 1
    frame_stride: int = 5

    def __post_init__(self) -> None:
        _check_ints(self)
        _check_grid("clahe_grid", self.clahe_grid)
        if not 0.0 < self.clahe_clip <= 1.0:
            raise ConfigError(f"clahe_clip must be in (0, 1], got {self.clahe_clip}")
        _check_grid("corner_grid", self.corner_grid)
        if self.corner_max_per_cell < 1:
            raise ConfigError("corner_max_per_cell must be >= 1")
        if not 0.0 < self.corner_quality <= 1.0:
            raise ConfigError("corner_quality must be in (0, 1]")
        if self.lk_window < 3 or self.lk_window % 2 == 0:
            raise ConfigError("lk_window must be an odd number >= 3")
        if self.lk_levels < 1:
            raise ConfigError("lk_levels must be >= 1")
        if self.frame_stride < 1:
            raise ConfigError("frame_stride must be >= 1")


@dataclass(frozen=True)
class FoeConfig:
    delta: float = 1.0
    tol: float = 1.0
    angle_thresh: float = 30.0
    max_refine_iters: int = 10
    min_flows: int = 8
    ring_radii: tuple[float, float, float] = (0.15, 0.30, 0.50)
    smooth_window: int = 5
    smooth_decay: float = 0.5

    def __post_init__(self) -> None:
        _check_ints(self)
        _check_finite("delta", self.delta, strict=True)
        _check_finite("tol", self.tol, strict=True)
        if not 0.0 < self.angle_thresh < 90.0:
            raise ConfigError("angle_thresh must be in (0, 90) degrees")
        if self.max_refine_iters < 1:
            raise ConfigError("max_refine_iters must be >= 1")
        if self.min_flows < 3:
            raise ConfigError("min_flows must be >= 3")
        r = self.ring_radii
        if len(r) != 3 or not (0 < r[0] < r[1] < r[2] < math.inf):
            raise ConfigError(f"ring_radii must be 3 increasing finite values, got {r}")
        if self.smooth_window < 1:
            raise ConfigError("smooth_window must be >= 1")
        _check_finite("smooth_decay", self.smooth_decay, strict=False)


@dataclass(frozen=True)
class RiskConfig:
    footprint_frac: float = 0.2
    footprint_min_px: float = 10.0

    def __post_init__(self) -> None:
        if not 0.0 < self.footprint_frac <= 1.0:
            raise ConfigError("footprint_frac must be in (0, 1]")
        _check_finite("footprint_min_px", self.footprint_min_px, strict=False)


@dataclass(frozen=True)
class EmdConfig:
    cross_factor: float = 2.0
    k: int = 5

    def __post_init__(self) -> None:
        _check_ints(self)
        if not 1.0 <= self.cross_factor < math.inf:
            raise ConfigError(
                f"cross_factor must be finite and >= 1, got {self.cross_factor}")
        if self.k < 1:
            raise ConfigError("k must be >= 1")


@dataclass(frozen=True)
class BehaviorConfig:
    C: float = 1.0
    kernel: str = "linear"
    bandwidth: float | None = None
    smooth_window: int = 10
    smooth_decay: float = 0.5

    def __post_init__(self) -> None:
        _check_ints(self)
        _check_finite("C", self.C, strict=True)
        if self.kernel not in ("linear", "poly2", "poly3", "gaussian"):
            raise ConfigError(f"unknown kernel {self.kernel!r}")
        if not (self.bandwidth is None or usable_bandwidth(self.bandwidth)):
            raise ConfigError("bandwidth must be > 0 with 2 * bandwidth**2 "
                              f"finite and not 0, got {self.bandwidth}")
        if self.smooth_window < 1:
            raise ConfigError("smooth_window must be >= 1")
        _check_finite("smooth_decay", self.smooth_decay, strict=False)


_SECTIONS = {"vision": VisionConfig, "foe": FoeConfig, "risk": RiskConfig,
             "emd": EmdConfig, "behavior": BehaviorConfig}


@dataclass(frozen=True)
class PipelineConfig:
    vision: VisionConfig = field(default_factory=VisionConfig)
    foe: FoeConfig = field(default_factory=FoeConfig)
    risk: RiskConfig = field(default_factory=RiskConfig)
    emd: EmdConfig = field(default_factory=EmdConfig)
    behavior: BehaviorConfig = field(default_factory=BehaviorConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        _check_ints(self)
        if self.seed < 0:   # numpy's generators take none
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        if not isinstance(data, dict):
            raise ConfigError("config root must be an object")
        unknown = set(data) - set(_SECTIONS) - {"seed"}
        if unknown:
            raise ConfigError(f"unknown config key(s) {sorted(unknown)}")
        kwargs = {}
        for name, sub in _SECTIONS.items():
            if name in data:
                kwargs[name] = _build(sub, data[name], name)
        if "seed" in data:
            kwargs["seed"] = data["seed"]
        return cls(**kwargs)


def load_config(path) -> PipelineConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except OSError as exc:   # a directory, or a file it may not read
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason}")
    # an integer too long to parse, or arrays or objects nested too deep
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{path}: unparsable JSON: {exc}")
    return PipelineConfig.from_dict(data)


def apply_overrides(cfg: PipelineConfig, assignments) -> PipelineConfig:
    """Apply dotted key=value overrides (e.g. "vision.lk_window=21").

    Values parse as JSON where possible, falling back to raw strings, so
    numbers, booleans, null, and lists all work from the command line.
    """
    data = cfg.to_dict()
    for item in assignments:
        key, sep, text = item.partition("=")
        if not sep:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"override {key.strip()!r}: unparsable value: {exc}")
        parts = key.strip().split(".")
        if parts == ["seed"]:
            data["seed"] = value
        elif len(parts) == 2 and parts[0] in _SECTIONS:
            data[parts[0]][parts[1]] = value
        else:
            raise ConfigError(f"unknown override target {key!r}")
    return PipelineConfig.from_dict(data)
