"""Run configuration: defaults, config-file parsing, flag overrides.

The config file is flat ``key = value`` text (TOML-style scalars):
integers, floats, booleans ``true``/``false``, double-quoted strings,
``none`` for optional integers, and ``["a", "b"]`` string lists.  Lines
starting with ``#`` (or blank) are skipped; ``#`` also starts a trailing
comment outside quotes.  Precedence is flags > file > defaults.

Schema (all keys optional):

    seed, threads, max_gap                      integers
    t1, t2, step, stride                        integers
    include_shape                               boolean
    drop_labels                                 list of collective labels
    alpha, speed_threshold                      smoothing (floats)
    sigma_rho, sigma_theta, k_s                 kernel widths (floats)
    l_max, grid_samples                         integers
    assignment                                  "kde" or "hard"
    variance_denominator                        boolean
    interaction_trees, collective_trees         integers
    interaction_max_depth, collective_max_depth integers or none
    interaction_min_samples_split,
    collective_min_samples_split                integers
    interaction_features_per_split,
    collective_features_per_split               integers or none
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .cbd import CollectiveLabel
from .errors import InvalidConfig
from .evaluate import PipelineConfig, cue_columns
from .forest import ForestConfig
from .pid import PidConfig
from .trajectory import DEFAULT_MAX_GAP, SmoothingConfig

_INT_KEYS = (
    "seed",
    "threads",
    "max_gap",
    "t1",
    "t2",
    "step",
    "stride",
    "l_max",
    "grid_samples",
    "interaction_trees",
    "collective_trees",
    "interaction_min_samples_split",
    "collective_min_samples_split",
)
_OPT_INT_KEYS = (
    "interaction_max_depth",
    "collective_max_depth",
    "interaction_features_per_split",
    "collective_features_per_split",
)
_FLOAT_KEYS = ("alpha", "speed_threshold", "sigma_rho", "sigma_theta", "k_s")
_BOOL_KEYS = ("include_shape", "variance_denominator")
_STR_KEYS = ("assignment",)
_LIST_KEYS = ("drop_labels",)
ALL_KEYS = _INT_KEYS + _OPT_INT_KEYS + _FLOAT_KEYS + _BOOL_KEYS + _STR_KEYS + _LIST_KEYS


@dataclass(frozen=True)
class RunConfig:
    """Validated bag of every knob the pipeline commands accept."""

    smoothing: SmoothingConfig = field(default_factory=SmoothingConfig)
    pid: PidConfig = field(default_factory=PidConfig)
    interaction_forest: ForestConfig = field(default_factory=ForestConfig)
    collective_forest: ForestConfig = field(default_factory=ForestConfig)
    t2: int = 64
    step: int = 5
    stride: int = 5
    include_shape: bool = True
    drop_labels: tuple = ()
    seed: int = 0
    max_gap: int = DEFAULT_MAX_GAP
    threads: int = 1

    def __post_init__(self):
        if self.t2 < 2 or self.t2 & (self.t2 - 1):
            raise InvalidConfig(f"t2 must be a power of two >= 2, got {self.t2}")
        if self.step < 1 or self.stride < 1:
            raise InvalidConfig("step and stride must be >= 1")
        if self.threads < 1:
            raise InvalidConfig(f"threads must be >= 1, got {self.threads}")
        if self.max_gap < 0:
            raise InvalidConfig(f"max_gap must be >= 0, got {self.max_gap}")
        for lab in self.drop_labels:
            if not isinstance(lab, CollectiveLabel):
                raise InvalidConfig(f"drop_labels entries must be collective labels, got {lab!r}")
        for stage, forest, width in (
            ("interaction", self.interaction_forest, self.pid.descriptor_length),
            ("collective", self.collective_forest, len(cue_columns(self.pipeline().cues))),
        ):
            if forest.features_per_split is not None and forest.features_per_split > width:
                raise InvalidConfig(f"{stage}_features_per_split must be <= {width}, "
                                    f"its descriptor length, got {forest.features_per_split}")

    def pipeline(self) -> PipelineConfig:
        return PipelineConfig(
            pid=self.pid,
            smoothing=self.smoothing,
            forest=self.interaction_forest,
            forest2=self.collective_forest,
            t2=self.t2,
            step=self.step,
            stride=self.stride,
            include_shape=self.include_shape,
            max_gap=self.max_gap,
            seed=self.seed,
            threads=self.threads,
        )


def _parse_scalar(text: str, lineno: int):
    text = text.strip()
    if text == "":
        raise InvalidConfig(f"line {lineno}: missing value")
    if text == "true":
        return True
    if text == "false":
        return False
    if text == "none":
        return None
    if text.startswith('"'):
        if len(text) < 2 or not text.endswith('"') or '"' in text[1:-1]:
            raise InvalidConfig(f"line {lineno}: malformed string {text}")
        return text[1:-1]
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise InvalidConfig(f"line {lineno}: cannot parse value {text!r}") from None


def _strip_comment(line: str) -> str:
    in_quote = False
    for i, ch in enumerate(line):
        if ch == '"':
            in_quote = not in_quote
        elif ch == "#" and not in_quote:
            return line[:i]
    return line


def parse_config_text(text: str) -> dict:
    """Flat key/value mapping from config-file text; unknown keys fail."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidConfig(f"line {lineno}: expected key = value, got {raw.strip()!r}")
        key, _, rest = line.partition("=")
        key = key.strip()
        if key not in ALL_KEYS:
            raise InvalidConfig(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise InvalidConfig(f"line {lineno}: duplicate key {key!r}")
        rest = rest.strip()
        if rest.startswith("["):
            if not rest.endswith("]"):
                raise InvalidConfig(f"line {lineno}: unterminated list")
            inner = rest[1:-1].strip()
            items = [] if not inner else [
                _parse_scalar(part, lineno) for part in inner.split(",")
            ]
            values[key] = items
        else:
            values[key] = _parse_scalar(rest, lineno)
    return values


def _coerce(key: str, value):
    """Type-check one parsed value against the schema."""
    if key in _INT_KEYS or key in _OPT_INT_KEYS:
        if key in _OPT_INT_KEYS and value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, int):
            raise InvalidConfig(f"key {key!r} must be an integer, got {value!r}")
        return value
    if key in _FLOAT_KEYS:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise InvalidConfig(f"key {key!r} must be a number, got {value!r}")
        return float(value)
    if key in _BOOL_KEYS:
        if not isinstance(value, bool):
            raise InvalidConfig(f"key {key!r} must be true or false, got {value!r}")
        return value
    if key in _STR_KEYS:
        if not isinstance(value, str):
            raise InvalidConfig(f"key {key!r} must be a string, got {value!r}")
        return value
    if key in _LIST_KEYS:
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise InvalidConfig(f"key {key!r} must be a list of strings, got {value!r}")
        return value
    raise InvalidConfig(f"unknown key {key!r}")


def _parse_drop_labels(names: Sequence[str]) -> tuple:
    out = []
    for name in names:
        try:
            out.append(CollectiveLabel(name))
        except ValueError:
            valid = ", ".join(l.code for l in CollectiveLabel)
            raise InvalidConfig(f"unknown collective label {name!r}; valid: {valid}") from None
    return tuple(out)


def build_run_config(file_values: Optional[dict] = None, overrides: Optional[dict] = None) -> RunConfig:
    """Merge defaults, config-file values and flag overrides (in that
    order of increasing precedence; None overrides are ignored)."""
    merged = {}
    for source in (file_values or {}), (overrides or {}):
        for key, value in source.items():
            if value is None and key not in _OPT_INT_KEYS:
                continue
            if key not in ALL_KEYS:
                raise InvalidConfig(f"unknown key {key!r}")
            merged[key] = _coerce(key, value)

    def take(key, default):
        return merged.get(key, default)

    try:
        smoothing = SmoothingConfig(
            alpha=take("alpha", 0.5), t_s=take("speed_threshold", 0.25)
        )
        defaults = PidConfig()
        pid = PidConfig(
            t1=take("t1", 64),
            sigma_rho=take("sigma_rho", defaults.sigma_rho),
            sigma_theta=take("sigma_theta", defaults.sigma_theta),
            k_s=take("k_s", 3.0),
            l_max=take("l_max", 1),
            grid_samples_per_axis=take("grid_samples", 9),
            variance_denominator=take("variance_denominator", False),
            assignment=take("assignment", "kde"),
        )
        interaction_forest = ForestConfig(
            n_trees=take("interaction_trees", 100),
            max_depth=take("interaction_max_depth", None),
            min_samples_split=take("interaction_min_samples_split", 2),
            features_per_split=take("interaction_features_per_split", None),
        )
        collective_forest = ForestConfig(
            n_trees=take("collective_trees", 100),
            max_depth=take("collective_max_depth", None),
            min_samples_split=take("collective_min_samples_split", 2),
            features_per_split=take("collective_features_per_split", None),
        )
    except ValueError as exc:
        raise InvalidConfig(str(exc)) from None
    return RunConfig(
        smoothing=smoothing,
        pid=pid,
        interaction_forest=interaction_forest,
        collective_forest=collective_forest,
        t2=take("t2", 64),
        step=take("step", 5),
        stride=take("stride", 5),
        include_shape=take("include_shape", True),
        drop_labels=_parse_drop_labels(take("drop_labels", [])),
        seed=take("seed", 0),
        max_gap=take("max_gap", DEFAULT_MAX_GAP),
        threads=take("threads", 1),
    )


def load_run_config(path: Optional[str] = None, overrides: Optional[dict] = None) -> RunConfig:
    file_values = None
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                file_values = parse_config_text(fh.read())
        except OSError as exc:
            raise InvalidConfig(f"cannot read config file {path}: {exc}") from None
    return build_run_config(file_values, overrides)
