"""Run configuration: defaults, config-file parsing, flag overrides.

The config file is flat ``key = value`` text (TOML-style scalars):
integers, floats, booleans ``true``/``false``, double-quoted strings,
``none`` for optional integers, and ``["a", "b"]`` string lists.  Lines
starting with ``#`` (or blank) are skipped; ``#`` also starts a trailing
comment outside quotes.  Precedence is flags > file > defaults.

``SETTINGS`` is the one list of keys: the config file, the command-line
flags (``--`` plus the key with dashes) and the flag overrides are all
read from it, and every default comes from ``PipelineConfig()``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from .cbd import CollectiveLabel
from .errors import InvalidConfig
from .evaluate import PipelineConfig
from .forest import ForestConfig

# (key, kind, PipelineConfig attribute it sets, help text).  Kinds: int,
# optint (an integer or none), float, bool, str, and list (of collective
# label names).
SETTINGS = (
    ("seed", "int", "seed", "run seed"),
    ("threads", "int", "threads", "forest-training worker threads"),
    ("t1", "int", "pid.t1", "pairwise window length"),
    ("t2", "int", "t2", "group window length"),
    ("step", "int", "step", "window grid step"),
    ("stride", "int", "stride", "pair-descriptor stride inside group windows"),
    ("max_gap", "int", "max_gap", "largest interpolable track gap"),
    ("alpha", "float", "smoothing.alpha", "smoothing factor"),
    ("speed_threshold", "float", "smoothing.t_s", "orientation speed threshold (m/s)"),
    ("sigma_rho", "float", "pid.sigma_rho", "radial kernel width"),
    ("sigma_theta", "float", "pid.sigma_theta", "angular kernel width"),
    ("k_s", "float", "pid.k_s", "kernel sampling extent"),
    ("l_max", "int", "pid.l_max", "speed pyramid depth"),
    ("grid_samples", "int", "pid.grid_samples_per_axis", "kernel grid samples per axis"),
    ("assignment", "str", "pid.assignment", "histogram assignment"),
    ("variance_denominator", "bool", "pid.variance_denominator",
     "use 2*sigma^2 kernel denominators"),
    ("include_shape", "bool", "include_shape", "append the shape cue to CBD vectors"),
    ("drop_labels", "list", "drop_labels", "comma-separated collective labels to drop (cross)"),
    ("interaction_trees", "int", "forest.n_trees", "first-stage forest size"),
    ("collective_trees", "int", "forest2.n_trees", "second-stage forest size"),
    ("interaction_max_depth", "optint", "forest.max_depth", "first-stage depth cap"),
    ("collective_max_depth", "optint", "forest2.max_depth", "second-stage depth cap"),
    ("interaction_min_samples_split", "int", "forest.min_samples_split",
     "first-stage smallest splittable node"),
    ("collective_min_samples_split", "int", "forest2.min_samples_split",
     "second-stage smallest splittable node"),
    ("interaction_features_per_split", "optint", "forest.features_per_split",
     "first-stage features tried per split"),
    ("collective_features_per_split", "optint", "forest2.features_per_split",
     "second-stage features tried per split"),
)
_SPEC = {key: (kind, path) for key, kind, path, _ in SETTINGS}


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
        value = float(text)
    except ValueError:
        raise InvalidConfig(f"line {lineno}: cannot parse value {text!r}") from None
    # int() refuses literals beyond Python's digit limit, which float() reads as inf
    if text.lstrip("+-").replace("_", "").isdecimal():
        raise InvalidConfig(f"line {lineno}: integer literal too long ({len(text)} characters)")
    return value


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
        if key not in _SPEC:
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


def _coerce(key: str, kind: str, value):
    """Type-check one parsed value against its kind in SETTINGS."""
    if kind in ("int", "optint"):
        if kind == "optint" and value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, int):
            raise InvalidConfig(f"key {key!r} must be an integer, got {value!r}")
        return value
    if kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise InvalidConfig(f"key {key!r} must be a number, got {value!r}")
        try:
            return float(value)
        except OverflowError:
            raise InvalidConfig(f"key {key!r} must be a number, got an integer too large "
                                "for a float") from None
    if kind == "bool":
        if not isinstance(value, bool):
            raise InvalidConfig(f"key {key!r} must be true or false, got {value!r}")
        return value
    if kind == "str":
        if not isinstance(value, str):
            raise InvalidConfig(f"key {key!r} must be a string, got {value!r}")
        return value
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise InvalidConfig(f"key {key!r} must be a list of strings, got {value!r}")
    return _parse_drop_labels(value)


def _parse_drop_labels(names: Sequence[str]) -> tuple:
    out = []
    for name in names:
        try:
            out.append(CollectiveLabel(name))
        except ValueError:
            valid = ", ".join(l.code for l in CollectiveLabel)
            raise InvalidConfig(
                f"key 'drop_labels': unknown collective label {name!r}; valid: {valid}"
            ) from None
    return tuple(out)


def build_run_config(
    file_values: Optional[dict] = None, overrides: Optional[dict] = None
) -> PipelineConfig:
    """Merge defaults, config-file values and flag overrides (in that
    order of increasing precedence; None overrides are ignored except for
    optional-integer keys, where None means no limit).  The stage-two
    forest is always set, so it never inherits the interaction_* values."""
    base = PipelineConfig(forest2=ForestConfig())
    top, nested = {}, {}
    for source in (file_values or {}), (overrides or {}):
        for key, value in source.items():
            kind, path = _SPEC.get(key, (None, None))
            if value is None and kind != "optint":
                continue
            if kind is None:
                raise InvalidConfig(f"unknown key {key!r}")
            group, _, attr = path.rpartition(".")
            dest = nested.setdefault(group, {}) if group else top
            dest[attr] = _coerce(key, kind, value)
    for group, values in nested.items():
        try:
            top[group] = replace(getattr(base, group), **values)
        except ValueError as exc:
            paths = {f"{group}.{attr}" for attr in values}
            named = ", ".join(key for key, _, path, _ in SETTINGS if path in paths)
            raise InvalidConfig(f"{named}: {exc}") from None
    return replace(base, **top)


def load_run_config(path: Optional[str] = None, overrides: Optional[dict] = None) -> PipelineConfig:
    file_values = None
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                file_values = parse_config_text(fh.read())
        except OSError as exc:
            raise InvalidConfig(f"cannot read config file {path}: {exc}") from None
    return build_run_config(file_values, overrides)
