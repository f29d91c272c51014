"""Sectioned key=value run configuration with line-precise errors."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from .domains import GeometryError, parse_domain_spec
from .verify import CHECKERS, K_RANGES, KRangeError, check_k

KNOWN_THEOREMS = tuple(CHECKERS)
KNOWN_SOURCES = ("const", "radial", "bump")

_KEYS = {
    "run": {"domains", "betas", "ks", "sources", "theorems", "h", "refinements"},
    "gamma": {"gamma2", "provenance"},
    "output": {"dir"},
}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    domains: list
    betas: list
    ks: list
    sources: list
    theorems: list
    h: float
    refinements: int
    gamma2: float
    outdir: str
    raw_text: str

    def config_hash(self) -> str:
        return hashlib.sha256(self.raw_text.encode()).hexdigest()[:16]


def _split_list(value: str, sep: str):
    return [item.strip() for item in value.split(sep) if item.strip()]


def parse_config(text: str) -> RunConfig:
    """Parse and validate; unknown keys, duplicate keys, non-numeric values
    and a missing gamma provenance raise with the offending line; values are
    checked by `_check_values`."""
    section = None
    lines: dict = {}
    values: dict = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _KEYS:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS[section]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section}]")
        if (section, key) in lines:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{section}]")
        lines[(section, key)] = lineno
        values[(section, key)] = val

    def get(section, key, default=None):
        return values.get((section, key), default)

    def number(key, text, kind=float, section="run"):
        try:
            return kind(text)
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise ConfigError(f"line {lines[(section, key)]}: {key} value {text!r} "
                              f"is not {what}") from None

    if get("run", "domains") is None:
        raise ConfigError("missing required key 'domains' in [run]")
    if get("gamma", "gamma2") is None:
        raise ConfigError("missing required key 'gamma2' in [gamma]")
    if not get("gamma", "provenance"):
        raise ConfigError("gamma2 requires a 'provenance' note in [gamma]; the "
                          "quantitative isoperimetric constant is configuration, "
                          "not something this tool invents")

    cfg = RunConfig(
        domains=_split_list(get("run", "domains"), ";"),
        betas=[number("betas", v) for v in _split_list(get("run", "betas", "1"), ",")],
        ks=[number("ks", v) for v in _split_list(get("run", "ks", "1"), ",")],
        sources=_split_list(get("run", "sources", "const"), ";"),
        theorems=_split_list(get("run", "theorems", ", ".join(KNOWN_THEOREMS)), ","),
        h=number("h", get("run", "h", "0.1")),
        refinements=number("refinements", get("run", "refinements", "1"), int),
        gamma2=number("gamma2", get("gamma", "gamma2"), section="gamma"),
        outdir=get("output", "dir", "reports"),
        raw_text=text,
    )
    _check_values(cfg)
    return cfg


def _parsed(spec: str):
    """The Domain of spec, or spec itself where it does not parse: the runner
    reports such a spec as failed jobs."""
    try:
        return parse_domain_spec(spec)
    except GeometryError:
        return spec


def _check_values(cfg: RunConfig) -> None:
    """Raise ConfigError unless every run value is admissible: no empty
    list and no value listed twice (domains compared as parsed, so one
    domain spelled two ways counts twice), known theorems and sources,
    positive finite h, gamma2, betas and k, at least one refinement, and k
    inside the range of each Lorentz theorem (`verify.check_k`, as the
    checkers apply it)."""
    for key in ("domains", "betas", "ks", "sources", "theorems"):
        vals = getattr(cfg, key)
        if not vals:
            raise ConfigError(f"[run] {key} must list at least one value")
        same = [_parsed(v) for v in vals] if key == "domains" else vals
        twice = next((v for i, v in enumerate(vals) if same[i] in same[:i]), None)
        if twice is not None:
            raise ConfigError(f"[run] {key} lists {twice!r} twice; each value "
                              "runs its jobs once")

    for th in cfg.theorems:
        if th not in KNOWN_THEOREMS:
            raise ConfigError(f"unknown theorem {th!r}; choose from {KNOWN_THEOREMS}")
    for src in cfg.sources:
        if src not in KNOWN_SOURCES:
            raise ConfigError(f"unknown source {src!r}; choose from {KNOWN_SOURCES}")
    for key, vals in (("h", [cfg.h]), ("gamma2", [cfg.gamma2]), ("betas", cfg.betas),
                      ("ks", cfg.ks)):
        if not all(0 < v < math.inf for v in vals):
            raise ConfigError(f"{key} must be positive and finite")
    if cfg.refinements < 1:
        raise ConfigError("refinements must be at least 1: the discretization error "
                          "is the gap difference between two rungs")

    f_is_constant = all(s == "const" for s in cfg.sources)
    for theorem in (t for t in cfg.theorems if t in K_RANGES):
        for k in cfg.ks:
            try:
                check_k(theorem, k, f_is_constant)
            except KRangeError as exc:
                raise ConfigError(str(exc)) from None


def default_config_text() -> str:
    """A template run; gamma2 must be reviewed, not trusted (see provenance)."""
    return """\
[run]
domains = disc r=1; ellipse a=1.2247448713915892 b=0.81649658092772615
betas = 1
ks = 1, 0.5
sources = const
theorems = lorentz_k1, lorentz_2k2, pointwise, saint_venant, bossel_daners
h = 0.1
refinements = 1

[gamma]
gamma2 = 16.0
provenance = placeholder; set from the quantitative isoperimetric literature and cross-check against the gamma_star diagnostic

[output]
dir = reports
"""
