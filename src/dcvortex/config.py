"""Run configuration: flat INI sections, exact rationals for the constants and fields.

Exactly one of sigma / tau must be given.  A section or key not listed in
SECTION_KEYS is an error, so a misspelled name cannot fall back to a
default unnoticed.  Field specifications accept

    zero
    constant <entry>            broadcast scalar (diagonal for square shapes)
    matrix <json rows>          entries as strings, e.g. [["0","1/3"],["0","0"]]

and are read exactly into Gaussian-rational matrices.  An entry is a or
a+bj (also a-bj, bj, j), where a and b are each an integer, a decimal
(exponent allowed) or p/q.  An entry whose float64 value is not finite
(nan, inf, 1e400), or is 0.0 although the entry is not (1e-400), is an error,
and so is a field whose float64 products F F^dagger or F^dagger F are not
finite (constant 1e200): the residual forms them.
"""

from __future__ import annotations

import configparser
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConstraintError
from .geometry import TorusGrid
from .higgs import ExactMatrix, QuadrupletSpec
from .vortex import SolveOptions, VortexConstants, constants_from_sigma, constants_from_tau


class ConfigError(ValueError):
    """Malformed run configuration; the message names the section/key."""


# every section and key parse_config reads
SECTION_KEYS = {
    "grid": ("n", "n_radial", "n_angular"),
    "bundles": ("degrees1", "degrees2"),
    "constants": ("sigma", "tau"),
    "fields": ("theta1", "theta2", "phi", "psi"),
    "solver": ("step", "max_iter", "target_residual", "patience"),
    "tolerances": ("check",),
    "reduction": ("n_points",),
    "hk": ("draws",),
    "stability": ("catalog", "subobjects"),
}


@dataclass
class RunConfig:
    n: int = 32
    n_radial: int = 24
    n_angular: int = 24
    block_degrees1: tuple[int, ...] = (0,)
    block_degrees2: tuple[int, ...] = (0,)
    sigma: Optional[Fraction] = None
    tau: Optional[Fraction] = None
    field_specs: dict = field(default_factory=dict)
    solver: SolveOptions = field(default_factory=SolveOptions)
    check_tol: Optional[float] = None
    n_product_points: int = 200
    hk_draws: int = 100
    catalog_path: Optional[str] = None
    user_subobjects: list = field(default_factory=list)
    raw_text: str = ""

    def constants(self) -> VortexConstants:
        r1, r2 = len(self.block_degrees1), len(self.block_degrees2)
        d1, d2 = sum(self.block_degrees1), sum(self.block_degrees2)
        if self.sigma is not None:
            return constants_from_sigma(self.sigma, r1, r2, d1, d2)
        return constants_from_tau(self.tau, r1, r2, d1, d2)

    def grid(self) -> TorusGrid:
        return TorusGrid(self.n)

    def quadruplet(self) -> QuadrupletSpec:
        r1, r2 = len(self.block_degrees1), len(self.block_degrees2)
        fields = {
            key: build_field(key, self.field_specs.get(key, "zero"), ro, ri)
            for key, ro, ri in (("theta1", r1, r1), ("theta2", r2, r2), ("phi", r2, r1), ("psi", r1, r2))
        }
        try:
            q = QuadrupletSpec(self.grid(), self.block_degrees1, self.block_degrees2, **fields)
        except ConstraintError as exc:  # each message starts with the field's name
            raise ConfigError(f"[fields] {exc}") from exc
        return q.validate()


def _parse_number(text: str, kind, where: str):
    """text read as kind (int, float or complex); a ConfigError naming where if it is not one."""
    try:
        return kind(text)
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse {kind.__name__} {text!r}") from exc


def _get_number(parser: configparser.ConfigParser, section: str, key: str, kind, fallback=None):
    """[section] key read as kind, or fallback if the key is absent."""
    if not parser.has_option(section, key):
        return fallback
    return _parse_number(parser.get(section, key), kind, f"[{section}] {key}")


def _exact_part(text: str, token: str, where: str) -> Fraction:
    """One real part of an entry, exactly; a ConfigError unless its float64 value is finite, and nonzero if it is."""
    try:
        value = Fraction(text)
        rounded = float(value)
    except OverflowError as exc:
        raise ConfigError(f"{where}: non-finite value {token!r}") from exc
    except (ValueError, ZeroDivisionError) as exc:
        what = "non-finite value" if text.lstrip("+-") in ("nan", "inf", "infinity") else "cannot parse complex"
        raise ConfigError(f"{where}: {what} {token!r} (a or a+bj; a, b integer, decimal or p/q)") from exc
    if value and not rounded:
        raise ConfigError(f"{where}: value {token!r} is nonzero but underflows to 0.0 in float64")
    return value


def _parse_entry(token: str, where: str) -> tuple[Fraction, Fraction]:
    """token as exact (real, imaginary) parts."""
    text = token.replace(" ", "").lower()
    real, imag = text, "0"
    if text.endswith("j"):
        body = text[:-1]
        # the imaginary part starts at the last sign that is not an exponent's
        cut = max((k for k in range(1, len(body)) if body[k] in "+-" and body[k - 1] != "e"), default=0)
        real, imag = body[:cut] or "0", body[cut:]
        if imag in ("", "+", "-"):
            imag += "1"
    return _exact_part(real, token, where), _exact_part(imag, token, where)


def build_field(key: str, spec: str, ro: int, ri: int) -> ExactMatrix:
    parts = spec.split()
    kind = parts[0] if parts else "zero"
    where = f"[fields] {key} = {spec!r}"
    if kind == "zero":
        rows = [["0"] * ri] * ro
    elif kind == "constant":
        if len(parts) != 2:
            raise ConfigError(f"{where}: constant needs one value")
        rows = [[parts[1] if ro != ri or i == j else "0" for j in range(ri)] for i in range(ro)]
    elif kind == "matrix":
        try:
            rows = json.loads(" ".join(parts[1:]))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{where}: bad matrix literal") from exc
        if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
            raise ConfigError(f"{where}: bad matrix literal, expected a JSON list of rows")
        if len(rows) != ro or any(len(row) != ri for row in rows):
            raise ConfigError(f"{where}: matrix must be {ro}x{ri}, got rows of lengths {[len(row) for row in rows]}")
    else:
        raise ConfigError(f"{where}: unknown field kind {kind!r} (expected zero, constant or matrix)")
    entries = [[_parse_entry(str(e), where) for e in row] for row in rows]
    return ExactMatrix(*(np.array([[e[k] for e in row] for row in entries], dtype=object) for k in (0, 1)))


def _parse_rational(text: str, where: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{where}: expected an exact rational, got {text!r}") from exc


def _parse_degrees(text: str, where: str) -> tuple[int, ...]:
    degs = tuple(_parse_number(t, int, where) for t in text.replace(",", " ").split())
    if not degs:
        raise ConfigError(f"{where}: at least one summand degree required")
    return degs


def _positive(value: float, where: str) -> float:
    if not (np.isfinite(value) and value > 0):
        raise ConfigError(f"{where} must be finite and positive, got {value!r}")
    return value


def _at_least_one(value: int, where: str) -> int:
    if value < 1:
        raise ConfigError(f"{where} must be >= 1, got {value}")
    return value


def _reject_unknown_names(parser: configparser.ConfigParser) -> None:
    """ConfigError naming the first section or key that SECTION_KEYS does not list."""
    defaults = list(parser.defaults())
    if defaults:
        raise ConfigError(f"[{parser.default_section}] {defaults[0]}: unknown key (no defaults section is read)")
    for section in parser.sections():
        if section not in SECTION_KEYS:
            raise ConfigError(f"[{section}]: unknown section (expected one of {', '.join(SECTION_KEYS)})")
        known = SECTION_KEYS[section]
        for key in parser.options(section):
            if key not in known:
                raise ConfigError(f"[{section}] {key}: unknown key (expected one of {', '.join(known)})")


def parse_config(path) -> RunConfig:
    text = Path(path).read_text()
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    _reject_unknown_names(parser)

    cfg = RunConfig(raw_text=text)

    if parser.has_section("grid"):
        cfg.n = _get_number(parser, "grid", "n", int, cfg.n)
        cfg.n_radial = _get_number(parser, "grid", "n_radial", int, cfg.n_radial)
        cfg.n_angular = _get_number(parser, "grid", "n_angular", int, cfg.n_angular)
        if cfg.n < 4 or cfg.n % 2 != 0:
            raise ConfigError(f"[grid] n must be even and >= 4, got {cfg.n}")
        if min(cfg.n_radial, cfg.n_angular) < 8:
            raise ConfigError("[grid] n_radial and n_angular must be >= 8")

    if parser.has_section("bundles"):
        if parser.has_option("bundles", "degrees1"):
            cfg.block_degrees1 = _parse_degrees(parser.get("bundles", "degrees1"), "[bundles] degrees1")
        if parser.has_option("bundles", "degrees2"):
            cfg.block_degrees2 = _parse_degrees(parser.get("bundles", "degrees2"), "[bundles] degrees2")

    if parser.has_section("constants"):
        has_sigma = parser.has_option("constants", "sigma")
        has_tau = parser.has_option("constants", "tau")
        if has_sigma == has_tau:
            raise ConfigError("[constants]: exactly one of sigma / tau must be set")
        if has_sigma:
            cfg.sigma = _parse_rational(parser.get("constants", "sigma"), "[constants] sigma")
        else:
            cfg.tau = _parse_rational(parser.get("constants", "tau"), "[constants] tau")
    else:
        raise ConfigError("missing [constants] section (set sigma or tau)")

    if parser.has_section("fields"):
        for key in ("theta1", "theta2", "phi", "psi"):
            if parser.has_option("fields", key):
                cfg.field_specs[key] = parser.get("fields", key)

    if parser.has_section("solver"):
        s = cfg.solver
        s.step = _positive(_get_number(parser, "solver", "step", float, s.step), "[solver] step")
        s.max_iter = _at_least_one(_get_number(parser, "solver", "max_iter", int, s.max_iter), "[solver] max_iter")
        s.target_residual = _positive(
            _get_number(parser, "solver", "target_residual", float, s.target_residual), "[solver] target_residual"
        )
        s.patience = _at_least_one(_get_number(parser, "solver", "patience", int, s.patience), "[solver] patience")

    if parser.has_section("tolerances"):
        if parser.has_option("tolerances", "check"):
            cfg.check_tol = _positive(_get_number(parser, "tolerances", "check", float), "[tolerances] check")

    if parser.has_section("reduction"):
        cfg.n_product_points = _at_least_one(
            _get_number(parser, "reduction", "n_points", int, cfg.n_product_points), "[reduction] n_points"
        )

    if parser.has_section("hk"):
        cfg.hk_draws = _at_least_one(_get_number(parser, "hk", "draws", int, cfg.hk_draws), "[hk] draws")

    if parser.has_section("stability"):
        if parser.has_option("stability", "catalog"):
            cfg.catalog_path = parser.get("stability", "catalog")
        if parser.has_option("stability", "subobjects"):
            for chunk in parser.get("stability", "subobjects").split(";"):
                chunk = chunk.strip()
                if chunk:
                    nums = chunk.split()
                    if len(nums) != 4:
                        raise ConfigError("[stability] subobjects: each entry is 'r1 r2 d1 d2'")
                    cfg.user_subobjects.append(tuple(_parse_number(v, int, "[stability] subobjects") for v in nums))

    return cfg
