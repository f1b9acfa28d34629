"""Experiment configuration: one human-readable YAML file per experiment.

Physics parameters live only in the file; command-line flags select the
subcommand, verbosity, and output paths.  Every value is checked once, at
load, against one table (`_SCHEMA`); a bad one is a ConfigError naming its
section.  Every artifact embeds the config's SHA-256 and the seed so reruns
are byte-identical.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .errors import CascadeInequalityViolated, ConfigError, SpectralError
from .geometry import ParameterCascade, derive_parameters, series_cap
from .lattice import LatticeModel
from .potential import FourierPotential, load_potential, random_potential
from .scanner import MIN_MEASURE_SAMPLES, checked_grid

# -- value kinds: each maps a YAML value to its checked value (d = lattice
# dimension) or raises ValueError.


def _real(positive: bool = False):
    """A finite real number, > 0 when positive; a bool or a string is not one."""
    def check(value, d=None) -> float:
        if isinstance(value, numbers.Real) and not isinstance(value, bool):
            with contextlib.suppress(OverflowError):
                if math.isfinite(value) and (value > 0 or not positive):
                    return float(value)
        raise ValueError(f"need a finite{' positive' if positive else ''} number, got {value!r}")
    return check


_number, _positive = _real(), _real(positive=True)


def _integer(minimum: int, capped: bool = False):
    """An integer >= minimum, and up to the series cap min(k1, 6) when capped."""
    def check(value, d) -> int:
        top = series_cap(d) if capped else math.inf
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not minimum <= value <= top:
            raise ValueError(f"need an integer in {minimum}..{top}, got {value!r}")
        return int(value)
    return check


def _text(value, d=None) -> str:
    if not isinstance(value, str):
        raise ValueError(f"need a string, got {value!r}")
    return value


def _as_is(value, d=None):
    """A cascade value that derive_parameters checks (mode, known_order)."""
    return value


def _list(item, empty: bool = False):
    """A list of item values; non-empty unless empty is set."""
    def check(value, d) -> list:
        if not isinstance(value, list) or not (value or empty):
            raise ValueError(f"need a {'' if empty else 'non-empty '}list, got {value!r}")
        return [item(x, d) for x in value]
    return check


def _vector(value, d) -> np.ndarray:
    """A point or center: d finite numbers."""
    if not isinstance(value, list) or len(value) != d:
        raise ValueError(f"need {d} numbers, got {value!r}")
    return np.array([_number(x) for x in value])


def _direction(value, d) -> np.ndarray:
    """d finite numbers with a finite nonzero norm (not normalized here)."""
    u = _vector(value, d)
    if not 0 < np.linalg.norm(u) < np.inf:
        raise ValueError(f"need a nonzero direction, got {value!r}")
    return u


def _grid(value, d) -> tuple[int, ...]:
    """One count per axis, each at least 8 (scanner.checked_grid)."""
    if not isinstance(value, list) or len(value) != d:
        raise ValueError(f"need one count per axis ({d}), got {value!r}")
    return checked_grid([_integer(1)(n, d) for n in value])


def _rhos(value, d) -> list[float]:
    """One number or a non-empty list of them; derive_parameters checks each."""
    return _list(_number)(value, d) if isinstance(value, list) else [_number(value)]


def _basis(value, d=None) -> LatticeModel:
    """Rows = period vectors: a square matrix of finite numbers, not singular."""
    if not isinstance(value, list) or not value:
        raise ValueError(f"need a square matrix, got {value!r}")
    rows = [_vector(row, len(value)) for row in value]
    try:
        return LatticeModel(rows)
    except SpectralError as err:
        raise ValueError(str(err)) from err


_GENERATOR = {"seed": _integer(0), "support_radius": _positive, "norm_budget": _number}


def _generator(value, d) -> dict:
    """The random_potential arguments seed, support_radius and norm_budget."""
    if not isinstance(value, dict) or set(value) != set(_GENERATOR):
        raise ValueError(f"need the keys {sorted(_GENERATOR)}, got {value!r}")
    return {key: kind(value[key], d) for key, kind in _GENERATOR.items()}


_REQUIRED = object()
_POINTS = _list(_vector)

# (section, key) -> (kind, default).  A missing or null key takes its default,
# checked like a given value; a callable default is built from d; None leaves
# it unset, for the command or the library to derive (window radius, rho, ...).
_SCHEMA = {
    "lattice": {"basis": (_basis, _REQUIRED)},
    "operator": {"degree": (_integer(1), 1), "smoothness": (_number, _REQUIRED)},
    # exactly one source; the records are checked by FourierPotential.from_records
    "potential": {"file": (_text, None), "coefficients": (_list(_as_is, empty=True), None),
                  "generator": (_generator, None)},
    "cascade": {"mode": (_as_is, "theory"), "rho": (_rhos, _REQUIRED),
                "v_thresholds": (_list(_number), None), "pool_radius": (_positive, None),
                "series_pool_radius": (_positive, None), "known_order": (_as_is, None),
                "a_radius": (_positive, None)},
    "experiment": {"seed": (_integer(0), 0), "output_dir": (_text, "out")},
    "verify": {"direction": (_direction, _REQUIRED), "orders": (_list(_integer(1, capped=True)), [1, 2]),
               "window_radius": (_positive, None)},
    "classify": {"points": (_POINTS, _REQUIRED), "rho": (_positive, None)},
    "predict": {"centers": (_POINTS, _REQUIRED), "order": (_integer(1, capped=True), None),
                "rho": (_positive, None)},
    "resonant_check": {"points": (_POINTS, _REQUIRED), "window_radius": (_positive, None),
                       "rho": (_positive, None)},
    "simple_check": {"points": (_POINTS, _REQUIRED), "rho": (_positive, None)},
    "bloch": {"centers": (_POINTS, _REQUIRED), "order": (_integer(1, capped=True), 2),
              "window_radius": (_positive, None), "rho": (_positive, None)},
    "bands": {"grid": (_grid, lambda d: [16] * d), "n_bands": (_integer(1), 20),
              "basis_radius": (_positive, None)},
    "gaps": {"grid": (_grid, lambda d: [16] * d), "n_bands": (_integer(1), 30), "e_min": (_number, 0.0),
             "e_max": (_number, None), "basis_radius": (_positive, None)},
    "isoenergetic": {"rays": (_list(_direction), _REQUIRED)},
    "measure": {"n_samples": (_integer(MIN_MEASURE_SAMPLES), 10000)},
}


def _check_section(name: str, sec, d) -> dict:
    """Every key of [name] (absent: {}), checked, with defaults filled in."""
    sec = {} if sec is None else sec
    if not isinstance(sec, dict):
        raise ConfigError(f"config section [{name}] must be a mapping")
    schema = _SCHEMA[name]
    for key in sec:
        if key not in schema:
            raise ConfigError(f"unknown config key [{name}].{key}")
    checked = {}
    for key, (kind, default) in schema.items():
        value = sec.get(key)
        if value is None:
            if default is _REQUIRED:
                raise ConfigError(f"missing config field [{name}].{key}")
            value = default(d) if callable(default) else default
        try:
            checked[key] = None if value is None else kind(value, d)
        except ValueError as err:
            raise ConfigError(f"bad [{name}].{key}: {err}") from err
    return checked


def _build_potential(sec: dict, lattice: LatticeModel, smoothness: float, base_dir: Path) -> FourierPotential:
    sources = [key for key, value in sec.items() if value is not None]
    if len(sources) != 1:
        raise ConfigError("[potential] needs exactly one of: file, coefficients, generator")
    try:
        if sec["file"] is not None:
            return load_potential(base_dir / sec["file"], lattice, smoothness)
        if sec["coefficients"] is not None:
            return FourierPotential.from_records(lattice, sec["coefficients"], smoothness)
        return random_potential(d=lattice.dimension, s=smoothness, lattice=lattice, **sec["generator"])
    except Exception as err:
        raise ConfigError(f"bad [potential]: {err}") from err


@dataclass(frozen=True)
class ExperimentConfig:
    sha256: str
    base_dir: Path
    lattice: LatticeModel
    sections: dict  # section name -> checked values of every key
    q: FourierPotential | None  # None when the file has no [potential]

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file {path} does not exist")
        data = path.read_bytes()
        try:
            raw = yaml.safe_load(data)
        except yaml.YAMLError as err:
            raise ConfigError(f"config parse error in {path}: {err}") from err
        if not isinstance(raw, dict):
            raise ConfigError(f"config root must be a mapping, got {type(raw).__name__}")
        for name in raw:
            if name not in _SCHEMA:
                raise ConfigError(f"unknown config section [{name}]")
        # every command reads [lattice], [operator] and [experiment]; the
        # other sections are checked when present
        sections = {"lattice": _check_section("lattice", raw.get("lattice"), None)}
        lattice = sections["lattice"]["basis"]
        sections.update((name, _check_section(name, raw.get(name), lattice.dimension)) for name in _SCHEMA
                        if name in ("operator", "experiment") or (name != "lattice" and raw.get(name) is not None))
        q = None
        if "potential" in sections:
            q = _build_potential(sections["potential"], lattice, sections["operator"]["smoothness"], path.parent)
        config = cls(sha256=hashlib.sha256(data).hexdigest(), base_dir=path.parent,
                     lattice=lattice, sections=sections, q=q)
        if "cascade" in sections:
            for rho in config.rho_list():
                config.cascade(rho)
        return config

    # -- checked values ---------------------------------------------------

    def section(self, name: str) -> dict:
        if name not in self.sections:
            raise ConfigError(f"missing config section [{name}]")
        return self.sections[name]

    @property
    def degree(self) -> int:
        return self.sections["operator"]["degree"]

    @property
    def seed(self) -> int:
        return self.sections["experiment"]["seed"]

    def potential(self) -> FourierPotential:
        if self.q is None:
            raise ConfigError("missing config section [potential]")
        return self.q

    def rho_list(self) -> list[float]:
        return self.section("cascade")["rho"]

    def cascade(self, rho: float) -> ParameterCascade:
        sec = self.section("cascade")
        overrides = {k: v for k, v in sec.items() if k not in ("mode", "rho") and v is not None}
        try:
            return derive_parameters(self.lattice.dimension, self.degree, self.sections["operator"]["smoothness"],
                                     rho, mode=sec["mode"], overrides=overrides)
        except (CascadeInequalityViolated, ValueError) as err:
            raise ConfigError(f"bad [cascade]: {err}") from err

    def output_dir(self, override=None) -> Path:
        out = Path(override) if override is not None else self.base_dir / self.sections["experiment"]["output_dir"]
        out.mkdir(parents=True, exist_ok=True)
        return out


def write_json(path: Path, config: ExperimentConfig, payload) -> None:
    doc = {"config_sha256": config.sha256, "seed": config.seed, "result": payload}
    if config.q is not None:
        doc["potential_one_norm"] = config.q.one_norm()
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def csv_header_line(config: ExperimentConfig) -> str:
    return f"# config_sha256={config.sha256} seed={config.seed}\n"
