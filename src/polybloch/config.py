"""Experiment configuration: one human-readable YAML file per experiment.

Physics parameters live only in the file; command-line flags select the
subcommand, verbosity, and output paths.  Every artifact embeds the
config's SHA-256 and the seed so reruns are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import yaml

from .errors import CascadeInequalityViolated, ConfigError
from .geometry import ParameterCascade, derive_parameters
from .lattice import LatticeModel
from .potential import FourierPotential, load_potential, random_potential

_CASCADE_OVERRIDE_KEYS = ("v_thresholds", "pool_radius", "series_pool_radius",
                          "known_order", "a_radius", "constants")


@dataclass(frozen=True)
class ExperimentConfig:
    raw: dict
    sha256: str
    base_dir: Path

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
        return cls(raw=raw, sha256=hashlib.sha256(data).hexdigest(), base_dir=path.parent)

    # -- section access -------------------------------------------------

    def section(self, name: str, required: bool = True) -> dict:
        sec = self.raw.get(name)
        if sec is None:
            if required:
                raise ConfigError(f"missing config section [{name}]")
            return {}
        if not isinstance(sec, dict):
            raise ConfigError(f"config section [{name}] must be a mapping")
        return sec

    def field(self, section: str, key: str, default=None, required: bool = False):
        sec = self.section(section, required=required)
        if key not in sec:
            if required:
                raise ConfigError(f"missing config field [{section}].{key}")
            return default
        return sec[key]

    # -- resolved objects -------------------------------------------------

    def lattice(self) -> LatticeModel:
        basis = self.field("lattice", "basis", required=True)
        try:
            return LatticeModel(basis)
        except Exception as err:
            raise ConfigError(f"bad [lattice].basis: {err}") from err

    def degree(self) -> int:
        return int(self.field("operator", "degree", default=1))

    def smoothness(self) -> float:
        return float(self.field("operator", "smoothness", required=True))

    def potential(self, lattice: LatticeModel) -> FourierPotential:
        sec = self.section("potential")
        smoothness = self.smoothness()
        sources = [k for k in ("file", "coefficients", "generator") if k in sec]
        if len(sources) != 1:
            raise ConfigError("[potential] needs exactly one of: file, coefficients, generator")
        try:
            if "file" in sec:
                return load_potential(self.base_dir / sec["file"], lattice, smoothness)
            if "coefficients" in sec:
                return FourierPotential.from_records(lattice, sec["coefficients"], smoothness)
            gen = sec["generator"]
            return random_potential(
                seed=int(gen["seed"]), d=lattice.dimension,
                support_radius=float(gen["support_radius"]), s=smoothness,
                norm_budget=float(gen["norm_budget"]), lattice=lattice,
            )
        except ConfigError:
            raise
        except Exception as err:
            raise ConfigError(f"bad [potential]: {err}") from err

    def rho_list(self) -> list[float]:
        rho = self.field("cascade", "rho", required=True)
        if isinstance(rho, (int, float)):
            return [float(rho)]
        return [float(r) for r in rho]

    def cascade(self, rho: float, d: int | None = None) -> ParameterCascade:
        sec = self.section("cascade")
        mode = sec.get("mode", "theory")
        overrides = {k: sec[k] for k in _CASCADE_OVERRIDE_KEYS if k in sec}
        if d is None:
            d = len(self.field("lattice", "basis", required=True))
        try:
            return derive_parameters(d, self.degree(), self.smoothness(), rho,
                                     mode=mode, overrides=overrides)
        except CascadeInequalityViolated as err:
            raise ConfigError(f"bad [cascade]: {err}") from err
        except ValueError as err:
            raise ConfigError(f"bad [cascade]: {err}") from err

    def seed(self) -> int:
        return int(self.field("experiment", "seed", default=0))

    def output_dir(self, override=None) -> Path:
        if override is not None:
            out = Path(override)
        else:
            out = self.base_dir / str(self.field("experiment", "output_dir", default="out"))
        out.mkdir(parents=True, exist_ok=True)
        return out


def stamp(config: ExperimentConfig) -> dict:
    return {"config_sha256": config.sha256, "seed": config.seed()}


def write_json(path: Path, config: ExperimentConfig, payload) -> None:
    doc = dict(stamp(config))
    doc["result"] = payload
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def csv_header_line(config: ExperimentConfig) -> str:
    return f"# config_sha256={config.sha256} seed={config.seed()}\n"
