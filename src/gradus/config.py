"""Run configuration: one JSON file drives every pipeline command.

Seeds are mandatory so no command ever falls back to wall-clock entropy;
relative paths resolve against the config file's own directory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional

from .denoiser import DenoiserHyperparams
from .errors import PhraseParseError, PhraseValidationError, _get
from .fusion import VoiceProfile
from .graph import FeatureFlags
from .pitch import KeyContext, parse_key, parse_pitch
from .rules import RuleConfig


@dataclass(frozen=True)
class RunConfig:
    corpus_dir: Path
    out_dir: Path
    master_seed: int
    train_seed: int
    schedule_T: int = 100
    schedule_s: float = 0.008
    denoiser: DenoiserHyperparams = field(default_factory=DenoiserHyperparams)
    features: FeatureFlags = field(default_factory=FeatureFlags)
    rules: RuleConfig = field(default_factory=RuleConfig)
    B: int = 40
    K: int = 8
    skeleton_mode: str = "whole-phrase"
    measures: int = 2
    home_key: KeyContext = field(default_factory=lambda: KeyContext("C", 0, "major"))
    templates_path: Optional[Path] = None
    voice_profiles: Optional[dict[int, VoiceProfile]] = None


_HP_KEYS = (
    "layers", "hidden_dim", "heads", "epochs", "batch_size",
    "learning_rate", "val_split",
)
# Top-level keys: the RunConfig fields, with the denoiser's spelled out.
_KEYS = {f.name for f in fields(RunConfig)} - {"denoiser"} | set(_HP_KEYS)


def check_seed(seed: int, name: str) -> int:
    """seed, refused when negative, which numpy's generators cannot take."""
    if seed < 0:
        raise PhraseValidationError(f"{name} must be a non-negative integer, not {seed}")
    return seed


def _section(raw: dict, name: str, cls: type):
    """The dataclass cls from the config object under name, each key typed
    by its field's default; an unknown key is refused, not ignored."""
    spec = _get(raw, name, dict, default={})
    defaults = {f.name: f.default for f in fields(cls)}
    for key in spec:
        if key not in defaults:
            raise PhraseValidationError(f"config {name} has unknown key {key!r}")
    return cls(**{k: _get(spec, k, type(defaults[k]), f"config {name}") for k in spec})


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise PhraseParseError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise PhraseParseError(f"config {path} line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise PhraseParseError(f"config {path} must hold a JSON object")
    for key in raw:
        if key not in _KEYS:
            raise PhraseValidationError(f"config has unknown key {key!r}")
    base = path.parent

    def resolve(key: str) -> Path:
        candidate = Path(_get(raw, key, str))
        return candidate if candidate.is_absolute() else base / candidate

    T = _get(raw, "schedule_T", int, default=100)
    hp_defaults = {f.name: f.default for f in fields(DenoiserHyperparams)}
    hp_kwargs = {k: _get(raw, k, type(hp_defaults[k])) for k in _HP_KEYS if k in raw}
    home = _get(raw, "home_key", dict, default={"tonic": "C", "mode": "major"})

    profiles = None
    if raw.get("voice_profiles"):
        profiles = {}
        for i, spec in enumerate(_get(raw, "voice_profiles", list)):
            where = f"config voice_profiles[{i}]"
            if not isinstance(spec, dict):
                raise PhraseValidationError(f"{where} must be a JSON object")
            voice = _get(spec, "voice", int, where)
            profiles[voice] = VoiceProfile(
                name=_get(spec, "name", str, where, default=f"voice{voice}"),
                central=parse_pitch(_get(spec, "central", str, where)),
                low=parse_pitch(_get(spec, "low", str, where)),
                high=parse_pitch(_get(spec, "high", str, where)),
            )

    return RunConfig(
        corpus_dir=resolve("corpus_dir"),
        out_dir=resolve("out_dir"),
        master_seed=check_seed(_get(raw, "master_seed", int), "config key 'master_seed'"),
        train_seed=check_seed(_get(raw, "train_seed", int), "config key 'train_seed'"),
        schedule_T=T,
        schedule_s=_get(raw, "schedule_s", float, default=0.008),
        denoiser=DenoiserHyperparams(**hp_kwargs, T=T),
        features=_section(raw, "features", FeatureFlags),
        rules=_section(raw, "rules", RuleConfig),
        B=_get(raw, "B", int, default=40),
        K=_get(raw, "K", int, default=8),
        skeleton_mode=_get(raw, "skeleton_mode", str, default="whole-phrase"),
        measures=_get(raw, "measures", int, default=2),
        home_key=parse_key(
            _get(home, "tonic", str, "config home_key"),
            _get(home, "mode", str, "config home_key"),
        ),
        templates_path=resolve("templates_path") if raw.get("templates_path") else None,
        voice_profiles=profiles,
    )
