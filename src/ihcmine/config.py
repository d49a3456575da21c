"""Pipeline configuration: defaults, config file, environment, flags.

Precedence (highest first): CLI flags, config file, environment variables,
built-in defaults. The config file is flat ``key = value`` lines with
``#`` comments; keys match the field names below.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Mapping

from .errors import ConfigError

ENV_VARS = {
    "entrez_base_url": "ENTREZ_BASE_URL",
    "ncbi_api_key": "NCBI_API_KEY",
    "llm_base_url": "LLM_BASE_URL",
    "llm_model": "LLM_MODEL",
    "llm_api_key": "LLM_API_KEY",
    "emb_base_url": "EMB_BASE_URL",
    "emb_model": "EMB_MODEL",
}

@dataclass
class PipelineConfig:
    markers_path: str = "data/markers.txt"
    runs_root: str = "runs"
    run_dir: str | None = None

    entrez_base_url: str = "https://eutils.ncbi.nlm.nih.gov/entrez/eutils"
    ncbi_api_key: str | None = None
    requests_per_second: float | None = None  # None: 3/s, or 10/s with an API key
    esearch_page_size: int = 9999
    efetch_batch_size: int = 200
    cap: int = 9999

    llm_base_url: str = "http://localhost:8000"
    llm_model: str = "default"
    llm_api_key: str | None = None
    emb_base_url: str | None = None
    emb_model: str | None = None
    llm_concurrency: int = 4

    retries: int = 3
    backoff_base: float = 1.0
    timeout: float = 60.0

    wrong_f1_threshold: float = 0.25
    row_similarity_threshold: float = 0.8
    positive_concordant_min: int = 50
    negative_concordant_max: int = 20
    near_band_points: int = 5
    top_k_tumours: int = 5

    dictionary_path: str | None = None
    reference_path: str = "data/reference.csv"
    max_distance: float | None = None
    split_qualifiers: bool = False

    def validate(self) -> None:
        if not 1 <= self.cap <= 9999:
            raise ConfigError(f"cap must be in [1, 9999], got {self.cap}")
        if not 0.0 <= self.wrong_f1_threshold <= 1.0:
            raise ConfigError(f"wrong_f1_threshold must be in [0, 1], got {self.wrong_f1_threshold}")
        if not 0.0 <= self.row_similarity_threshold <= 1.0:
            raise ConfigError(
                f"row_similarity_threshold must be in [0, 1], got {self.row_similarity_threshold}"
            )
        for name in ("positive_concordant_min", "negative_concordant_max", "near_band_points"):
            value = getattr(self, name)
            if not 0 <= value <= 100:
                raise ConfigError(f"{name} must be in [0, 100], got {value}")
        if self.llm_concurrency < 1:
            raise ConfigError(f"llm_concurrency must be >= 1, got {self.llm_concurrency}")
        if self.top_k_tumours < 1:
            raise ConfigError(f"top_k_tumours must be >= 1, got {self.top_k_tumours}")
        if self.requests_per_second is not None and self.requests_per_second <= 0:
            raise ConfigError("requests_per_second must be positive")


_FIELD_TYPES = {f.name: f.type for f in fields(PipelineConfig)}
_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _coerce(name: str, raw: str) -> Any:
    annotation = str(_FIELD_TYPES.get(name, "str"))
    raw = raw.strip()
    if raw.lower() in ("none", "null", ""):
        return None
    if "bool" in annotation:
        lowered = raw.lower()
        if lowered in _BOOL_TRUE:
            return True
        if lowered in _BOOL_FALSE:
            return False
        raise ConfigError(f"{name}: expected a boolean, got {raw!r}")
    if "int" in annotation and "float" not in annotation:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{name}: expected an integer, got {raw!r}") from None
    if "float" in annotation:
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{name}: expected a number, got {raw!r}") from None
    return raw


def load_config_file(path: str | Path) -> dict[str, Any]:
    """Parse flat key = value lines; unknown keys are an error."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    values: dict[str, Any] = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        raw = raw.strip().strip("\"'")
        values[key] = _coerce(key, raw)
    return values


def build_config(
    flag_values: Mapping[str, Any] | None = None,
    config_path: str | Path | None = None,
    env: Mapping[str, str] | None = None,
) -> PipelineConfig:
    """Merge defaults, env, config file, and flags (flags win)."""
    env = os.environ if env is None else env
    config = PipelineConfig()
    for field_name, env_name in ENV_VARS.items():
        if env_name in env and env[env_name]:
            setattr(config, field_name, env[env_name])
    if config_path is not None:
        for key, value in load_config_file(config_path).items():
            setattr(config, key, value)
    for key, value in (flag_values or {}).items():
        if value is not None and key in _FIELD_TYPES:
            setattr(config, key, value)
    config.validate()
    return config
