"""Pipeline configuration: defaults, environment, flags.

Precedence (highest first): CLI flags, environment variables, built-in
defaults. Every field below is set by some subcommand's flag. A file of
settings is a file of flags, read where ``@file`` stands on the command line
(see ``cli._Parser``), so each value is parsed by its flag's own type.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from typing import Any, Mapping

from .errors import ConfigError
from .pubmed import DEFAULT_BASE_URL, MAX_CAP
from .transport import MAX_RETRIES, MAX_WAIT_S

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

    entrez_base_url: str = DEFAULT_BASE_URL
    ncbi_api_key: str | None = None
    requests_per_second: float | None = None  # None: 3/s, or 10/s with an API key
    cap: int = MAX_CAP

    llm_base_url: str = "http://localhost:8000"
    llm_model: str = "default"
    llm_api_key: str | None = None
    emb_base_url: str | None = None
    emb_model: str | None = None
    llm_concurrency: int = 4

    retries: int = 3
    backoff_base: float = 1.0
    timeout: float = 60.0

    dictionary_path: str | None = None
    reference_path: str = "data/reference.csv"
    max_distance: float | None = None
    split_qualifiers: bool = False

    def validate(self) -> None:
        if not 1 <= self.cap <= MAX_CAP:
            raise ConfigError(f"cap must be in [1, {MAX_CAP}], got {self.cap}")
        if self.llm_concurrency < 1:
            raise ConfigError(f"llm_concurrency must be >= 1, got {self.llm_concurrency}")
        for name in ("requests_per_second", "backoff_base", "timeout", "max_distance"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be a finite number, got {value}")
        if self.requests_per_second is not None and self.requests_per_second < 1 / MAX_WAIT_S:
            raise ConfigError(
                f"requests_per_second must be at least 1/{MAX_WAIT_S:g} (one request per window of at most "
                f"{MAX_WAIT_S:g} s), got {self.requests_per_second}"
            )
        if self.backoff_base < 0:
            raise ConfigError(f"backoff_base must be >= 0, got {self.backoff_base}")
        if not 0 < self.timeout <= MAX_WAIT_S:
            raise ConfigError(f"timeout must be in (0, {MAX_WAIT_S:g}] seconds, got {self.timeout}")
        if not 1 <= self.retries <= MAX_RETRIES:  # the backoff of attempt 1025 overflows a float
            raise ConfigError(f"retries must be in [1, {MAX_RETRIES}], got {self.retries}")
        if self.llm_api_key and any(c in self.llm_api_key for c in "\r\n\0"):
            raise ConfigError("llm_api_key must not contain CR, LF or NUL")  # the key itself stays out of the message


_FIELDS = {f.name for f in fields(PipelineConfig)}


def build_config(flag_values: Mapping[str, Any] | None = None, env: Mapping[str, str] | None = None) -> PipelineConfig:
    """Merge defaults, env and flags (flags win)."""
    env = os.environ if env is None else env
    config = PipelineConfig()
    for field_name, env_name in ENV_VARS.items():
        if env_name in env and env[env_name]:
            setattr(config, field_name, env[env_name])
    for key, value in (flag_values or {}).items():
        if value is not None and key in _FIELDS:
            setattr(config, key, value)
    config.validate()
    return config
