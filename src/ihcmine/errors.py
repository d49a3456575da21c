"""Exception taxonomy shared across the pipeline."""


class PipelineError(Exception):
    """Base class for all pipeline errors."""


class ValidationError(PipelineError):
    """Input violated a precondition or invariant."""


class ConfigError(PipelineError):
    """Bad configuration value."""


class IngestError(PipelineError):
    """Entrez request failed after retries."""


class EntrezParseError(PipelineError):
    """Entrez returned a body we could not parse."""


class GatewayError(PipelineError):
    """LLM/embedding endpoint failed after retries."""


class EmptyOutputError(GatewayError):
    """The model returned an empty completion."""


class GatewayProtocolError(GatewayError):
    """The endpoint response did not match the expected schema."""


class UnparseableLabelError(PipelineError):
    """A classification completion contained neither Include nor Exclude."""


class TableNotFoundError(PipelineError):
    """No markdown pipe table found in a completion."""


class DictionaryLoadError(PipelineError):
    """Concept dictionary file was malformed."""


class ReferenceFileError(PipelineError):
    """Reference CSV row was malformed."""


class StoreError(PipelineError):
    """Run-store I/O failure or corrupted stage file."""


class StageStateError(StoreError):
    """Operation not allowed in the stage's current state."""
