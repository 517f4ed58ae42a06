"""repro.codec: pluggable, NumPy-only compression for RBP payloads.

The wire layer (`repro.adios.marshal`) hands all variables of a step
to one :func:`encode_fields` / :func:`decode_fields` call when a
:class:`CodecSpec` is active, emitting the self-describing ``RBP3``
frame; same-shaped fields run through their pipeline as one batch and
:func:`encode_field` / :func:`decode_field` are its one-row case.
Everything else (broker, fleet replay, serve, bench) just moves the
smaller bytes.  See docs/compression.md for the pipeline and budget
design.
"""

from repro.codec.pipeline import (
    CLI_CODECS,
    CODEC_NAMES,
    CodecContext,
    CodecSpec,
    CodecStats,
    ErrorBudget,
    FieldCodecConfig,
    decode_field,
    decode_fields,
    encode_field,
    encode_fields,
)
from repro.codec.stages import CodecError, MissingReferenceError

__all__ = [
    "CLI_CODECS",
    "CODEC_NAMES",
    "CodecContext",
    "CodecError",
    "CodecSpec",
    "CodecStats",
    "ErrorBudget",
    "FieldCodecConfig",
    "MissingReferenceError",
    "decode_field",
    "decode_fields",
    "encode_field",
    "encode_fields",
]
