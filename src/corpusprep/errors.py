"""Exception types shared across pipeline phases.

CLI exit codes map onto these: 0 on success, ConfigError and
ValidationError -> 1, IntegrityError -> 3, and PhaseError or any other
CorpusPrepError -> 2. A pipeline phase that fails for any cause raises
PhaseError, so a config error found inside a phase exits 2.
"""

from __future__ import annotations


class CorpusPrepError(Exception):
    """Base class for all pipeline errors."""


class RejectedRecord(CorpusPrepError):
    """A single input record was rejected during ingestion.

    Carries a machine-readable reason so ingest reports can bucket
    rejects; `byte_offset` is set for UTF-8 decode failures.
    """

    def __init__(self, reason: str, detail: str = "", byte_offset: int | None = None):
        self.reason = reason
        self.detail = detail
        self.byte_offset = byte_offset
        msg = reason if not detail else f"{reason}: {detail}"
        if byte_offset is not None:
            msg += f" (byte offset {byte_offset})"
        super().__init__(msg)


class ConfigError(CorpusPrepError):
    """Invalid configuration value or combination."""


class ValidationError(CorpusPrepError):
    """One or more named invariant violations.

    `violations` is a list of (code, message) pairs.
    """

    def __init__(self, violations: list[tuple[str, str]]):
        self.violations = violations
        super().__init__("; ".join(f"{code}: {msg}" for code, msg in violations))


class UnknownSignalError(CorpusPrepError):
    """A named quality signal is absent from a document's vector."""


class PipelineOrderError(CorpusPrepError):
    """A phase ran before the phase it depends on."""


class PhaseError(CorpusPrepError):
    """A pipeline phase failed; names the phase and the cause."""

    def __init__(self, phase: str, cause: BaseException):
        self.phase = phase
        self.cause = cause
        super().__init__(f"phase '{phase}' failed: {cause}")


class IntegrityError(CorpusPrepError):
    """On-disk artifacts are missing or fail checksum verification."""

    def __init__(self, message: str, artifacts: list[str] | None = None):
        self.artifacts = artifacts or []
        super().__init__(message)
