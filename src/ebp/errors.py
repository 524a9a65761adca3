"""Error vocabulary shared by the depot, the wire protocol, and the clients.

Every error that can cross the wire has exactly one code token; the server
answers ``ERR <code> <message>`` and the client re-raises the matching class.
Codes are stable protocol surface: do not rename them.
"""

from __future__ import annotations


class EbpError(Exception):
    """Base class for all protocol-visible errors."""

    code = "EbpError"

    def __init__(self, message: str = ""):
        super().__init__(message or self.code)
        self.message = message or self.code


class SizeLimitExceeded(EbpError):
    code = "SizeLimitExceeded"


class AdmissionDenied(EbpError):
    code = "AdmissionDenied"


class NoSuchAllocation(EbpError):
    code = "NoSuchAllocation"


class BadCapability(EbpError):
    code = "BadCapability"


class Expired(EbpError):
    code = "Expired"


class OutOfRange(EbpError):
    code = "OutOfRange"


class ResourceExhausted(EbpError):
    code = "ResourceExhausted"


class UnknownOperation(EbpError):
    code = "UnknownOperation"


class NotLocal(EbpError):
    code = "NotLocal"


class MalformedFrame(EbpError):
    code = "MalformedFrame"


class StaleOp(EbpError):
    code = "StaleOp"


class RemoteUnreachable(EbpError):
    code = "RemoteUnreachable"


class Timeout(EbpError):
    code = "Timeout"


class ConnectionLost(EbpError):
    code = "ConnectionLost"


class ExtentUnavailable(EbpError):
    code = "ExtentUnavailable"


class InsufficientDepots(EbpError):
    code = "InsufficientDepots"


class NotManaged(EbpError):
    code = "NotManaged"


class ValidationFailed(EbpError):
    code = "ValidationFailed"


class ParseError(EbpError):
    code = "ParseError"


class SchemaError(EbpError):
    code = "SchemaError"


class VersionUnsupported(EbpError):
    code = "VersionUnsupported"


class BindFailure(EbpError):
    code = "BindFailure"


class UnknownDepot(EbpError):
    code = "UnknownDepot"


_CODE_MAP = {
    cls.code: cls
    for cls in list(globals().values())
    if isinstance(cls, type) and issubclass(cls, EbpError)
}


def error_for_code(code: str, message: str = "") -> EbpError:
    """Build the exception instance matching a wire error code.

    Unknown codes degrade to the base class so a newer server cannot
    crash an older client.
    """
    cls = _CODE_MAP.get(code, EbpError)
    err = cls(message)
    if cls is EbpError:
        err.code = code
    return err
