"""BGP NOTIFICATION error taxonomy (RFC 4271 §4.5 and §6).

Every protocol-level failure in this implementation raises
:class:`BgpError`, which carries the (code, subcode, data) triple that
would go on the wire in a NOTIFICATION message. The FSM converts these
into NOTIFICATION sends and session teardown.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum


class ErrorCode(IntEnum):
    """Top-level NOTIFICATION error codes (RFC 4271 §4.5)."""

    MESSAGE_HEADER_ERROR = 1
    OPEN_MESSAGE_ERROR = 2
    UPDATE_MESSAGE_ERROR = 3
    HOLD_TIMER_EXPIRED = 4
    FSM_ERROR = 5
    CEASE = 6


class HeaderSubcode(IntEnum):
    """Message-header error subcodes (RFC 4271 §6.1)."""

    CONNECTION_NOT_SYNCHRONIZED = 1
    BAD_MESSAGE_LENGTH = 2
    BAD_MESSAGE_TYPE = 3


class OpenSubcode(IntEnum):
    """OPEN-message error subcodes (RFC 4271 §6.2)."""

    UNSUPPORTED_VERSION_NUMBER = 1
    BAD_PEER_AS = 2
    BAD_BGP_IDENTIFIER = 3
    UNSUPPORTED_OPTIONAL_PARAMETER = 4
    UNACCEPTABLE_HOLD_TIME = 6


class UpdateSubcode(IntEnum):
    """UPDATE-message error subcodes (RFC 4271 §6.3)."""

    MALFORMED_ATTRIBUTE_LIST = 1
    UNRECOGNIZED_WELL_KNOWN_ATTRIBUTE = 2
    MISSING_WELL_KNOWN_ATTRIBUTE = 3
    ATTRIBUTE_FLAGS_ERROR = 4
    ATTRIBUTE_LENGTH_ERROR = 5
    INVALID_ORIGIN_ATTRIBUTE = 6
    INVALID_NEXT_HOP_ATTRIBUTE = 8
    OPTIONAL_ATTRIBUTE_ERROR = 9
    INVALID_NETWORK_FIELD = 10
    MALFORMED_AS_PATH = 11


class CeaseSubcode(IntEnum):
    """CEASE subcodes (RFC 4486)."""

    MAXIMUM_PREFIXES_REACHED = 1
    ADMINISTRATIVE_SHUTDOWN = 2
    PEER_DECONFIGURED = 3
    ADMINISTRATIVE_RESET = 4
    CONNECTION_REJECTED = 5
    OTHER_CONFIGURATION_CHANGE = 6
    CONNECTION_COLLISION_RESOLUTION = 7
    OUT_OF_RESOURCES = 8


@dataclass(frozen=True, slots=True)
class NotificationData:
    """The payload of a NOTIFICATION message."""

    code: int
    subcode: int = 0
    data: bytes = b""

    def describe(self) -> str:
        try:
            code_name = ErrorCode(self.code).name
        except ValueError:
            code_name = f"code {self.code}"
        subcode_enum = {
            ErrorCode.MESSAGE_HEADER_ERROR: HeaderSubcode,
            ErrorCode.OPEN_MESSAGE_ERROR: OpenSubcode,
            ErrorCode.UPDATE_MESSAGE_ERROR: UpdateSubcode,
            ErrorCode.CEASE: CeaseSubcode,
        }.get(self.code)
        if subcode_enum is not None and self.subcode:
            try:
                return f"{code_name}/{subcode_enum(self.subcode).name}"
            except ValueError:
                pass
        return f"{code_name}/subcode {self.subcode}"


class BgpError(Exception):
    """A protocol error that maps onto a NOTIFICATION message."""

    def __init__(self, code: int, subcode: int = 0, data: bytes = b"", message: str = ""):
        self.notification = NotificationData(code, subcode, data)
        super().__init__(message or self.notification.describe())


def header_error(subcode: HeaderSubcode, data: bytes = b"", message: str = "") -> BgpError:
    return BgpError(ErrorCode.MESSAGE_HEADER_ERROR, subcode, data, message)


def open_error(subcode: OpenSubcode, data: bytes = b"", message: str = "") -> BgpError:
    return BgpError(ErrorCode.OPEN_MESSAGE_ERROR, subcode, data, message)


def update_error(subcode: UpdateSubcode, data: bytes = b"", message: str = "") -> BgpError:
    return BgpError(ErrorCode.UPDATE_MESSAGE_ERROR, subcode, data, message)
