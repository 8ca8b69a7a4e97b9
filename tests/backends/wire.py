"""Raw frames for tests that play one end of a byte pipe by hand."""

from repro.backends._server import _FRAME_META, _PREFIX, FrameParser
from repro.errors import BackendError


def frame(op: int, corr: int, *parts) -> list:
    """One frame as buffers: its prefix, then ``parts``."""
    return [_PREFIX.pack(_FRAME_META + sum(map(len, parts)), op, corr), *parts]


def sized(parts: list) -> tuple[list, int]:
    """``parts`` and their byte count: a ring's ``write(frame, total)``
    arguments."""
    return parts, sum(map(len, parts))


def send_frame(sock, op: int, corr: int, *parts) -> None:
    """Send one frame."""
    sock.sendall(b"".join(frame(op, corr, *parts)))


def read_frame(parser: FrameParser):
    """Block for the next ``(op, corr, body)``; ``BackendError`` at EOF."""
    while True:
        got = parser.next_frame()
        if got is not None:
            return got
        if not parser.fill():
            raise BackendError("connection closed by peer")
