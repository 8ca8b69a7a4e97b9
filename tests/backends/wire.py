"""Raw frames for tests that play one end of a tcp connection by hand."""

from repro.backends.tcp import FrameParser
from repro.errors import BackendError


def read_frame(parser: FrameParser):
    """Block for the next ``(op, corr, body)``; ``BackendError`` at EOF."""
    while True:
        frame = parser.next_frame()
        if frame is not None:
            return frame
        if not parser.fill():
            raise BackendError("connection closed by peer")
