"""Bounded reads and atomic writes for the little-endian binary formats: the
SFDK checkpoint (`model`) and the SFDE embedding store (`retrieval`)."""

import os
import struct


class Reader:
    """Reads one blob front to back. Malformed contents raise the caller's
    `error` class; a read past the end raises `truncated`, by default the
    same class."""

    def __init__(self, blob, error, truncated=None):
        self.blob, self.off = blob, 0
        self.error, self.truncated = error, truncated or error

    def take(self, n, what):
        start, self.off = self.off, self.off + n
        if self.off > len(self.blob):
            raise self.truncated(f"truncated reading {what} at byte {start} "
                                 f"(need {n}, have {len(self.blob) - start})")
        return self.blob[start:self.off]

    def unpack(self, fmt, what):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def text(self, n, what):
        """The next `n` bytes decoded as UTF-8."""
        start = self.off
        try:
            return self.take(n, what).decode("utf-8")
        except UnicodeDecodeError as e:
            raise self.error(f"{what} is not valid UTF-8 (byte "
                             f"{e.object[e.start]:#04x} at byte "
                             f"{start + e.start})") from None

    def end(self):
        """Raise the error class unless every byte has been read."""
        if self.off < len(self.blob):
            raise self.error(f"{len(self.blob) - self.off} trailing bytes at "
                             f"byte {self.off}")


def write_atomic(path, blob):
    """Write `blob` to a temporary file, then rename it over `path`, so a
    reader never sees a partly written file."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(blob)
    os.replace(tmp, path)
