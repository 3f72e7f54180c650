"""Bounded reads and atomic writes for the little-endian binary formats: the
SFDK checkpoint (`model`) and the SFDE embedding store (`retrieval`)."""

import os
import struct


class Reader:
    """Reads one blob front to back. A read past its end raises the
    caller's `truncated` error class."""

    def __init__(self, blob, truncated):
        self.blob, self.off, self.truncated = blob, 0, truncated

    def take(self, n, what):
        start, self.off = self.off, self.off + n
        if self.off > len(self.blob):
            raise self.truncated(f"truncated reading {what} at byte {start} "
                                 f"(need {n}, have {len(self.blob) - start})")
        return self.blob[start:self.off]

    def unpack(self, fmt, what):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def end(self, error):
        """Raise `error` unless every byte has been read."""
        if self.off < len(self.blob):
            raise error(f"{len(self.blob) - self.off} trailing bytes at byte "
                        f"{self.off}")


def write_atomic(path, blob):
    """Write `blob` to a temporary file, then rename it over `path`, so a
    reader never sees a partly written file."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(blob)
    os.replace(tmp, path)
