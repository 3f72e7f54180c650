"""Bounded reads and atomic writes for the little-endian binary formats: the
SFDK checkpoint (`model`) and the SFDE embedding store (`retrieval`); and
the one UTF-8 decode that they and the text files (config, manifest) share,
whose error names the file and the bad byte's offset."""

import os
import struct


class Reader:
    """Reads one blob front to back. Malformed contents raise the caller's
    `error` class; a read past the end raises `truncated`, by default the
    same class. Each read names what it reads, for its error: `what`, or
    `what % index` when an index is given, formatted only for the error."""

    def __init__(self, blob, error, truncated=None):
        self.blob, self.off = blob, 0
        self.error, self.truncated = error, truncated or error

    def take(self, n, what, index=None):
        start, self.off = self.off, self.off + n
        if self.off > len(self.blob):
            raise self.truncated(f"truncated reading {_label(what, index)} at "
                                 f"byte {start} (need {n}, have "
                                 f"{len(self.blob) - start})")
        return self.blob[start:self.off]

    def unpack(self, fmt, what, index=None):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what, index))

    def text(self, n, what, index=None):
        """The next `n` bytes decoded as UTF-8."""
        start = self.off
        return decode_utf8(self.take(n, what, index), what, self.error, start,
                           index)

    def end(self):
        """Raise the error class unless every byte has been read."""
        if self.off < len(self.blob):
            raise self.error(f"{len(self.blob) - self.off} trailing bytes at "
                             f"byte {self.off}")


def _label(what, index):
    return what if index is None else what % index


def decode_utf8(blob, what, error, start=0, index=None):
    """`blob` (bytes or a memoryview) decoded as UTF-8. An invalid byte raises
    `error` naming `what` (`what % index` when an index is given), the byte
    and its offset, counted from `start`."""
    try:
        return str(blob, "utf-8")
    except UnicodeDecodeError as e:
        raise error(f"{_label(what, index)} is not valid UTF-8 (byte "
                    f"{e.object[e.start]:#04x} at byte {start + e.start})"
                    ) from None


def write_atomic(path, blob):
    """Write `blob` to a temporary file, then rename it over `path`, so a
    reader never sees a partly written file."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(blob)
    os.replace(tmp, path)
