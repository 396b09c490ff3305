"""CSV row formatting, shared by ``cli._block_text`` and the helper process.

The module uses the standard library only, so that it also runs as a script
in a bare interpreter (``python -I -S _csvrows.py FRAMES_FD OUT_FD
ENCODING``), which starts without numpy and without ``site``.  As a script it
formats frames of rows, each with one %-format.  The parent writes each frame
to the file open as descriptor FRAMES_FD, after the frames before it, and
then announces it with one line on stdin, its size in bytes.  A frame is one
JSON line ``{"rows": r, "cols": k, "formats": [...]}``, then the int64 format
key of each of its r rows, then the float64 values of the rows, k a row, both
in native byte order.  A frame stands alone: key j is the j-th of its own
``formats``.  The script formats each frame as it is announced, appends its
text, in the encoding ENCODING, to the file open as descriptor OUT_FD (opened
for appending by the parent, which writes to it only once the script has
reported every frame), and then reports the frame finished with one line on
stdout.  A frame
that is shorter than announced, or whose size is not that of its rows, ends
the script with an error.
"""
import json
import os
import sys


def format_rows(formats, keys, values):
    """The text of the rows, formatted with one %-format: row k is
    ``formats[keys[k]]`` filled with the next values of ``values``, a flat
    sequence of floats."""
    return "".join([formats[k] for k in keys]) % tuple(values)


def main() -> None:
    fd, encoding = int(sys.argv[1]), sys.argv[3]
    out, done = open(int(sys.argv[2]), "wb"), sys.stdout.buffer
    offset = 0
    for line in sys.stdin.buffer:
        size = int(line)
        # pread leaves alone the file position, which the parent shares
        data = os.pread(fd, size, offset)
        offset += size
        if len(data) != size:
            raise ValueError(f"frame of {len(data)} bytes, announced {size}")
        start = data.index(b"\n") + 1
        header = json.loads(data[:start])
        formats, rows, cols = header["formats"], header["rows"], header["cols"]
        if size - start != 8 * rows * (1 + cols):
            raise ValueError(f"frame of {rows} rows has {size - start} bytes")
        frame = memoryview(data)
        keys = frame[start:start + 8 * rows].cast("q")
        values = frame[start + 8 * rows:].cast("d")
        out.write(format_rows(formats, keys, values).encode(encoding))
        out.flush()   # the text is in the file before the frame is reported
        done.write(b"\n")
        done.flush()


if __name__ == "__main__":
    main()
