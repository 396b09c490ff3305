"""CSV row formatting, shared by ``cli._write_rows`` and the helper process.

The module uses the standard library only, so that it also runs as a script
in a bare interpreter (``python -I -S _csvrows.py FD CHUNK ENCODING``), which
starts without numpy and without ``site``.  As a script it formats frames of
rows, CHUNK rows at a time.  The parent writes each frame to the file open as
descriptor FD, after the frames before it, and then announces it with one
line on stdin, its size in bytes.  A frame is one JSON line ``{"rows": r,
"cols": k, "formats": [...]}``, then the int64 format key of each of its r
rows, then the float64 values of the rows, k a row, both in native byte
order.  A frame stands alone: key j is the j-th of its own ``formats``.  At
the end of stdin the script writes the text of every frame, in order and in
the encoding ENCODING, to stdout.  A frame that is shorter than announced, or
whose size is not that of its rows, ends the script with an error.
"""
import json
import os
import sys


def format_rows(formats, keys, values, cols, chunk):
    """The text of the rows, ``chunk`` rows at a time.

    Row k is ``formats[keys[k]] % values[k*cols:(k+1)*cols]``; a chunk is
    formatted with one %-format.  ``values`` is a flat sequence of floats.
    """
    for lo in range(0, len(keys), chunk):
        hi = lo + chunk
        yield ("".join([formats[k] for k in keys[lo:hi]])
               % tuple(values[lo * cols:hi * cols]))


def main() -> None:
    fd, chunk, encoding = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
    text, offset = [], 0
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
        # formatted as the frames come, written when the parent asks for them
        text += [part.encode(encoding)
                 for part in format_rows(formats, keys, values, cols, chunk)]
    out = sys.stdout.buffer
    out.writelines(text)
    out.flush()


if __name__ == "__main__":
    main()
