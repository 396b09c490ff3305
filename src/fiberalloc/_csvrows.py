"""CSV row formatting, shared by ``cli._write_csv`` and its helper process.

The module uses the standard library only, so that it also runs as a script
in a bare interpreter (``python -I -S _csvrows.py``), which starts without
numpy and without ``site``.  As a script it reads from stdin, a pipe that
the parent fills once its rows are computed (it may start the helper
earlier), one JSON header line ``{"formats": [...], "cols": k, "chunk": c,
"encoding": e}``, then the int64 row-format index of each row, then the
float64 values of the rows, k a row, both in native byte order, up to the end
of the input.  It writes the formatted rows to stdout in the encoding e.
"""
import json
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
    stdin = sys.stdin.buffer
    header = json.loads(stdin.readline())
    data = memoryview(stdin.read())
    cols = header["cols"]
    rows, extra = divmod(len(data), 8 * (1 + cols))
    if extra:
        raise ValueError(f"input of {len(data)} bytes is not whole rows")
    keys, values = data[:8 * rows].cast("q"), data[8 * rows:].cast("d")
    # every chunk is formatted before the first is written: the parent reads
    # stdout only when its own rows are done
    text = list(format_rows(header["formats"], keys, values, cols,
                            header["chunk"]))
    out = sys.stdout.buffer
    for part in text:
        out.write(part.encode(header["encoding"]))
    out.flush()


if __name__ == "__main__":
    main()
