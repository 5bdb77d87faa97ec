"""Run one fuselab CLI command in this fresh interpreter, optionally traced.

    python bench/child.py [--trace SPANS_FILE] -- <fuselab arguments>

Untraced, this is what the `fuselab` console script does. Traced, the import
of fuselab becomes an `import.fuselab` span, every public fuselab function
is wrapped, and the spans are written to SPANS_FILE when the command ends.
The exit code is the command's.
"""

import sys
import time


def main(argv):
    spans_path = None
    if argv[:1] == ["--trace"]:
        spans_path, argv = argv[1], argv[2:]
    if argv[:1] != ["--"]:
        print("usage: child.py [--trace FILE] -- ARGS...", file=sys.stderr)
        return 2
    argv = argv[1:]
    start = time.perf_counter()
    import fuselab.cli

    end = time.perf_counter()
    if spans_path is None:
        return fuselab.cli.main(argv)

    from tracer import Tracer

    tracer = Tracer().install(fuselab)
    tracer.op_id = 0
    tracer.record("import.fuselab", start, end)
    try:
        return fuselab.cli.main(argv)
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
