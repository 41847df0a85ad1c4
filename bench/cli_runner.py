"""Run one kfusion CLI command with every layer traced.

Usage: python cli_runner.py SPANS_OUT SUBCOMMAND [ARGS...]

Times the cold ``import kfusion.cli``, wraps the layers' public functions,
calls the click entry point with ``standalone_mode=False`` inside a
``cli.main`` span, writes the task's trace summary to SPANS_OUT once at the
end, and exits with the command's exit code.
"""

import json
import sys
import time


def main(argv):
    spans_out, args = argv[0], argv[1:]
    start = time.perf_counter()
    import kfusion.cli

    import_s = time.perf_counter() - start

    from tracer import Tracer  # after the timed import, so import_s is kfusion.cli's alone

    tracer = Tracer()
    tracer.install()
    entry = tracer.wrap("cli.main", kfusion.cli.main.main)
    code = 0
    try:
        entry(args=args, prog_name="kfusion", standalone_mode=False)
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.uninstall()
        summary = tracer.take(0)
        summary["import_s"] = import_s
        summary["spans"] = [list(span[1:]) for span in tracer.log]
        with open(spans_out, "w") as fh:
            json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
