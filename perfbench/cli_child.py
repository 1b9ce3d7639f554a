"""A cold command-line run: ``python3 cli_child.py SPEED_FILE TRACE_FILE ARGS...``.

Runs ``gspinlab.cli.main(ARGS)`` unchanged while ``reference.Sampler``
samples the host's speed, writes the samples to SPEED_FILE and exits with
the command's exit code. Unless TRACE_FILE is ``-``, it also installs the
tracer and writes the per-layer summary and the spans to TRACE_FILE.
"""
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from reference import Sampler  # noqa: E402


def _traced(main, argv, trace_file: Path) -> int:
    from tracing import Tracer

    tracer = Tracer().install()
    try:
        return main(argv)
    finally:
        tracer.restore()
        trace_file.write_text(
            json.dumps({"summary": tracer.summary(), "spans": tracer.span_records()}),
            encoding="utf-8",
        )


def main() -> int:
    speed_file, trace_file, argv = Path(sys.argv[1]), sys.argv[2], sys.argv[3:]
    sampler = Sampler()
    try:
        with sampler:
            import gspinlab.cli

            if trace_file == "-":
                return gspinlab.cli.main(argv)
            return _traced(gspinlab.cli.main, argv, Path(trace_file))
    finally:
        speed_file.write_text(sampler.line(), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
