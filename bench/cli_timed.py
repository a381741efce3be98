"""Run the rescomp command line as `python -m rescomp.cli` does, timing the stream.

    PYTHONPATH=src python bench/cli_timed.py correct --model M --stdin < angles.txt

Exit status and standard output are the command's own.  The last line on
standard error is a JSON object {"stream_s": seconds, "peak_rss_mb": MB}.
`stream_s` runs from the end of `pipeline.load_model` (or of the import, for a
command that loads no model) until standard output is flushed: the streaming
time without interpreter start-up and model loading, which `setup_s` measures.
"""

import json
import resource
import sys
import time

from rescomp import cli, pipeline


def peak_rss_mb() -> float:
    """Peak resident set of this process image.  VmHWM restarts at exec, where
    ru_maxrss keeps the high-water mark of the process that spawned it."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    start = [time.perf_counter()]
    load_model = pipeline.load_model

    def timed_load_model(path):
        model = load_model(path)
        start[0] = time.perf_counter()
        return model

    pipeline.load_model = timed_load_model
    code = cli.main(sys.argv[1:])
    sys.stdout.flush()
    stream_s = time.perf_counter() - start[0]
    print(json.dumps({"stream_s": stream_s, "peak_rss_mb": peak_rss_mb()}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
