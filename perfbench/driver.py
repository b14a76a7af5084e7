"""Run one chaoslab CLI call in a fresh interpreter, recording when set-up ends.

    python3 perfbench/driver.py RECORD_JSON CHAOSLAB_ARGS...

Set-up ends when ``import chaoslab.cli`` and the call's ``load_config`` have
returned.  The record holds that moment on the system-wide monotonic clock,
which the launcher compares with the moment it spawned this process, the
number of process pools the call started, counted by wrapping
``chaoslab.experiments.ProcessPoolExecutor``, and the peak resident set of
this process and of the pool workers it joined.
"""

import json
import resource
import sys
import time


def peak_rss_kib() -> int:
    """Largest resident set of this process or of a child it has waited for.

    This process's own peak is read from ``VmHWM``, which belongs to the
    memory this program mapped after ``exec``; ``ru_maxrss`` of the process
    itself also keeps the peak of the launcher it was spawned from.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            own = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        pass
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def main(argv: list[str]) -> int:
    record_path, cli_args = argv[0], argv[1:]
    import chaoslab.cli as cli
    import chaoslab.experiments as xp

    record = {"setup_done": None, "pool_starts": 0, "peak_rss_kib": None}
    load_config = cli.load_config

    def timed_load_config(path):
        cfg = load_config(path)
        if record["setup_done"] is None:
            record["setup_done"] = time.monotonic()
        return cfg

    class CountingPool(xp.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            record["pool_starts"] += 1
            super().__init__(*args, **kwargs)

    cli.load_config = timed_load_config
    xp.ProcessPoolExecutor = CountingPool
    try:
        return cli.cli_dispatch(cli_args)
    except Exception:
        import traceback

        from checks import EXIT_CRASH

        traceback.print_exc()
        return EXIT_CRASH
    finally:
        record["peak_rss_kib"] = peak_rss_kib()
        with open(record_path, "w", encoding="utf-8") as f:
            json.dump(record, f)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
