"""Run a workload's CLI calls in this one process, with or without spans.

    python3 perfbench/inproc.py PLAN_JSON RECORD_JSON

PLAN_JSON holds {"calls": [[command, args...], ...], "trace": bool}.  Every
call goes through ``cli_dispatch`` in this process, so with ``--workers 1``
each layer call is made here and a span can see it.  The record holds each
call's exit code and wall time and, when tracing, the spans and counts.
"""

import json
import sys
import time


def main(argv: list[str]) -> int:
    plan_path, record_path = argv
    with open(plan_path, encoding="utf-8") as f:
        plan = json.load(f)
    import chaoslab.cli as cli

    from checks import EXIT_CRASH

    tracer = missing = None
    if plan["trace"]:
        from spans import Tracer, install

        tracer = Tracer()
        missing = install(tracer)
    calls = []
    for args in plan["calls"]:
        start = time.perf_counter()
        try:
            if tracer:
                rc = tracer.span(f"cli.{args[0]}", cli.cli_dispatch, args)
            else:
                rc = cli.cli_dispatch(args)
        except Exception:
            import traceback

            traceback.print_exc()
            rc = EXIT_CRASH
        calls.append({"command": args[0], "returncode": rc, "wall_s": time.perf_counter() - start})
    record = {"calls": calls}
    if tracer:
        record.update(spans=tracer.spans, counts=tracer.counts, missing=missing)
    with open(record_path, "w", encoding="utf-8") as f:
        json.dump(record, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
