"""One benchmark sample, run in a fresh interpreter by run.py.

    python3 perfbench/child.py MODE --result-fd FD [options]

MODE is ``setup`` (import and make inputs, nothing else), ``verify``
(``mtz verify all`` in this process, its reports on stdout), ``table``
(one pass of quad-table or coeff-table) or ``sweep`` (the per-layer
precision sweep).  The sample's timings and checks go to FD as one JSON
object; its time.monotonic readings are comparable with the parent's.
Serial untraced passes run under speed.SpeedClock and also report their
time in reference seconds (``ref_s``).
"""

import argparse
import contextlib
import json
import os
import sys
import time


def _send(fd, payload):
    with os.fdopen(fd, "w") as fh:
        json.dump(payload, fh)


def main(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "verify", "table", "sweep"))
    ap.add_argument("--result-fd", type=int, required=True)
    ap.add_argument("--workload", default="verify-default")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ns = ap.parse_args(argv)

    import mtzeta  # noqa: F401  (the import a CLI run pays)

    if ns.workload == "verify-default":
        from mtzeta import cli

        items = None
    else:
        import workloads

        items = workloads.inputs(ns.workload, ns.seed)
    out = {"t_setup": time.monotonic()}
    from speed import REF_S, calibration_s

    out["setup_speed"] = REF_S / calibration_s()
    if ns.mode == "setup":
        _send(ns.result_fd, out)
        return 0

    if ns.mode == "sweep":
        import sweep

        out["metrics"] = sweep.run(ns.seed)
        _send(ns.result_fd, out)
        return 0

    recorder = clock = None
    with contextlib.ExitStack() as stack:
        if ns.trace:
            import spans

            recorder = spans.Recorder().install()
            stack.callback(recorder.uninstall)
        elif ns.threads == 1:
            from speed import SpeedClock

            clock = stack.enter_context(SpeedClock())
        t0 = time.perf_counter()
        if ns.mode == "verify":
            argv = ["verify", "all"] + (["--threads", str(ns.threads)] if ns.threads > 1 else [])
            code = cli.cli_main(argv)
            sys.stdout.flush()
        else:
            result = workloads.run_pass(ns.workload, items)
            code = 0
        t1 = time.perf_counter()
    out["wall_s"] = t1 - t0
    out["exit"] = code
    if clock is not None:
        out["wall_s"] -= sum(e - s for s, e in clock.marks if t0 <= s and e <= t1)
        out["ref_s"] = clock.reference_seconds(t0, t1)
        out["calibrations"] = len(clock.marks)
    if ns.mode == "table":
        out["pass"] = result.summary()
        if clock is not None:
            out["pass"]["unit_ref_s"] = {
                unit: clock.reference_seconds(a, b) for unit, (a, b) in result.intervals.items()
            }
    if recorder is not None:
        out["trace"] = recorder.export()
    _send(ns.result_fd, out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
