"""mtzeta benchmark: one workload, one seed, checked outputs, named metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding ``src/``
and ``BENCHMARK.json``); the program is imported from ``src/``, nothing
is installed.  Each pass is a fresh interpreter, one client in a closed
loop.  Passes repeat until the next one would end after S seconds (at
least one runs).

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.
``--trace 1`` prints the per-layer ones: untraced passes for half of S,
then (verify-default only) two ``--threads 2`` passes, one traced serial
pass and the precision sweep.  Before the result, one
``perfbench-record`` line gives the environment, each raw series' sample
count, median and tail percentile, and the failures.  The last line is
the result object.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORKLOADS = ("verify-default", "quad-table", "coeff-table")
VERIFY_REPORTS = 28
DEADLINE_S = 170  # the whole run, children included, ends before this
SETUP_ONLY = 5  # extra set-up-only processes per run, besides each sample's own
POLL_S = 0.05


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def _reader(stream, sink):
    sink.append(stream.read())
    stream.close()


class Child:
    """A sample process with its stdout, stderr and result channel drained
    by threads, so none of the pipes can fill and stall it."""

    def __init__(self, mode, env, *opts):
        r, w = os.pipe()
        self.t_spawn = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, str(CHILD), mode, "--result-fd", str(w), *opts],
            cwd=str(ROOT), env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, pass_fds=(w,),
        )
        os.close(w)
        self._out, self._err, self._res = [], [], []
        self._threads = [
            threading.Thread(target=_reader, args=(self.proc.stdout, self._out)),
            threading.Thread(target=_reader, args=(self.proc.stderr, self._err)),
            threading.Thread(target=_reader, args=(os.fdopen(r, "rb"), self._res)),
        ]
        for t in self._threads:
            t.start()
        self.exit = None
        self.maxrss_kb = 0

    def reap(self, block):
        pid, status, usage = os.wait4(self.proc.pid, 0 if block else os.WNOHANG)
        if pid == 0:
            return False
        self.exit = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.exit
        self.maxrss_kb = usage.ru_maxrss
        for t in self._threads:
            t.join()
        self.stdout = self._out[0].decode()
        self.stderr = self._err[0].decode()
        try:
            self.result = json.loads(self._res[0] or b"null")
        except ValueError:
            self.result = None
        return True


def wait_all(children, deadline):
    """Reap every child, killing all of them at the deadline."""
    live = list(children)
    while live:
        live = [c for c in live if not c.reap(block=False)]
        if live and time.monotonic() > deadline:
            for c in live:
                c.proc.kill()
            for c in live:
                c.reap(block=True)
            break
        time.sleep(POLL_S)


# ---------------------------------------------------------------------------
# samples and their checks
# ---------------------------------------------------------------------------

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def process(self, child, what):
        """One operation per process: a nonzero exit, a signal, or a
        missing result is a failure, whatever the exit code."""
        ok = child.exit == 0 and isinstance(child.result, dict)
        if not ok:
            tail = child.stderr.strip().splitlines()[-3:]
            self.failures.append("%s exited %s: %s" % (what, child.exit, " | ".join(tail)))
        self.attempted += 1
        return ok


_WALL_MS = re.compile(r'"wall_time_ms":\d+')


class Runner:
    def __init__(self, workload, seed, seconds):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + DEADLINE_S
        self.tally = Tally()
        self.setup_s = []
        self.setup_measured_s = []
        self.env = dict(os.environ)
        self.env.pop("MTZ_PRECISION_BITS", None)
        self.env.pop("MTZ_THREADS", None)
        self.env["MPMATH_NOGMPY"] = "1"
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.reference = None  # normalised report lines or table values
        self.serial = []

    def spawn(self, mode, *opts):
        return Child(mode, self.env, "--workload", self.workload, "--seed", str(self.seed), *opts)

    def _setup_time(self, child):
        """Set-up in reference seconds (see speed.py), and as measured."""
        if isinstance(child.result, dict) and "t_setup" in child.result:
            measured = child.result["t_setup"] - child.t_spawn
            self.setup_s.append(measured * child.result["setup_speed"])
            self.setup_measured_s.append(measured)

    def setup_only(self, count):
        for _ in range(count):
            c = self.spawn("setup")
            wait_all([c], self.deadline)
            if self.tally.process(c, "setup"):
                self._setup_time(c)

    def _same_as_reference(self, what, value):
        if self.reference is None:
            self.reference = value
            return True
        return self.tally.op(value == self.reference, "%s differs from the first pass of this run" % what)

    # -- passes --------------------------------------------------------

    def _verify_run(self, threads, trace=False):
        opts = ["--threads", str(threads)] + (["--trace"] if trace else [])
        c = self.spawn("verify", *opts)
        wait_all([c], self.deadline)
        what = "verify all%s%s" % (" --threads %d" % threads if threads > 1 else "", " (traced)" if trace else "")
        ok = self.tally.process(c, what)
        reports = []
        for line in c.stdout.splitlines():
            try:
                reports.append(json.loads(line))
            except ValueError:
                reports.append(None)
        good = [r for r in reports if isinstance(r, dict) and r.get("passed") is True]
        self.tally.attempted += VERIFY_REPORTS
        bad = VERIFY_REPORTS - min(len(good), VERIFY_REPORTS) + max(0, len(reports) - VERIFY_REPORTS)
        self.tally.failures.extend(["%s: a report is missing, extra or failed" % what] * bad)
        self._same_as_reference(what + " report lines", _WALL_MS.sub('"wall_time_ms":0', c.stdout))
        self._setup_time(c)
        if not ok:
            return None
        busy_s = sum(r["wall_time_ms"] for r in good) / 1000
        return {"child": c, "ok": len(good), "busy_s": busy_s}

    def serial_pass(self, trace=False):
        """One serial pass, checked; None if it failed."""
        if self.workload == "verify-default":
            return self._verify_run(1, trace)
        c = self.spawn("table", *(["--trace"] if trace else []))
        wait_all([c], self.deadline)
        self._setup_time(c)
        if not self.tally.process(c, "table pass" + (" (traced)" if trace else "")):
            return None
        p = c.result["pass"]
        self.tally.attempted += p["evals"] + p["checks"]
        self.tally.failures.extend(p["failures"])
        self._same_as_reference("table values", p["values"])
        return {"child": c, "ok": p["checked_ok"], "unit_ref_s": p.get("unit_ref_s", {})}

    def measure(self, seconds):
        """Warm the bytecode cache, time set-up alone, then run serial
        passes until the next one would end after ``seconds`` (at least
        one runs)."""
        warm = self.spawn("setup")
        wait_all([warm], self.deadline)
        self.tally.process(warm, "warm-up import")
        self.setup_only(SETUP_ONLY)
        start = time.monotonic()
        last = 0.0
        while not self.serial or time.monotonic() - start + last <= seconds:
            t = time.monotonic()
            res = self.serial_pass()
            last = time.monotonic() - t
            if res is None:
                break
            self.serial.append(res)

    def end_to_end(self):
        """Metric values from the serial passes, and the raw series."""
        values, raw = {}, {"setup_s": self.setup_s, "measured_setup_s": self.setup_measured_s}
        if self.serial:
            ref = [p["child"].result["ref_s"] for p in self.serial]
            values["wall_s"] = statistics.median(ref)
            values["evals_per_s"] = self.serial[0]["ok"] / values["wall_s"]
            values["peak_rss_mb"] = statistics.median(p["child"].maxrss_kb / 1024 for p in self.serial)
            for bits in (128, 256, 512):
                values["wall_s.b%d" % bits] = statistics.median(
                    sum(v for u, v in p.get("unit_ref_s", {}).items() if u.endswith("@%d" % bits))
                    for p in self.serial
                )
            raw["wall_s"] = ref
            raw["measured_wall_s"] = [p["child"].result["wall_s"] for p in self.serial]
            raw["peak_rss_mb"] = [p["child"].maxrss_kb / 1024 for p in self.serial]
        if self.setup_s:
            values["setup_s"] = statistics.median(self.setup_s)
        return values, raw

    def traced(self):
        """Two-worker passes (verify-default), a traced serial pass with
        its span checks, and the precision sweep.  Timings here are
        measured seconds: no speed clock runs beside the spans."""
        from spans import SPAN_WORKLOADS, layer_metrics

        layer = {"suites.wall_2w_s": 0.0, "suites.worker_busy_share": 0.0}
        if self.workload == "verify-default":
            two = [self._verify_run(2) for _ in range(2)]
            two = [t for t in two if t is not None]
            if two:
                walls = [t["child"].result["wall_s"] for t in two]
                layer["suites.wall_2w_s"] = statistics.median(walls)
                layer["suites.worker_busy_share"] = statistics.median(
                    t["busy_s"] / (2 * w) for t, w in zip(two, walls)
                )
        run = self.serial_pass(trace=True)
        sw = self.spawn("sweep")
        wait_all([sw], self.deadline)
        sweep_ok = self.tally.process(sw, "precision sweep")
        if run is None or not sweep_ok:
            return None
        export = run["child"].result["trace"]
        spans_m, fired = layer_metrics(export)
        layer.update(spans_m)
        missing = [n for n, wls in SPAN_WORKLOADS.items() if self.workload in wls and n not in fired]
        self.tally.op(not missing, "spans that did not fire: %s" % ", ".join(missing))
        layer.update(sw.result["metrics"])
        traced_s = run["child"].result["wall_s"]
        if self.serial:
            untraced = statistics.median(p["child"].result["wall_s"] for p in self.serial)
            layer["trace.overhead_share"] = traced_s / untraced - 1
        return {"layer": layer, "fired": fired, "sites": export["sites"], "traced_wall_s": traced_s}


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def _tail(values):
    """Highest of p75/p90/p95/p99 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return {"p": p, "value": statistics.quantiles(values, n=100, method="inclusive")[p - 1]}
    return None


def _summary(values):
    return {"n": len(values), "median": statistics.median(values), "tail": _tail(values)}


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_revision():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _environment(runner):
    probe = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, mpmath, mpmath.libmp as l; "
         "print(json.dumps([sys.version.split()[0], mpmath.__version__, l.BACKEND]))"],
        env=runner.env, capture_output=True, text=True, timeout=60,
    )
    python, mpmath_version, backend = json.loads(probe.stdout) if probe.returncode == 0 else (None,) * 3
    return {
        "python": python,
        "mpmath": mpmath_version,
        "mpmath_backend": backend,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_revision": _git_revision(),
        "source_sha256_16": _source_digest(),
        "seed": runner.seed,
        "seconds": runner.seconds,
        "load_model": "closed loop, one client, fresh interpreter per sample, at most 2 workers",
    }


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)

    if not (ROOT / "src" / "mtzeta" / "__init__.py").is_file():
        print("perfbench: no mtzeta source under %s/src; run from a checkout" % ROOT, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if ns.trace else spec["end_to_end"]

    runner = Runner(ns.workload, ns.seed, ns.seconds)
    # a traced run spends half its budget on untraced passes, the
    # baseline for trace.overhead_share and the precision split
    runner.measure(ns.seconds // 2 if ns.trace else ns.seconds)
    traced = runner.traced() if ns.trace else None
    estimates, raw = runner.end_to_end()
    values = dict(estimates)
    if traced is not None:
        values.update(traced["layer"])

    failed = len(runner.tally.failures)
    attempted = max(runner.tally.attempted, 1)
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            print("perfbench: metric %s was not measured; failures: %s"
                  % (m["name"], runner.tally.failures[:5]), file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    record = {
        "perfbench-record": ns.workload,
        "environment": _environment(runner),
        "failed_share": failed / attempted,
        "failures": runner.tally.failures[:50],
        "estimates": estimates,
        "samples": {k: _summary(v) for k, v in sorted(raw.items()) if v},
    }
    if traced is not None:
        record["trace"] = {
            "spans_fired": traced["fired"],
            "binding_sites": traced["sites"],
            "traced_wall_s": traced["traced_wall_s"],
            "polylog.hit_ratio_base": values.get("polylog.calls"),
        }
    print(json.dumps(record, sort_keys=True))
    for name, m in metrics.items():
        print("%-36s %14.6g %s" % (name, m["value"], m["unit"]))
    print("%-36s %14.6g %s" % ("failed_share", failed / attempted, "ratio"))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
