"""One measured main() call in a fresh interpreter.

    python3 reebbench/child.py <import|run|trace> <workload> <main argv...>

The child times `import reebspec.cli` first, with a SpeedProbe running, so
nothing it imports itself may pull in numpy or reebspec before that.
`import_s` is that time in seconds and `setup_s` the same in reference
seconds.  `import` stops there (a set-up probe).  `run` calls main(argv)
once with stdout going to a hashing sink, again with a SpeedProbe
running; `trace` does the same inside a Tracer, without the probe.  The
last line of the child's stdout is one JSON object with its numbers.
"""

import contextlib  # loaded by the interpreter's own start-up
import os
import sys
import time

# About the reference loop's rate, in iterations per second, inside the
# probes of a 2-vCPU x86-64 host.  It only fixes the scale of a reference
# second; changing it would rescale every `items_per_ref_s` ever reported.
REF_LOOPS_PER_S = 4e6


def reference_loop(loops):
    """Fixed pure-Python integer work, the yardstick of a SpeedProbe."""
    from math import isqrt
    s = 0
    for n in range(1, loops + 1):
        s += isqrt(n * n * 2) // 3
    return s


class SpeedProbe:
    """Samples how fast the machine runs Python while a measured call runs.

    On a shared host the same call can take twice as long when a neighbour
    is busy, for minutes at a time.  Every PERIOD_S of wall time a SIGALRM
    handler runs `reference_loop(LOOPS)` on the main thread, between two
    bytecodes of the measured call, and times it.  `ref_s(own_s)` converts
    the call's own time (wall time minus the probes) to reference seconds:
    the time the reference loop would have needed at REF_LOOPS_PER_S to do
    as many iterations as it did in the same time during the call.  A
    slow-down that hits both alike cancels; a change to the program moves
    the call's time and not the loop's.  The probes take about 1% of the
    call and are taken the same way on every commit.
    """

    PERIOD_S = 0.02
    LOOPS = 1000

    def __init__(self):
        self.samples = []

    def _sample(self, signum, frame):
        start = time.perf_counter()
        reference_loop(self.LOOPS)
        self.samples.append(time.perf_counter() - start)

    @contextlib.contextmanager
    def installed(self):
        import signal
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def probe_s(self):
        return sum(self.samples)

    def ref_s(self, own_s):
        """`own_s` seconds of the call in reference seconds."""
        if not self.samples:  # a call shorter than PERIOD_S
            self._sample(None, None)
        loops_per_s = self.LOOPS * len(self.samples) / self.probe_s()
        return own_s * loops_per_s / REF_LOOPS_PER_S


class HashSink:
    """A text stdout that hashes and counts what it is given and keeps the
    written strings by reference, so checking them costs no copy while
    the peak memory of main() is still being measured."""

    def __init__(self):
        import hashlib
        self._sha = hashlib.sha256()
        self.nbytes = 0
        self.parts = []

    def write(self, text):
        data = text.encode("utf-8")
        self._sha.update(data)
        self.nbytes += len(data)
        self.parts.append(text)
        return len(text)

    def flush(self):
        pass

    def hexdigest(self):
        return self._sha.hexdigest()


def measure(argv, trace):
    """Call reebspec.cli.main(argv) once; return its numbers and stdout.

    Timed runs (trace false) never import the tracer, so nothing in the
    package is wrapped while they are timed; a SpeedProbe samples them
    instead.  `main_s` is the call's own time, without the probes.
    """
    import resource
    import traceback

    import reebspec.cli as cli

    sink = HashSink()
    tracer = probe = None
    if trace:
        from reebbench.spans import Tracer
        tracer = Tracer()
        scope = tracer.installed()
    else:
        probe = SpeedProbe()
        scope = probe.installed()
    error = None
    with scope, contextlib.redirect_stdout(sink):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except Exception:  # a traceback is a failed answer, not a crash
            code, error = None, traceback.format_exc()[-2000:]
        wall_s = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    main_s = wall_s if probe is None else wall_s - probe.probe_s()
    result = {
        "main_s": main_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "exit": code,
        "error": error,
        "sha256": sink.hexdigest(),
        "output_bytes": sink.nbytes,
    }
    if probe is not None:
        result["main_ref_s"] = probe.ref_s(main_s)
        result["probes"] = len(probe.samples)
        result["probe_s"] = probe.probe_s()
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(sink.nbytes)
        result["self_times"] = tracer.self_times()
        result["spans"] = [[s.id, s.name, s.start, s.end, s.parent]
                           for s in tracer.spans]
    return result, "".join(sink.parts)


def main(mode, workload_name, argv):
    probe = SpeedProbe()
    with probe.installed():
        start = time.perf_counter()
        import reebspec.cli  # noqa: F401
        import_s = time.perf_counter() - start - probe.probe_s()

    import json
    from pathlib import Path

    import reebspec

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(reebspec.__file__).resolve().parents:
        raise SystemExit(f"reebspec imported from {reebspec.__file__}, "
                         f"not from {src}")
    result = {"import_s": import_s, "setup_s": probe.ref_s(import_s)}
    if mode != "import":
        from reebbench import workloads
        measured, text = measure(argv, mode == "trace")
        result.update(measured)
        workload = workloads.WORKLOADS[workload_name]
        code = -1 if measured["exit"] is None else measured["exit"]
        result["items"] = workload.items(argv)
        result["failed"], result["problems"] = workloads.check(
            workload, argv, code, text)
    print(json.dumps(result))


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    main(sys.argv[1], sys.argv[2], sys.argv[3:])
