"""Run one ``repro-anonymize`` command with the benchmark's hooks installed.

    python benchmarks/perf/launch.py REPORT [--trace-dir DIR | --setup-only] -- ARGS...

``ARGS`` go to ``repro.cli.main`` unchanged: a batch run, or ``serve ...``
for the daemon.  Every process of the command writes a JSON report when it
ends: the first one to ``REPORT``, each pool or daemon worker it forks to
``REPORT.<pid>``.  A report holds

* ``setup_done``: the monotonic time at which the process's first
  anonymizer finished constructing, the end of a batch run's set-up;
* ``files``: ``[source, start, end]`` of every ``anonymize_file`` call;
* ``requests``: ``[source, start, end]`` of every anonymize request a
  daemon worker routed (``_route``: body read, work done, response sent);
* ``speed``: ``[start, seconds]`` of every run of the speed probe;
* ``peak_rss_kb``.

``--setup-only`` ends the process right after its set-up.  With
``--trace-dir`` every layer wrapper of :mod:`tracing` is installed as well
(before the daemon's supervisor or the batch pool forks, so their children
inherit them) and each process writes its records into ``DIR``.  The exit
code is the command's.
"""

from __future__ import annotations

import functools
import json
import os
import signal
import sys
import time

#: Iterations of the speed probe's loop; they take about ``REFERENCE_PROBE_S``
#: on an uncontended core of the 2-vCPU Xeon the README's numbers come from.
PROBE_LOOPS = 3000
REFERENCE_PROBE_S = 0.0004
#: CPU seconds a process uses between two runs of the probe.
PROBE_EVERY_S = 0.02


def probe() -> float:
    """Seconds the host takes, right now, for a fixed piece of Python work."""
    started = time.perf_counter()
    table = {}
    for i in range(PROBE_LOOPS):
        table[i & 255] = len(str(i))
    return time.perf_counter() - started


class SpeedSampler:
    """Runs :func:`probe` every ``PROBE_EVERY_S`` of this process's CPU time.

    The host's other tenants slow its cores down by up to 1.8 times, for
    seconds to minutes at a time.  The probe runs on the core and at the
    moment the program's own code runs, so it sees the same slow-down, and
    ``run.py`` divides each timed interval by the speed sampled during it.
    A CPU-time timer (``ITIMER_VIRTUAL``) fires only while the process
    computes, so an idle process is not sampled.  Interval timers do not
    survive ``fork``; the sampler restarts in every child.
    """

    def __init__(self):
        self.samples = []
        os.register_at_fork(after_in_child=self._restart)

    def start(self) -> None:
        signal.signal(signal.SIGVTALRM, self._on_timer)
        self._restart()

    def _restart(self) -> None:
        self.samples = []
        self._on_timer()
        signal.setitimer(signal.ITIMER_VIRTUAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        """Before the interpreter exits: it resets the signal handler to
        the default, which would let the next tick kill the process."""
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)

    def _on_timer(self, *_) -> None:
        started = time.monotonic()
        self.samples.append((started, probe()))


def vm_hwm_kb(pid="self") -> int:
    """Peak resident set of a live process (0 once it is gone).

    Not ``ru_maxrss``: the kernel carries that across ``exec`` from the
    process that spawned this one, so it reads the benchmark's own peak.
    """
    try:
        with open("/proc/{}/status".format(pid)) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def anonymize_source(handler):
    """The ``X-Repro-Source`` of an anonymize request, else None."""
    parts = [part for part in handler.path.split("?", 1)[0].split("/") if part]
    if len(parts) == 3 and parts[0] == "sessions" and parts[2] == "anonymize":
        return handler.headers.get("X-Repro-Source", "<config>")
    return None


def at_pool_worker_exit(replace, flush) -> None:
    """Make every ``core.parallel`` pool worker call *flush* when it ends.

    Pool workers leave through ``os._exit``, so ``atexit`` never runs in
    them; a ``multiprocessing.util.Finalize`` registered by the worker
    initializer does.  ``replace(owner, name, wrapper)`` installs each
    wrapped initializer.
    """
    from repro.core import parallel

    for name in ("_init_worker", "_init_worker_fork", "_init_worker_shm"):
        init = vars(parallel)[name]

        @functools.wraps(init)
        def initializer(*args, init=init):
            from multiprocessing import util  # loaded in a worker; not in set-up

            util.Finalize(None, flush, exitpriority=100)
            return init(*args)

        replace(parallel, name, initializer)


def at_daemon_worker_exit(replace, flush) -> None:
    """Make every daemon worker call *flush* when its serve loop returns
    (it then leaves through ``os._exit``)."""
    from repro.service import supervisor

    worker_process = vars(supervisor)["_worker_process"]

    @functools.wraps(worker_process)
    def worker(*args, **kwargs):
        try:
            return worker_process(*args, **kwargs)
        finally:
            flush()

    replace(supervisor, "_worker_process", worker)


def main(argv) -> int:
    sampler = SpeedSampler()
    sampler.start()
    split = argv.index("--")
    report_path, options, command = argv[0], argv[1:split], argv[split + 1:]
    trace_dir = options[1] if options[:1] == ["--trace-dir"] else None
    setup_only = options == ["--setup-only"]
    serve = command[:1] == ["serve"]

    import repro.cli
    from repro.core import engine

    pid = os.getpid()
    marks = {}
    files = []
    requests = []

    def forget():
        files.clear()
        requests.clear()

    os.register_at_fork(after_in_child=forget)
    construct = engine.Anonymizer.__init__
    rewrite = engine.Anonymizer.anonymize_file

    def write_report():
        path = report_path if os.getpid() == pid else "{}.{}".format(report_path, os.getpid())
        with open(path, "w") as handle:
            json.dump(
                dict(marks, pid=os.getpid(), files=files, requests=requests,
                     speed=sampler.samples, peak_rss_kb=vm_hwm_kb()),
                handle,
            )

    @functools.wraps(construct)
    def marked_construct(self, *args, **kwargs):
        construct(self, *args, **kwargs)
        if os.getpid() == pid and "setup_done" not in marks:
            marks["setup_done"] = time.monotonic()
            if setup_only:
                write_report()
                os._exit(0)

    @functools.wraps(rewrite)
    def timed_rewrite(self, *args, **kwargs):
        started = time.monotonic()
        result = rewrite(self, *args, **kwargs)
        source = kwargs.get("source", args[1] if len(args) > 1 else "<config>")
        files.append((source, started, time.monotonic()))
        return result

    engine.Anonymizer.__init__ = marked_construct
    engine.Anonymizer.anonymize_file = timed_rewrite
    at_pool_worker_exit(setattr, write_report)
    if serve:
        from repro.service import server

        route = server.ServiceRequestHandler._route

        @functools.wraps(route)
        def timed_route(handler, method):
            started = time.monotonic()
            try:
                return route(handler, method)
            finally:
                source = anonymize_source(handler)
                if source is not None:
                    requests.append((source, started, time.monotonic()))

        server.ServiceRequestHandler._route = timed_route
        at_daemon_worker_exit(setattr, write_report)
    tracer = None
    if trace_dir is not None:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, trace_dir)
    try:
        return repro.cli.main(command)
    finally:
        sampler.stop()
        write_report()
        if tracer is not None:
            tracer.dump(trace_dir)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
