"""Processes and memory: peak RSS, the ``repro serve`` subprocess, and
stopping every process a run started, when it ends and when it is
terminated."""

from __future__ import annotations

import http.client
import os
import pathlib
import select
import shutil
import signal
import subprocess
import sys
import time

from graftbench import SRC


def peak_rss_mb(pids) -> float:
    """Sum of the peak resident set sizes (``VmHWM``) of ``pids`` in MB."""
    total_kb = 0
    for pid in pids:
        try:
            text = pathlib.Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue  # the process ended between listing and reading
        for line in text.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
                break
    return total_kb / 1024.0


def child_pids(parent: int | None = None) -> list[int]:
    """Direct children of ``parent`` (default: this process)."""
    parent = os.getpid() if parent is None else parent
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = pathlib.Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        # "pid (comm) state ppid ..." — comm may contain spaces or ')'.
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[1]) == parent:
            children.append(int(entry))
    return children


def shm_segments() -> set[str]:
    """Names of the POSIX shared-memory segments Python created."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except OSError:
        return set()


def _hang_up_resource_tracker() -> None:
    """Close this process's end of the pipe to multiprocessing's resource
    tracker, the helper process the first shared-memory segment starts.

    The tracker ignores SIGTERM and ends only when every write end of that
    pipe is closed — by default when this process exits, so it outlives the
    run by a moment.  Closing ours (the forked pool workers hold copies,
    which go with them) lets it end while ``stop_children`` still waits.
    """
    module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(module, "_resource_tracker", None)
    fd = getattr(tracker, "_fd", None)
    if fd is not None:
        tracker._fd = None
        try:
            os.close(fd)
        except OSError:
            pass


def _signal_children(signum: int) -> None:
    for pid in child_pids():
        try:
            os.kill(pid, signum)
        except ProcessLookupError:
            pass


def stop_children(signum: int | None = None, grace_s: float = 15.0) -> None:
    """Return once every process this one started has ended and is reaped.

    Sends ``signum`` to each child first, if given.  A child still there
    after ``grace_s`` is killed.  Takes no lock and raises nothing, so it
    is safe in a signal handler; a child's owner (``Popen``, the process
    pool) that waits for it later finds it gone, which both accept.
    """
    _hang_up_resource_tracker()
    if signum is not None:
        _signal_children(signum)
    kill_at = time.monotonic() + grace_s
    give_up_at = kill_at + 5.0
    killed = False
    while True:
        for pid in child_pids():
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass  # its owner reaped it between listing and waiting
        now = time.monotonic()
        if not child_pids() or now > give_up_at:
            return
        if not killed and now > kill_at:
            _signal_children(signal.SIGKILL)
            killed = True
        time.sleep(0.002)


def sigterm_stops_children(scratch: pathlib.Path) -> None:
    """On SIGTERM: SIGTERM every child process, wait until each has ended,
    remove ``scratch``, exit.

    The handler touches no lock the interrupted code may hold — it reads
    /proc, signals, waits and unlinks.  The server drains and ends on its
    signal; the pool workers end on theirs (they inherit this handler);
    multiprocessing's resource tracker unlinks the shared-memory segment
    and ends once the last process holding its pipe has closed it.
    (Closing the engine from the handler deadlocks when the signal lands
    inside ``executor.submit``; raising from it is swallowed when it lands
    inside ``os.fork``'s at-fork callbacks.)
    """
    def _stop(signum, frame):
        stop_children(signal.SIGTERM)
        shutil.rmtree(scratch, ignore_errors=True)
        os._exit(128 + signum)

    signal.signal(signal.SIGTERM, _stop)


class ServeProcess:
    """``python -m repro serve <store> --port 0 ...`` as a subprocess.

    ``start_s`` is spawn → first ``/readyz`` 200; ``stop`` sends SIGTERM
    and waits for the drain.
    """

    def __init__(self, store_dir, *extra_args: str):
        self.store_dir = str(store_dir)
        self.extra_args = extra_args
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None
        self.start_s: float | None = None

    def start(self) -> "ServeProcess":
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", self.store_dir,
             "--port", "0", "--executor", "serial", *self.extra_args],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        try:
            self.port = self._read_port(timeout_s=30.0)
            self._wait_ready(timeout_s=30.0)
        except BaseException:
            self.stop()
            raise
        self.start_s = time.perf_counter() - started
        return self

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _read_port(self, timeout_s: float) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout_s)
        line = self.proc.stdout.readline().decode() if ready else ""
        if "http://" not in line:
            raise RuntimeError(f"server did not announce a port: {line!r}")
        return int(line.rsplit(":", 1)[1])

    def _wait_ready(self, timeout_s: float) -> None:
        deadline = time.monotonic() + timeout_s
        while True:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                conn.request("GET", "/readyz")
                response = conn.getresponse()
                response.read()
                if response.status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            if time.monotonic() > deadline:
                raise RuntimeError("server never became ready")
            time.sleep(0.005)

    def stop(self) -> None:
        """SIGTERM, wait for the drain; SIGKILL if it does not end."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()
