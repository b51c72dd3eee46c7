"""A multi-process ``repro serve`` in a subprocess, for the tests.

The process count has no flag: ``repro serve`` runs one process per
schedulable core.  The small script below fixes the count by replacing
:func:`repro.exec.procpool.schedulable_cores` before it calls
:func:`run_server`, in a fresh interpreter — the supervisor forks only
a single-threaded process.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

from repro.serve.loadgen import _Client

SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")

_SCRIPT = """
import json, sys
from repro.exec import procpool
from repro.index.store import StoreFaultInjector
from repro.serve import QueryService, ServiceConfig, run_server

store, processes, config, faults = sys.argv[1:5]
procpool.schedulable_cores = lambda: int(processes)
faults = json.loads(faults)
service = QueryService(
    store, ServiceConfig(**json.loads(config)),
    store_faults=StoreFaultInjector(**faults) if faults else None,
)
sys.exit(run_server(service))
"""


class ServeProcesses:
    """``run_server`` over ``store`` in a subprocess, on ``processes``
    cores whatever the machine has; ``faults`` are
    :class:`StoreFaultInjector` keyword arguments."""

    def __init__(self, store, processes: int = 2, faults=None, **config):
        config.setdefault("port", 0)
        # Explicit, so REPRO_EXEC=process (whose shard workers keep the
        # server at one process) cannot change what is under test.
        config.setdefault("executor", "serial")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _SCRIPT, str(store), str(processes),
             json.dumps(config), json.dumps(faults)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env,
        )
        line = self.proc.stdout.readline()
        if "on http://" not in line:
            self.proc.kill()
            raise AssertionError(line + self.proc.communicate()[0])
        self.port = int(line.rsplit(":", 1)[1])

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self, sig=signal.SIGTERM) -> tuple[int, str]:
        """Signal the parent; its exit code and the rest of its output."""
        self.proc.send_signal(sig)
        out, _ = self.proc.communicate(timeout=30)
        return self.proc.returncode, out

    def __enter__(self) -> "ServeProcesses":
        return self

    def __exit__(self, *exc_info) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        if not self.proc.stdout.closed:
            self.proc.communicate(timeout=30)


async def connections(port: int, count: int) -> list[_Client]:
    """``count`` keep-alive connections, all open before any request,
    so the parent places them side by side."""
    clients = [_Client("127.0.0.1", port) for _ in range(count)]
    for client in clients:
        await client.connect()
    return clients


async def served_by(client: _Client) -> int:
    """The pid of the process serving ``client``'s connection."""
    _, body, _ = await client.request("/readyz")
    (row,) = body["processes"]
    return row["pid"]


def exited(pid: int) -> bool:
    """Gone, or a zombie nobody has reaped yet."""
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat[stat.rindex(")") + 2] == "Z"


def wait_exited(pids, timeout_s: float) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if all(exited(pid) for pid in pids):
            return True
        time.sleep(0.02)
    return all(exited(pid) for pid in pids)
