"""Child processes of the benchmark: spawn, account, always clean up."""

from __future__ import annotations

import os
import pathlib
import signal
import subprocess

from . import spec

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def child_env() -> dict[str, str]:
    """The parent's environment plus the BLAS caps and an import path
    that finds this checkout's ``repro`` and ``bench``."""
    env = dict(os.environ)
    env.update(spec.BLAS_CAPS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + (
            [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []
        )
    )
    return env


def read_line(proc: subprocess.Popen, prefix: str) -> str:
    """Next stdout line of ``proc`` starting with ``prefix`` (returned
    without it); other lines are skipped.  A child that exits first is
    an error.  Hangs are the run watchdog's job (see bench/run.py)."""
    for line in proc.stdout:
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    raise RuntimeError(
        f"child {proc.args[:4]} ended (code {proc.wait()}) before "
        f"printing {prefix!r}"
    )


def cpu_seconds(pid: int) -> float:
    """User + system CPU time of process ``pid`` so far."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def peak_rss_mb(pid: int) -> float:
    """Peak resident set of live process ``pid`` in MiB (``VmHWM``, the
    figure ``ru_maxrss`` reports once the process has been waited for)."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Children:
    """Every process the benchmark starts, so that any exit path can
    stop them all and wait until each has ended."""

    def __init__(self) -> None:
        self._procs: list[subprocess.Popen] = []

    def popen(self, cmd: list[str], **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(cmd, **kwargs)
        self._procs.append(proc)
        return proc

    def reap(self, proc: subprocess.Popen, timeout_s: float = 20.0) -> None:
        """Wait for a child that exits by itself; non-zero is an error."""
        try:
            code = proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.stop(proc)
            raise RuntimeError(f"child {proc.args[:4]} did not exit")
        self._forget(proc)
        if code != 0:
            raise RuntimeError(f"child {proc.args[:4]} exited with {code}")

    def stop(self, proc: subprocess.Popen, sig: int = signal.SIGTERM) -> None:
        """Signal a child and wait until it has ended."""
        if proc.poll() is None:
            proc.send_signal(sig)
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self._forget(proc)

    def _forget(self, proc: subprocess.Popen) -> None:
        if proc.stdout is not None:
            proc.stdout.close()
        if proc in self._procs:
            self._procs.remove(proc)

    def stop_all(self) -> None:
        for proc in list(self._procs):
            self.stop(proc, signal.SIGKILL)
