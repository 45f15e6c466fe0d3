"""Service-under-test processes: boot, readiness, memory, shutdown.

Every SUT is a separate Python process started through
``perfbench/sut.py``, so the load generator's threads never share an
interpreter lock with the program it measures.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAUNCHER = Path(__file__).resolve().parent / "sut.py"
ANNOUNCE = "caladrius serving on "

#: Longest a boot, or a drain on SIGTERM, may take before the run fails.
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0


class SutError(RuntimeError):
    """The service process failed to boot, answer or stop cleanly."""


def peak_rss_mb(pid: int | str) -> float:
    """Peak resident set (``VmHWM``) of a live process (or "self"), in MB."""
    path = f"/proc/{pid}/status"
    with open(path, encoding="utf8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise SutError(f"no VmHWM in {path}")


def cpu_seconds(pid: int | str) -> float:
    """User plus system CPU time of a live process (or "self"), in s."""
    with open(f"/proc/{pid}/stat", encoding="utf8") as handle:
        # Fields after the parenthesised command name; utime and stime
        # are the 14th and 15th fields of the whole line.
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def launch(args: list[str], log_path: Path, trace_out: Path | None = None):
    """Start ``sut.py [--trace-out F] <args>``; returns (process, t0)."""
    command = [sys.executable, str(LAUNCHER)]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    command += args
    log = open(log_path, "ab")
    try:
        started = time.monotonic()
        process = subprocess.Popen(
            command,
            cwd=str(ROOT),
            stdout=subprocess.PIPE,
            stderr=log,
            stdin=subprocess.DEVNULL,
            text=True,
        )
    finally:
        log.close()
    return process, started


class Service:
    """One ``caladrius serve`` process booted from a data dir copy."""

    def __init__(
        self,
        data_dir: Path,
        log_path: Path,
        config: Path | None = None,
        trace_out: Path | None = None,
    ) -> None:
        args = ["serve", "--data-dir", str(data_dir), "--port", "0"]
        if config is not None:
            args += ["--config", str(config)]
        self.trace_out = trace_out
        self.process, started = launch(args, log_path, trace_out)
        try:
            self.port = self._await_announce(log_path)
            self.setup_s = self._await_ready(started)
        except BaseException:
            self.kill()
            raise

    def _await_announce(self, log_path: Path) -> int:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        box: list[str] = []

        def read() -> None:
            for line in self.process.stdout:
                if line.startswith(ANNOUNCE):
                    box.append(line)
                    break
            # Keep draining so a chatty process never blocks on the pipe.
            for _ in self.process.stdout:
                pass

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        self._reader = reader
        while not box:
            if self.process.poll() is not None:
                raise SutError(
                    f"service exited with {self.process.returncode} before "
                    f"announcing its port; see {log_path}"
                )
            if time.monotonic() > deadline:
                raise SutError("service did not announce its port in time")
            time.sleep(0.002)
        return int(box[0].strip().rsplit(":", 1)[1])

    def _await_ready(self, started: float) -> float:
        from repro.api.client import CaladriusClient
        from repro.errors import ApiError

        client = CaladriusClient("127.0.0.1", self.port, retries=0)
        try:
            while True:
                try:
                    client.readyz()
                    return time.monotonic() - started
                except (ApiError, OSError):
                    if time.monotonic() - started > BOOT_TIMEOUT_S:
                        raise SutError("service never became ready")
                    time.sleep(0.005)
        finally:
            client.close()

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def cpu_seconds(self) -> float:
        return cpu_seconds(self.process.pid)

    def stop(self) -> None:
        """SIGTERM (drain + final checkpoint), then wait for exit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise SutError("service did not stop after SIGTERM") from None
        self._close_pipe()
        if code != 0:
            raise SutError(f"service exited with status {code}")

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self._close_pipe()

    def _close_pipe(self) -> None:
        reader = getattr(self, "_reader", None)
        if reader is not None:
            reader.join(timeout=5)
        self.process.stdout.close()


def boot(
    ctx,
    prepared: Path,
    boots: int,
    traced: bool,
    config: Path | None = None,
) -> tuple[Service, list[float]]:
    """Boot ``boots`` services on fresh copies of ``prepared``.

    Returns the last one, still running, and every boot's set-up time;
    the earlier boots only measure set-up and are killed.  Only the last
    boot is traced.
    """
    from perfbench.prepare import copy_data_dir

    setup = []
    for index in range(boots):
        last = index == boots - 1
        service = Service(
            copy_data_dir(prepared, ctx.path("data")),
            ctx.workdir / "sut.log",
            config=config,
            trace_out=ctx.path("spans.json") if traced and last else None,
        )
        setup.append(service.setup_s)
        if not last:
            service.kill()
    return service, setup

