"""A reference loop that runs beside every job on the same CPU, so that job
CPU time can be given at a fixed reference speed.

The 2-vCPU machine this benchmark was written on shares its host with other
tenants.  The speed of each vCPU moves by up to twofold within seconds and
stays in one state for tens of seconds, so the CPU time of the same job
moved by a quarter between runs a few minutes apart.  Reading the speed
before or after a job does not help: it has changed by the time the job
runs.  The ticker instead runs during the job, time-sliced with it on the
same CPU, and counts the fixed units of work it completes per second of its
own CPU time.  That rate rises and falls with the speed the job sees, so
`job CPU s * rate / REF_RATE` is the job's CPU time at the reference speed.

The unit is a short loop of integer arithmetic in the interpreter.  Beside
four CLI jobs over four minutes it tracked their CPU time best of three
candidates: scaled by it, the CPU time of each job moved by 2-3% (standard
deviation over mean) where unscaled it moved by 15-17%.  Loops of dict
updates over 1 MB and over 100 MB did worse (5-7%).  The ticker runs at a
lower priority (NICE), so the job keeps about three quarters of the CPU
while the ticker still gets a slice every few milliseconds.
"""

from __future__ import annotations

import ctypes
import mmap
import os
import signal
import struct
import sys
import time

UNIT_STEPS = 200
NICE = 5
# units per CPU second of the ticker on the machine where the benchmark was
# written, in its slower state: the speed the `ref_` times are given at
REF_RATE = 70_000.0
_PR_SET_PDEATHSIG = 1
_LAYOUT = struct.Struct("dd")  # units done, ticker CPU s


def pin_to_one_cpu() -> int:
    """Restrict this process, and so every process it starts, to one CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Ticker:
    """The reference loop in a forked child; read it around each job."""

    def __init__(self):
        self._shm = mmap.mmap(-1, _LAYOUT.size)
        sys.stdout.flush()
        sys.stderr.flush()
        parent = os.getpid()
        self.pid = os.fork()
        if self.pid == 0:
            try:
                self._spin(parent)
            finally:
                os._exit(0)

    def _spin(self, parent: int):
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
        if os.getppid() != parent:
            return
        os.nice(NICE)
        done = 0
        while True:
            x = 0
            for i in range(UNIT_STEPS):
                x += i * i % 7
            done += 1
            self._shm[:] = _LAYOUT.pack(done, time.thread_time())

    def mark(self) -> tuple:
        """(units done, ticker CPU s), read until two reads agree."""
        last = None
        while True:
            now = _LAYOUT.unpack(self._shm[:])
            if now == last:
                return now
            last = now

    def rate_since(self, mark: tuple) -> float:
        """Units per ticker CPU second since `mark`."""
        units, cpu = self.mark()
        if cpu <= mark[1]:
            raise RuntimeError("the reference loop got no CPU time during the job")
        return (units - mark[0]) / (cpu - mark[1])

    def close(self):
        try:
            os.kill(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        os.waitpid(self.pid, 0)
        self._shm.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
