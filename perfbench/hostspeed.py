"""Host-speed reference: how fast the host runs a fixed loop, all run long.

The benchmark's host is a small VM that shares its CPUs with other
tenants.  The same single-process work runs up to 1.7x slower from one
second to the next and shifts by 10-15 % between 40-second windows.
The guest does not see this as steal: the process CPU clock slows down
with the wall clock.  No averaging inside a run removes a shift that
lasts longer than the run.

A piece of a run that took ``t`` wall seconds therefore counts as
``t * rate / REFERENCE_RATE`` seconds, ``rate`` being the speed of
:func:`reference_work` while the piece ran: the time it would have
taken on a host that runs the reference at :data:`REFERENCE_RATE`.
Rates are iterations per second of the measuring thread's *CPU time*,
so being preempted does not lower them; a slower host does.  Two
sources, because the rate must be taken where the piece runs:

* pool campaigns run in the workers, on every CPU: :class:`HostSpeed`
  starts a sidecar process (``python -m perfbench.hostspeed``) that
  runs a :data:`BURST_S` burst every :data:`PERIOD_S` all run long
  (about 4 % of one CPU), and a campaign takes the mean of the bursts
  that fell inside it;
* client-side pieces (warm reruns, setup replays) take the mean of
  :meth:`HostSpeed.probe` calls made in the client just before and
  just after them.  Over 90 s of kiel-18 warm reruns the probes
  correlated 0.97 with the rerun speed over 1-10 s windows, the
  sidecar only 0.33-0.71.

The reference is pure Python and NumPy that imports nothing of the
program, so a change to the program moves the scaled figures as it
would move wall-clock ones on a host of steady speed.
"""

from __future__ import annotations

import hashlib
import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

#: Reference iterations per CPU second taken as the nominal host speed:
#: about the median sidecar rate during pool campaigns on the 2-vCPU
#: Intel Xeon (KVM) VM of NOTES.md.  Probes in the client, whose CPU is
#: less contended, run at about 9000-10000 there, so client-side pieces
#: read about 1.5-1.7x their wall time; the factor is the same in every
#: run.
REFERENCE_RATE = 6000.0
#: Seconds between the starts of two sidecar bursts, and CPU seconds of a burst.
PERIOD_S = 0.05
BURST_S = 0.002
#: CPU seconds of one in-process probe (:meth:`HostSpeed.probe`).
PROBE_S = 0.01

_DOCUMENT = json.dumps([{"node": i, "prr": [i * 0.5 % 1.0] * 4} for i in range(20)])
_MATRIX = np.linspace(0.0, 1.0, 48 * 48).reshape(48, 48)
_VECTOR = np.linspace(0.0, 1.0, 48)


def reference_work() -> float:
    """One iteration: a JSON round trip and hash (interpreter, allocator)
    and small-array NumPy calls (dispatch), the two kinds of work every
    layer of the program does."""
    digest = hashlib.sha256(json.dumps(json.loads(_DOCUMENT)).encode()).digest()
    product = _MATRIX @ _VECTOR
    total = float(np.sum(np.where(product > 12.0, product, 0.0)))
    return total + float(np.maximum(_VECTOR, product * 0.01)[0]) + digest[0]


def burst(cpu_s: float) -> float:
    """Run :func:`reference_work` for ``cpu_s`` seconds of this thread's
    CPU time; returns iterations per CPU second."""
    count = 0
    begun = time.thread_time()
    while True:
        reference_work()
        count += 1
        spent = time.thread_time() - begun
        if spent >= cpu_s:
            return count / spent


def sidecar() -> None:
    """Burst every :data:`PERIOD_S` until a byte (or end of file) arrives
    on stdin, then print the samples as JSON ``[[monotonic time, rate], ...]``."""
    samples: List[Tuple[float, float]] = []
    while True:
        due = time.monotonic() + PERIOD_S
        rate = burst(BURST_S)
        samples.append((time.monotonic(), rate))
        ready, _, _ = select.select([sys.stdin], [], [], max(0.0, due - time.monotonic()))
        if ready:
            break
    json.dump(samples, sys.stdout)
    sys.stdout.flush()


class HostSpeed:
    """Wall time scaled to nominal host speed.

    Use as a context manager; the sidecar is stopped and waited for on
    every way out.  Mark a pool campaign with :meth:`mark` before and
    after it; :meth:`nominal` scales it once the sidecar has stopped.
    Scale a client-side piece with :meth:`scale` and the :meth:`probe`
    rates taken just before and after it.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._process: Optional[subprocess.Popen] = None

    def __enter__(self) -> "HostSpeed":
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        ))
        self._process = subprocess.Popen(
            [sys.executable, "-m", "perfbench.hostspeed"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=root, env=env,
        )
        return self

    def __exit__(self, *exc_info) -> None:
        process, self._process = self._process, None
        if process is None:
            return
        try:
            # A byte, not only end of file: forked pool workers may still
            # hold a copy of the pipe's write end.
            out, _ = process.communicate(input=b"\n", timeout=30)
            self.samples = [tuple(sample) for sample in json.loads(out or b"[]")]
        finally:
            if process.poll() is None:
                process.kill()
            process.wait()

    @staticmethod
    def mark() -> float:
        return time.monotonic()

    @staticmethod
    def probe() -> float:
        """Reference rate measured in this thread, now."""
        return burst(PROBE_S)

    @staticmethod
    def scale(wall_s: float, before: float, after: float) -> float:
        """``wall_s`` measured between two probes, as seconds on a host of nominal speed."""
        return wall_s * (before + after) / 2.0 / REFERENCE_RATE

    def rate(self, start: float, end: float) -> float:
        """Mean burst rate between two marks (the nearest burst if none fell between)."""
        if not self.samples:
            raise RuntimeError("the host-speed sidecar returned no samples")
        inside = [rate for when, rate in self.samples if start <= when <= end]
        if inside:
            return sum(inside) / len(inside)
        middle = (start + end) / 2.0
        return min(self.samples, key=lambda sample: abs(sample[0] - middle))[1]

    def nominal(self, wall_s: float, start: float, end: float) -> float:
        """``wall_s`` measured between two marks, as seconds on a host of
        nominal speed (by the sidecar's samples)."""
        return wall_s * self.rate(start, end) / REFERENCE_RATE

    def factor(self) -> float:
        """Median host speed over the run, as a share of the nominal speed."""
        rates = sorted(rate for _, rate in self.samples)
        return rates[len(rates) // 2] / REFERENCE_RATE if rates else float("nan")


if __name__ == "__main__":
    sidecar()
