"""Run ``repro-mc serve`` with the layer wrappers installed.

Usage: ``python3 perfbench/traced_server.py OUT.json serve [serve options]``
with ``src`` on ``PYTHONPATH``.  SIGUSR1 starts a fresh measurement
window (send it while no request is in flight); SIGUSR2 writes the
window's per-thread layer tallies and CPU seconds, kernel counter
deltas, and the process's wall and CPU seconds to ``OUT.json``.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict

import layertrace


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _thread_cpu_s() -> Dict[str, float]:
    """CPU seconds so far of each live thread, by thread name."""
    ticks = os.sysconf("SC_CLK_TCK")
    out: Dict[str, float] = {}
    for thread in threading.enumerate():
        try:
            stat = Path(f"/proc/self/task/{thread.native_id}/stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        out[thread.name] = (int(fields[11]) + int(fields[12])) / ticks
    return out


def main() -> int:
    out = Path(sys.argv[1])
    from repro import cli
    from repro.analysis.kernels import PERF

    clock = layertrace.LayerClock()
    layertrace.Installation(clock).install()
    window: Dict[str, Any] = {}

    def start_window(*_: Any) -> None:
        clock.reset()
        window.update(
            perf=PERF.snapshot(), wall=time.perf_counter(), cpu=_cpu_s(), threads=_thread_cpu_s()
        )

    def dump(*_: Any) -> None:
        threads = _thread_cpu_s()
        record = {
            "threads": clock.export_by_thread(),
            "thread_cpu_s": {
                name: cpu - window["threads"].get(name, 0.0) for name, cpu in threads.items()
            },
            "perf": PERF.delta_since(window["perf"]),
            "wall_s": time.perf_counter() - window["wall"],
            "cpu_s": _cpu_s() - window["cpu"],
        }
        tmp = out.with_suffix(".tmp")
        tmp.write_text(json.dumps(record))
        os.replace(tmp, out)

    start_window()
    signal.signal(signal.SIGUSR1, start_window)
    signal.signal(signal.SIGUSR2, dump)
    return cli.main(sys.argv[2:])


if __name__ == "__main__":
    sys.exit(main())
