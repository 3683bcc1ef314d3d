"""The ``"machine"`` entry of every BENCH_*.json the tools in this directory write.

The tools run as scripts (``python tools/kernel_cost.py``), children included,
so this directory is first on ``sys.path`` and ``from _machine import machine``
finds this module.
"""

from __future__ import annotations

import os
import platform


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine() -> dict:
    """Core count, CPU model, and the Python and numpy versions."""
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
