"""Seeded L603: a worker-local bracket escapes to the shared registry.

Publication happens *under the registry lock*, so no L601 fires — the
escape is the defect: another root can observe the worker's private
bracket before the sequential merge.  ``merge`` builds the same bracket
on a main-only path and is clean.
"""

import threading
from concurrent.futures import ThreadPoolExecutor


class WatermarkBracket:
    def __init__(self, index: int) -> None:
        self.index = index
        self.rows = []


class SnapshotRegistry:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._claims = {}


def scan_worker(registry: SnapshotRegistry, index: int) -> list:
    bracket = WatermarkBracket(index)
    with registry._lock:
        registry._claims[index] = bracket  # line 28: L603
    return bracket.rows


def merge(registry: SnapshotRegistry, index: int) -> "WatermarkBracket":
    bracket = WatermarkBracket(index)
    return bracket


def run(registry: SnapshotRegistry) -> None:
    with ThreadPoolExecutor(max_workers=1) as pool:
        pool.submit(scan_worker, registry, 0)
    merge(registry, 1)
