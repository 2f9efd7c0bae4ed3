"""ASYNC003 clean fixture: confinement respected.

Loop-side callers touch the confined registry directly; thread-side
code lives outside the confined class and hands work back via
``call_soon_threadsafe`` (a loop-kind edge the thread traversal refuses
to follow); ``__init__`` is exempt (happens-before publication).
"""

import threading


# statcheck: loop-confined
class Registry:
    def __init__(self):
        self.jobs = {}

    def publish(self, key, value):
        self.jobs[key] = value

    async def handle(self, key, value):
        self.publish(key, value)

    def spawn_worker(self, loop):
        thread = threading.Thread(target=worker, args=(loop, self))
        thread.start()

    def spawn_safe(self):
        thread = threading.Thread(target=publish_threadsafe)
        thread.start()


_totals = {}
_totals_lock = threading.Lock()


def publish_threadsafe(key, value):
    with _totals_lock:
        _totals[key] = value


def worker(loop, registry: Registry, key, value):
    # touches no state, only hops to the loop
    loop.call_soon_threadsafe(registry.publish, key, value)


def build():
    return Registry()
