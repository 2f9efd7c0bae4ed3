"""Suppression fixture: every finding here carries a pragma."""

import time


def profiled(job):
    started = time.time()  # statcheck: disable=DET002 -- profiling only
    result = job.run()
    return result, time.time() - started  # statcheck: disable=all -- wall-clock timing is the point here


def best_effort(job):
    try:
        return job.run()
    except Exception:  # statcheck: disable=PY002 -- caller treats None as "retry later"
        return None
