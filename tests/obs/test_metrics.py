"""MetricsRegistry behavior: instruments, families, registration."""

from __future__ import annotations

import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
)


# -- instruments -------------------------------------------------------


def test_counter_accumulates_and_rejects_negative():
    counter = Counter()
    counter.inc()
    counter.inc(2.5)
    assert counter.value == 3.5
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_gauge_set_inc_dec():
    gauge = Gauge()
    gauge.set(4)
    gauge.inc()
    gauge.dec(2)
    assert gauge.value == 3.0


def test_histogram_buckets_are_inclusive_upper_bounds():
    hist = LatencyHistogram(buckets=(0.1, 1.0))
    hist.observe(0.1)   # == first bound -> first bucket (le semantics)
    hist.observe(0.5)
    hist.observe(99.0)  # overflow -> +Inf bucket
    assert hist.count == 3
    assert hist.cumulative() == [1, 2, 3]
    assert hist.total == pytest.approx(99.6)


def test_histogram_validates_bounds():
    with pytest.raises(ValueError):
        LatencyHistogram(buckets=())
    with pytest.raises(ValueError):
        LatencyHistogram(buckets=(1.0, 1.0))
    with pytest.raises(ValueError):
        LatencyHistogram(buckets=(1.0, float("inf")))


# -- families + registry -----------------------------------------------


def test_family_children_keyed_by_label_values():
    registry = MetricsRegistry()
    family = registry.counter_family("reqs_total", "requests", ("route",))
    family.labels(route="/a").inc()
    family.labels(route="/a").inc()
    family.labels(route="/b").inc(3)
    assert family.labels(route="/a").value == 2.0
    assert family.labels(route="/b").value == 3.0
    assert len(family.children) == 2


def test_family_rejects_wrong_label_names():
    registry = MetricsRegistry()
    family = registry.counter_family("x_total", "", ("route",))
    with pytest.raises(ValueError):
        family.labels(method="GET")
    with pytest.raises(ValueError):
        family.labels()


def test_invalid_metric_and_label_names_rejected():
    registry = MetricsRegistry()
    with pytest.raises(ValueError):
        registry.counter("0bad")
    with pytest.raises(ValueError):
        registry.counter_family("ok_total", "", ("bad-label",))


def test_reregistration_same_shape_returns_same_family():
    registry = MetricsRegistry()
    a = registry.counter("hits_total")
    b = registry.counter("hits_total")
    a.inc()
    assert b.value == 1.0
    assert registry.render_prometheus().count("# TYPE hits_total counter") == 1


def test_reregistration_with_different_shape_fails():
    registry = MetricsRegistry()
    registry.counter("thing")
    with pytest.raises(ValueError):
        registry.gauge("thing")
    registry.histogram("lat", buckets=(1.0, 2.0))
    with pytest.raises(ValueError):
        registry.histogram("lat", buckets=(1.0, 3.0))
    registry.counter_family("fam", "", ("a",))
    with pytest.raises(ValueError):
        registry.counter_family("fam", "", ("b",))


def test_concurrent_label_resolution_single_child():
    registry = MetricsRegistry()
    family = registry.counter_family("c_total", "", ("k",))
    barrier = threading.Barrier(8)

    def hammer():
        barrier.wait()
        for _ in range(100):
            family.labels(k="same").inc()

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(family.children) == 1
    assert family.labels(k="same").value == 800.0


def test_default_buckets_are_strictly_increasing():
    assert all(
        b2 > b1 for b1, b2 in zip(DEFAULT_BUCKETS, DEFAULT_BUCKETS[1:])
    )
