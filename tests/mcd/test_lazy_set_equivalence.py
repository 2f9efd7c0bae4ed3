"""Lazily allocated cache and BTB sets behave exactly like eager ones.

``Cache`` and the predictor's ``_BTB`` give a set its container on first
use, and both simulation cores share that code, so the golden suite (which
compares the cores with each other) cannot see a change in it.  These
properties compare them instead with the eager models below, which
allocate every set up front as the original implementation did: same
hit/miss sequence, same counters, same ``probe``/``lookup``/
``predict_quiet`` answers and the same final LRU contents.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

from hypothesis import given
from hypothesis import strategies as st

from repro.mcd.branch import CombinedPredictor, _BTB
from repro.mcd.cache import Cache


class EagerCache:
    """Reference LRU cache: every set is a list from the start."""

    def __init__(self, size_bytes: int, assoc: int, line_size: int) -> None:
        self.assoc = assoc
        self.line_size = line_size
        self.n_sets = size_bytes // (assoc * line_size)
        self.sets: List[List[int]] = [[] for _ in range(self.n_sets)]
        self.hits = 0
        self.misses = 0

    def _index_tag(self, addr: int):
        line = addr // self.line_size
        return line % self.n_sets, line // self.n_sets

    def access(self, addr: int) -> bool:
        index, tag = self._index_tag(addr)
        ways = self.sets[index]
        if tag in ways:
            ways.remove(tag)
            ways.append(tag)
            self.hits += 1
            return True
        self.misses += 1
        ways.append(tag)
        if len(ways) > self.assoc:
            ways.pop(0)
        return False

    def probe(self, addr: int) -> bool:
        index, tag = self._index_tag(addr)
        return tag in self.sets[index]


class EagerBTB:
    """Reference BTB: every set is an ``OrderedDict`` from the start."""

    def __init__(self, sets: int, ways: int) -> None:
        self.sets = sets
        self.ways = ways
        self._tables = [OrderedDict() for _ in range(sets)]

    def _index(self, pc: int) -> int:
        return (pc >> 2) % self.sets

    def lookup(self, pc: int) -> Optional[int]:
        table = self._tables[self._index(pc)]
        target = table.get(pc)
        if target is not None:
            table.move_to_end(pc)
        return target

    def insert(self, pc: int, target: int) -> None:
        table = self._tables[self._index(pc)]
        table[pc] = target
        table.move_to_end(pc)
        if len(table) > self.ways:
            table.popitem(last=False)


def _btb_contents(btb) -> List[list]:
    return [list(table.items()) for table in btb._tables]


# Small structures and narrow address ranges so sets conflict and evict.
_addresses = st.integers(min_value=0, max_value=4095)
_pcs = st.integers(min_value=0, max_value=255).map(lambda word: word * 4)
_targets = st.integers(min_value=0, max_value=2**20)


@given(
    assoc=st.sampled_from([1, 2]),
    ops=st.lists(st.tuples(st.booleans(), _addresses), max_size=300),
)
def test_cache_matches_eager_model(assoc, ops):
    cache = Cache("c", 256 * assoc, assoc, 32)  # 8 sets either way
    model = EagerCache(256 * assoc, assoc, 32)
    for is_access, addr in ops:
        if is_access:
            assert cache.access(addr) == model.access(addr)
        else:
            assert cache.probe(addr) == model.probe(addr)
    assert (cache.hits, cache.misses) == (model.hits, model.misses)
    assert [list(ways) for ways in cache._sets] == model.sets


@given(
    ops=st.lists(st.tuples(st.booleans(), _pcs, _targets), max_size=300),
)
def test_btb_matches_eager_model(ops):
    btb = _BTB(sets=8, ways=2)
    model = EagerBTB(sets=8, ways=2)
    for is_insert, pc, target in ops:
        if is_insert:
            btb.insert(pc, target)
            model.insert(pc, target)
        else:
            assert btb.lookup(pc) == model.lookup(pc)
    assert _btb_contents(btb) == _btb_contents(model)


def _small_predictor() -> CombinedPredictor:
    return CombinedPredictor(
        bimodal_size=16,
        twolevel_l1_size=16,
        twolevel_hist_bits=4,
        twolevel_l2_size=16,
        meta_size=16,
        btb_sets=8,
        btb_ways=2,
    )


@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["predict", "predict_quiet", "resolve"]),
            _pcs,
            st.booleans(),
            _targets,
        ),
        max_size=300,
    ),
)
def test_combined_predictor_matches_eager_btb(ops):
    predictor = _small_predictor()
    model = _small_predictor()
    model.btb = EagerBTB(sets=8, ways=2)
    for op, pc, taken, target in ops:
        if op == "resolve":
            assert predictor.resolve(pc, taken, target) == model.resolve(
                pc, taken, target
            )
        else:
            assert getattr(predictor, op)(pc) == getattr(model, op)(pc)
    assert (predictor.predictions, predictor.mispredictions) == (
        model.predictions,
        model.mispredictions,
    )
    assert _btb_contents(predictor.btb) == _btb_contents(model.btb)
