"""Combined branch predictor + BTB (paper Table 1).

Components: a 1024-entry bimodal table, a two-level predictor (1024
10-bit-history level-1 entries, 1024-entry level-2 pattern table), a
4096-entry meta chooser, and a 4096-set 2-way BTB.  All tables use 2-bit
saturating counters.
"""

from __future__ import annotations

from collections import OrderedDict
from types import MappingProxyType
from typing import List, Mapping, Optional, Tuple

#: what a BTB set reads as until its first insert allocates its table
_UNTOUCHED: Mapping[int, int] = MappingProxyType({})


def _saturate(counter: int, taken: bool) -> int:
    """Update a 2-bit saturating counter."""
    if taken:
        return min(3, counter + 1)
    return max(0, counter - 1)


class _Bimodal:
    def __init__(self, size: int) -> None:
        self.size = size
        self.table: List[int] = [2] * size  # weakly taken

    def _index(self, pc: int) -> int:
        return (pc >> 2) % self.size

    def predict(self, pc: int) -> bool:
        return self.table[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> None:
        i = self._index(pc)
        self.table[i] = _saturate(self.table[i], taken)


class _TwoLevel:
    """A per-address-history two-level adaptive predictor (GAp-style)."""

    def __init__(self, l1_size: int, hist_bits: int, l2_size: int) -> None:
        self.l1_size = l1_size
        self.hist_bits = hist_bits
        self.hist_mask = (1 << hist_bits) - 1
        self.l2_size = l2_size
        self.histories: List[int] = [0] * l1_size
        self.pattern: List[int] = [2] * l2_size

    def _l1_index(self, pc: int) -> int:
        return (pc >> 2) % self.l1_size

    def _l2_index(self, pc: int) -> int:
        history = self.histories[self._l1_index(pc)]
        return (history ^ (pc >> 2)) % self.l2_size

    def predict(self, pc: int) -> bool:
        return self.pattern[self._l2_index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> None:
        l2 = self._l2_index(pc)
        self.pattern[l2] = _saturate(self.pattern[l2], taken)
        l1 = self._l1_index(pc)
        self.histories[l1] = ((self.histories[l1] << 1) | int(taken)) & self.hist_mask


class _BTB:
    """Set-associative branch target buffer with LRU replacement.

    A set gets its own ``OrderedDict`` on its first insert; until then it
    reads as an empty mapping, so building a predictor allocates one list
    rather than thousands of tables a short run never touches.
    """

    def __init__(self, sets: int, ways: int) -> None:
        self.sets = sets
        self.ways = ways
        self._tables: List[Mapping[int, int]] = [_UNTOUCHED] * sets

    def _index(self, pc: int) -> int:
        return (pc >> 2) % self.sets

    def lookup(self, pc: int) -> Optional[int]:
        table = self._tables[self._index(pc)]
        target = table.get(pc)
        if target is not None:
            table.move_to_end(pc)
        return target

    def insert(self, pc: int, target: int) -> None:
        index = self._index(pc)
        table = self._tables[index]
        if table is _UNTOUCHED:
            self._tables[index] = table = OrderedDict()
        table[pc] = target
        table.move_to_end(pc)
        if len(table) > self.ways:
            table.popitem(last=False)


class CombinedPredictor:
    """Meta-chooser combination of bimodal and two-level predictors."""

    def __init__(
        self,
        bimodal_size: int = 1024,
        twolevel_l1_size: int = 1024,
        twolevel_hist_bits: int = 10,
        twolevel_l2_size: int = 1024,
        meta_size: int = 4096,
        btb_sets: int = 4096,
        btb_ways: int = 2,
    ) -> None:
        self.bimodal = _Bimodal(bimodal_size)
        self.twolevel = _TwoLevel(twolevel_l1_size, twolevel_hist_bits, twolevel_l2_size)
        self.meta: List[int] = [2] * meta_size
        self.btb = _BTB(btb_sets, btb_ways)
        self.predictions = 0
        self.mispredictions = 0

    @classmethod
    def from_config(cls, config: "MachineConfig") -> "CombinedPredictor":  # noqa: F821
        return cls(
            bimodal_size=config.bimodal_size,
            twolevel_l1_size=config.twolevel_l1_size,
            twolevel_hist_bits=config.twolevel_hist_bits,
            twolevel_l2_size=config.twolevel_l2_size,
            meta_size=config.meta_size,
            btb_sets=config.btb_sets,
            btb_ways=config.btb_ways,
        )

    # ------------------------------------------------------------------

    def _meta_index(self, pc: int) -> int:
        return (pc >> 2) % len(self.meta)

    def predict(self, pc: int) -> Tuple[bool, Optional[int]]:
        """Predict (direction, target).  Target is None on a BTB miss."""
        use_twolevel = self.meta[self._meta_index(pc)] >= 2
        taken = self.twolevel.predict(pc) if use_twolevel else self.bimodal.predict(pc)
        target = self.btb.lookup(pc) if taken else None
        return taken, target

    def resolve(self, pc: int, taken: bool, target: int) -> bool:
        """Compare against the actual outcome, train, and report correctness.

        A prediction is correct when the direction matches and, for taken
        branches, the BTB supplied the right target.
        """
        pred_taken, pred_target = self.predict_quiet(pc)
        correct = pred_taken == taken and (not taken or pred_target == target)

        # train all components
        bim = self.bimodal.predict(pc)
        two = self.twolevel.predict(pc)
        if bim != two:
            i = self._meta_index(pc)
            self.meta[i] = _saturate(self.meta[i], two == taken)
        self.bimodal.update(pc, taken)
        self.twolevel.update(pc, taken)
        if taken:
            self.btb.insert(pc, target)

        self.predictions += 1
        if not correct:
            self.mispredictions += 1
        return correct

    def predict_quiet(self, pc: int) -> Tuple[bool, Optional[int]]:
        """Predict without perturbing BTB LRU state (internal to resolve)."""
        use_twolevel = self.meta[self._meta_index(pc)] >= 2
        taken = self.twolevel.predict(pc) if use_twolevel else self.bimodal.predict(pc)
        if not taken:
            return taken, None
        table = self.btb._tables[self.btb._index(pc)]
        return taken, table.get(pc)

    @property
    def mispredict_rate(self) -> float:
        return self.mispredictions / self.predictions if self.predictions else 0.0
