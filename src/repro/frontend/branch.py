"""gshare branch direction predictor and branch target buffer.

The predictor is consulted at fetch.  The simulator applies *speculative
update* of the global history (standard in high-performance front ends)
and repairs the history on a misprediction, so wrong-path fetch does not
permanently corrupt the history register.
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict

from repro.config import BranchPredictorConfig


class BranchUpdate:
    """Token carrying the state needed to update/repair the predictor
    when the branch resolves."""

    __slots__ = ("pc", "index", "history_before", "predicted_taken",
                 "predicted_target")

    def __init__(self, pc: int, index: int, history_before: int,
                 predicted_taken: bool, predicted_target: int) -> None:
        self.pc = pc
        self.index = index
        self.history_before = history_before
        self.predicted_taken = predicted_taken
        self.predicted_target = predicted_target


class BTB:
    """Set-associative branch target buffer.

    A set is built by the first :meth:`update` that reaches it: a run
    touches a small share of the sets, and a lookup in a set not built
    yet misses exactly as one in an empty set does.
    """

    def __init__(self, sets: int, assoc: int) -> None:
        if sets & (sets - 1):
            raise ValueError("BTB set count must be a power of two")
        self.sets = sets
        self.assoc = assoc
        #: set index -> that set's pc -> target entries, in LRU order
        self._table: defaultdict[int, OrderedDict[int, int]] = (
            defaultdict(OrderedDict))
        self.hits = 0
        self.misses = 0

    def lookup(self, pc: int) -> int | None:
        """Predicted target for ``pc``, or None if not resident."""
        cset = self._table.get((pc >> 2) & (self.sets - 1))
        target = None if cset is None else cset.get(pc)
        if target is None:
            self.misses += 1
            return None
        cset.move_to_end(pc)
        self.hits += 1
        return target

    def update(self, pc: int, target: int) -> None:
        """Install/refresh the taken target of branch ``pc``."""
        cset = self._table[(pc >> 2) & (self.sets - 1)]
        if pc not in cset and len(cset) >= self.assoc:
            cset.popitem(last=False)
        cset[pc] = target
        cset.move_to_end(pc)


class BranchPredictor:
    """gshare + BTB front-end predictor."""

    def __init__(self, config: BranchPredictorConfig) -> None:
        self.config = config
        if config.pht_entries & (config.pht_entries - 1):
            raise ValueError("PHT size must be a power of two")
        # 2-bit counters, initialised weakly-not-taken: most static
        # branches are not-taken-biased, so this is the cheaper cold start.
        self._pht = bytearray(b"\x01") * config.pht_entries
        self._pht_mask = config.pht_entries - 1
        self._history = 0
        self._history_mask = (1 << config.history_bits) - 1
        self.btb = BTB(config.btb_sets, config.btb_assoc)
        self.predictions = 0
        self.mispredictions = 0

    def _index(self, pc: int) -> int:
        return ((pc >> 2) ^ self._history) & self._pht_mask

    def predict(self, pc: int, fallthrough: int) -> tuple[bool, int, BranchUpdate]:
        """Predict direction and target of the branch at ``pc``.

        Returns ``(taken, target, update_token)``.  The global history is
        speculatively updated with the prediction.
        """
        self.predictions += 1
        index = self._index(pc)
        taken = self._pht[index] >= 2
        target = fallthrough
        if taken:
            btb_target = self.btb.lookup(pc)
            if btb_target is None:
                # No target available: fall through (will mispredict if taken).
                taken = False
            else:
                target = btb_target
        token = BranchUpdate(pc, index, self._history, taken, target)
        self._history = ((self._history << 1) | int(taken)) & self._history_mask
        return taken, target, token

    def resolve(self, token: BranchUpdate, taken: bool, target: int) -> bool:
        """Resolve a branch; trains the PHT/BTB and repairs history.

        Returns True if the branch was mispredicted (direction or target).
        """
        counter = self._pht[token.index]
        if taken:
            if counter < 3:
                self._pht[token.index] = counter + 1
            self.btb.update(token.pc, target)
        elif counter > 0:
            self._pht[token.index] = counter - 1
        mispredicted = (taken != token.predicted_taken or
                        (taken and target != token.predicted_target))
        if mispredicted:
            self.mispredictions += 1
            # Repair the speculative history with the actual outcome.
            self._history = (((token.history_before << 1) | int(taken))
                             & self._history_mask)
        return mispredicted

    def mispredict_rate(self) -> float:
        """Fraction of predictions that were wrong (0.0 if none made)."""
        if not self.predictions:
            return 0.0
        return self.mispredictions / self.predictions
