"""Iterative stratification of a multi-label corpus into train/val/test.

The splitter repeatedly takes the label with the fewest unassigned documents
and deals those documents to the fold that most wants the label. Ties go to
the fold with the most remaining capacity, then to a seeded random choice, so
the whole procedure is deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_TIE_EPS = 1e-9


@dataclass
class SplitSpec:
    ratios: tuple[float, float, float] = (0.64, 0.16, 0.20)
    seed: int = 0

    def __post_init__(self):
        if len(self.ratios) != 3 or any(r < 0 for r in self.ratios):
            raise ValueError("ratios must be three non-negative reals")
        if abs(sum(self.ratios) - 1.0) > 1e-9:
            raise ValueError(f"ratios must sum to 1, got {sum(self.ratios)}")


def _largest_remainder(total: int, ratios) -> np.ndarray:
    """Integer targets summing exactly to `total`."""
    exact = np.asarray(ratios) * total
    floors = np.floor(exact).astype(int)
    short = total - floors.sum()
    order = np.argsort(-(exact - floors), kind="stable")
    floors[order[:short]] += 1
    return floors


def iterative_stratified_split(docs, spec: SplitSpec):
    """Partition `docs` into three folds with per-label proportions close to
    the global ones. Every document must carry at least one label."""
    if not docs:
        raise ValueError("cannot split an empty corpus")
    for d in docs:
        if not d.labels:
            raise ValueError(f"document {d.id!r} has no labels")

    rng = np.random.default_rng(spec.seed)
    n = len(docs)
    labels = sorted({lab for d in docs for lab in d.labels})
    label_docs: dict[str, list[int]] = {lab: [] for lab in labels}
    for i, d in enumerate(docs):
        for lab in d.labels:
            label_docs[lab].append(i)

    capacity = _largest_remainder(n, spec.ratios).astype(float)
    # Desired number of examples of each label in each fold (soft targets).
    demand = {lab: np.array([len(idx) * r for r in spec.ratios]) for lab, idx in label_docs.items()}

    assigned = np.full(n, -1, dtype=int)
    remaining = {lab: set(idx) for lab, idx in label_docs.items()}

    while True:
        active = [(len(idx), lab) for lab, idx in remaining.items() if idx]
        if not active:
            break
        _, lab = min(active)  # fewest remaining examples; ties -> smallest id
        for i in sorted(remaining[lab]):
            want = demand[lab]
            best = np.flatnonzero(want >= want.max() - _TIE_EPS)
            if len(best) > 1:
                cap = capacity[best]
                best = best[np.flatnonzero(cap >= cap.max() - _TIE_EPS)]
            fold = int(best[rng.integers(len(best))]) if len(best) > 1 else int(best[0])
            assigned[i] = fold
            capacity[fold] -= 1
            for other in docs[i].labels:
                demand[other][fold] -= 1
                remaining[other].discard(i)

    targets = _largest_remainder(n, spec.ratios)
    state = _BalanceState(docs, assigned, targets, labels)
    state.repair_sizes()
    state.rebalance_labels()

    folds = ([], [], [])
    for i, doc in enumerate(docs):
        folds[assigned[i]].append(doc)
    return folds


class _BalanceState:
    """Post-pass bookkeeping: nudge the greedy assignment until fold sizes
    hit their largest-remainder targets exactly and no well-supported label
    strays far from its global proportions. Both passes are deterministic
    (ties resolve by document index)."""

    REBALANCE_TRIGGER = 0.015  # start fixing labels beyond this deviation
    MIN_SUPPORT = 40

    def __init__(self, docs, assigned: np.ndarray, targets: np.ndarray, labels):
        self.docs = docs
        self.assigned = assigned
        self.targets = targets
        self.n_folds = len(targets)
        self.sizes = np.bincount(assigned, minlength=self.n_folds).astype(int)
        self.ratios = targets / targets.sum()
        self.label_total = {lab: 0 for lab in labels}
        self.label_fold = {lab: np.zeros(self.n_folds) for lab in labels}
        for i, doc in enumerate(docs):
            for lab in doc.labels:
                self.label_total[lab] += 1
                self.label_fold[lab][assigned[i]] += 1

    def _benefit(self, doc, src: int, dst: int) -> float:
        total = 0.0
        for lab in doc.labels:
            t = self.label_total[lab]
            row = self.label_fold[lab]
            before = abs(row[src] / t - self.ratios[src]) + abs(row[dst] / t - self.ratios[dst])
            after = abs((row[src] - 1) / t - self.ratios[src]) + \
                abs((row[dst] + 1) / t - self.ratios[dst])
            total += before - after
        return total

    def _move(self, i: int, dst: int):
        src = self.assigned[i]
        self.assigned[i] = dst
        self.sizes[src] -= 1
        self.sizes[dst] += 1
        for lab in self.docs[i].labels:
            self.label_fold[lab][src] -= 1
            self.label_fold[lab][dst] += 1

    def repair_sizes(self):
        """The greedy pass tracks label demand, not fold sizes; move the few
        drifted documents so sizes match the targets exactly."""
        while True:
            over = {j for j in range(self.n_folds) if self.sizes[j] > self.targets[j]}
            under = [j for j in range(self.n_folds) if self.sizes[j] < self.targets[j]]
            if not over:
                return
            best = None
            for i, doc in enumerate(self.docs):
                if self.assigned[i] not in over:
                    continue
                for dst in under:
                    gain = self._benefit(doc, self.assigned[i], dst)
                    if best is None or gain > best[0] + _TIE_EPS:
                        best = (gain, i, dst)
            self._move(best[1], best[2])

    def rebalance_labels(self):
        """Size-preserving document exchanges that pull any strongly
        supported label back toward its global proportions."""
        for _ in range(4 * max(1, len(self.label_total))):
            worst = None
            for lab, total in self.label_total.items():
                if total < self.MIN_SUPPORT:
                    continue
                dev = self.label_fold[lab] / total - self.ratios
                peak = abs(dev).max()
                if peak > self.REBALANCE_TRIGGER and (worst is None or peak > worst[0]):
                    worst = (peak, lab, int(dev.argmax()), int(dev.argmin()))
            if worst is None:
                return
            _, lab, src, dst = worst
            forward = self._best_doc(src, dst, require=lab)
            backward = self._best_doc(dst, src, forbid=lab)
            if forward is None or backward is None:
                return
            self._move(forward, dst)
            self._move(backward, src)

    def _best_doc(self, src: int, dst: int, require=None, forbid=None):
        best = None
        for i, doc in enumerate(self.docs):
            if self.assigned[i] != src:
                continue
            if require is not None and require not in doc.labels:
                continue
            if forbid is not None and forbid in doc.labels:
                continue
            gain = self._benefit(doc, src, dst)
            if best is None or gain > best[0] + _TIE_EPS:
                best = (gain, i)
        return None if best is None else best[1]


def split_report(folds, labels=None) -> dict:
    """Per-label per-fold counts and proportions, for the CLI report."""
    all_docs = [d for fold in folds for d in fold]
    if labels is None:
        labels = sorted({lab for d in all_docs for lab in d.labels})
    global_counts = {lab: 0 for lab in labels}
    for d in all_docs:
        for lab in d.labels:
            if lab in global_counts:
                global_counts[lab] += 1
    table = {}
    for lab in labels:
        counts = [sum(1 for d in fold if lab in d.labels) for fold in folds]
        total = global_counts[lab]
        table[lab] = {
            "counts": counts,
            "proportions": [c / total if total else 0.0 for c in counts],
        }
    return {
        "fold_sizes": [len(f) for f in folds],
        "n_docs": len(all_docs),
        "labels": table,
    }
