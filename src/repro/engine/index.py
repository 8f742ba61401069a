"""Index access methods: B-tree and GIN (trigram).

Indexes map key values to heap TIDs. They are *not* MVCC-aware — like
PostgreSQL, they may return TIDs of invisible tuple versions; the executor
rechecks visibility (and for GIN, rechecks the predicate) against the heap.

The GIN index models ``pg_trgm``'s ``gin_trgm_ops``: the indexed expression
is rendered to text, split into trigrams, and each trigram maps to a
sorted posting list of the TIDs containing it. An ``ILIKE '%needle%'``
probe intersects the posting lists of the needle's trigrams — the same
containment-with-recheck strategy PostgreSQL uses for Figure 7(b)'s
dashboard query.
"""

from __future__ import annotations

import bisect
from array import array

from .datum import sort_key, to_text


class BTreeIndex:
    """Sorted keys with a parallel TID list and bisect-based range scans.

    Multi-column keys are tuples; ordering uses :func:`sort_key` per column
    so heterogeneous values order consistently with the executor's ORDER BY.
    """

    def __init__(self, n_columns: int):
        self.n_columns = n_columns
        self._keys: list[tuple] = []  # sortable keys, bisected
        self._tids: list[int] = []  # _tids[i] is the heap TID of _keys[i]

    @staticmethod
    def make_key(values) -> tuple:
        return tuple(sort_key(v) for v in values)

    def insert(self, values, tid: int) -> None:
        key = self.make_key(values)
        pos = bisect.bisect_left(self._keys, key)
        # Keep equal keys ordered by tid for determinism.
        while pos < len(self._keys) and self._keys[pos] == key and self._tids[pos] < tid:
            pos += 1
        self._keys.insert(pos, key)
        self._tids.insert(pos, tid)

    def bulk_delete(self, dead: set[int]) -> None:
        """Drop every entry pointing at a reclaimed TID in one pass
        (PostgreSQL's ``ambulkdelete``, called by VACUUM)."""
        keep = [i for i, tid in enumerate(self._tids) if tid not in dead]
        if len(keep) < len(self._tids):
            self._keys = [self._keys[i] for i in keep]
            self._tids = [self._tids[i] for i in keep]

    def scan_equal(self, values) -> list[int]:
        """TIDs whose leading columns equal ``values`` (may be a prefix)."""
        prefix = self.make_key(values)
        lo = bisect.bisect_left(self._keys, prefix)
        tids = []
        for i in range(lo, len(self._keys)):
            if self._keys[i][: len(prefix)] != prefix:
                break
            tids.append(self._tids[i])
        return tids

    def scan_range(self, low=None, high=None, low_inclusive=True, high_inclusive=True) -> list[int]:
        """TIDs with leading-column key in [low, high] (single-column ranges)."""
        low_key = sort_key(low) if low is not None else None
        high_key = sort_key(high) if high is not None else None
        lo = bisect.bisect_left(self._keys, (low_key,)) if low_key is not None else 0
        tids = []
        for i in range(lo, len(self._keys)):
            first = self._keys[i][0]
            if high_key is not None:
                beyond = first > high_key if high_inclusive else first >= high_key
                if beyond:
                    break
            if low_key is not None and not low_inclusive and first == low_key:
                continue
            tids.append(self._tids[i])
        return tids

    def scan_all(self) -> list[int]:
        """All TIDs in key order (index-only-scan ordering)."""
        return list(self._tids)

    def __len__(self) -> int:
        return len(self._tids)


def trigrams(text: str) -> set[str]:
    """pg_trgm-style trigram extraction (lower-cased, space-padded words)."""
    grams: set[str] = set()
    for word in text.lower().split():
        padded = "  " + word + " "
        for i in range(len(padded) - 2):
            grams.add(padded[i : i + 3])
    return grams


class GinIndex:
    """Inverted index: trigram -> sorted posting list of TIDs.

    As in PostgreSQL's GIN, each key owns one sorted, duplicate-free
    posting list (an ``array('q')`` here) and no per-tuple key list is
    kept; dead TIDs leave only through :meth:`bulk_delete` at VACUUM.
    Heap TIDs only grow, so an insert is an append; a TID arriving out of
    order (backfill, recovery replay) is bisect-inserted.
    """

    def __init__(self):
        self._postings: dict[str, array] = {}
        self.entry_count = 0

    def insert(self, value, tid: int) -> None:
        if value is None:
            return
        postings = self._postings
        added = 0
        for gram in trigrams(to_text(value)):
            plist = postings.get(gram)
            if plist is None:
                postings[gram] = array("q", (tid,))
            elif plist[-1] < tid:
                plist.append(tid)
            else:
                pos = bisect.bisect_left(plist, tid)
                if plist[pos] == tid:
                    continue
                plist.insert(pos, tid)
            added += 1
        self.entry_count += added

    def bulk_delete(self, dead: set[int]) -> None:
        """Drop every posting of a reclaimed TID in one pass over the
        posting lists (PostgreSQL's ``ambulkdelete``, called by VACUUM)."""
        for gram, plist in list(self._postings.items()):
            kept = array("q", [tid for tid in plist if tid not in dead])
            if len(kept) == len(plist):
                continue
            self.entry_count -= len(plist) - len(kept)
            if kept:
                self._postings[gram] = kept
            else:
                del self._postings[gram]

    def search_substring(self, needle: str) -> set[int] | None:
        """Candidate TIDs that may contain ``needle`` (ILIKE '%needle%').

        Returns None when the needle is too short to extract trigrams from
        (the planner must fall back to a sequential scan, as PostgreSQL does).
        Posting lists are intersected shortest first.
        """
        grams = _substring_trigrams(needle)
        if not grams:
            return None
        lists = []
        for gram in grams:
            plist = self._postings.get(gram)
            if plist is None:
                return set()
            lists.append(plist)
        lists.sort(key=len)
        result = set(lists[0])
        for plist in lists[1:]:
            result.intersection_update(plist)
            if not result:
                break
        return result


def _substring_trigrams(needle: str) -> set[str]:
    """Trigrams fully contained in any match of %needle% (no padding —
    we don't know the match boundaries)."""
    grams: set[str] = set()
    for word in needle.lower().split():
        if len(word) < 3:
            continue
        for i in range(len(word) - 2):
            grams.add(word[i : i + 3])
    return grams
