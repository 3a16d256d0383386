"""Prefix trie over cluster identifiers, used to constrain decoding."""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import EmptySet, InvalidPrefix

Cid = tuple[int, ...]

TERMINAL = 0

_NO_DIGITS: frozenset[int] = frozenset()


class PrefixTrie:
    """Stores a set of CIDs and answers which digits may extend a prefix.

    Identifiers must end with exactly one terminal 0; all earlier digits are
    positive. The terminal digit is an ordinary edge, so valid_next() of a
    leaf-complete prefix includes 0 and valid_next() of a full CID is empty.
    Instances are immutable after construction and safe to share.
    """

    def __init__(self, cids: Iterable[Cid]):
        """Store `cids` in one pass; ValueError for a malformed CID, EmptySet for none.

        A prefix already present has all its ancestors, each holding the digit
        that leads to it, so a new CID only fills in prefixes up to the first
        one stored.
        """
        cid_set: set[Cid] = set()
        children: dict[Cid, set[int] | frozenset[int]] = {}
        for raw in cids:
            cid = tuple(map(int, raw))
            if cid in cid_set:
                continue
            if len(cid) < 2 or cid[-1] != TERMINAL or min(cid[:-1]) < 1:
                raise ValueError(
                    f"malformed CID {cid}: digits must be positive with one trailing 0"
                )
            cid_set.add(cid)
            children[cid] = _NO_DIGITS  # a CID is never a proper prefix: it ends in the only 0
            for i in range(len(cid) - 1, -1, -1):
                digits = children.get(cid[:i])
                if digits is not None:
                    digits.add(cid[i])
                    break
                children[cid[:i]] = {cid[i]}
        if not cid_set:
            raise EmptySet("cannot build a trie from zero identifiers")
        self._children = {prefix: frozenset(digits) for prefix, digits in children.items()}
        self._cids = frozenset(cid_set)

    def valid_next(self, prefix: Cid) -> frozenset[int]:
        try:
            return self._children[tuple(prefix)]
        except KeyError:
            raise InvalidPrefix(f"{tuple(prefix)} is not a prefix of any stored CID")

    def is_terminal(self, prefix: Cid) -> bool:
        return tuple(prefix) in self._cids

    def contains(self, cid: Cid) -> bool:
        return tuple(cid) in self._cids

    def cids(self) -> Iterator[Cid]:
        return iter(sorted(self._cids))

    def __len__(self) -> int:
        return len(self._cids)


def build_trie(cids: Iterable[Cid]) -> PrefixTrie:
    return PrefixTrie(cids)
