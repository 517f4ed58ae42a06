"""Consistent-hash ring: stream -> endpoint assignment with bounded churn.

The static in-transit split (``block_range`` over writer ranks) moves
*every* stream when the endpoint count changes.  A consistent-hash
ring moves only the streams that hashed onto the departed (or newly
arrived) member: each endpoint owns ``vnodes`` points on a 32-bit
ring, a key is owned by the first point clockwise of its hash, and
removing a member hands exactly that member's arcs to its clockwise
successors — the bounded-disruption property
:class:`tests.test_fleet.TestHashRing` pins down.

Hashing is CRC32 over seed-salted strings — deterministic across
processes and interpreter runs (``hash()`` randomization would break
the fleet's replay determinism).
"""

from __future__ import annotations

import bisect
import zlib


def _h32(text: str) -> int:
    return zlib.crc32(text.encode()) & 0xFFFFFFFF


class HashRing:
    """Deterministic consistent-hash ring over hashable member ids."""

    def __init__(self, members=(), vnodes: int = 64, seed: int = 0):
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        self.seed = seed
        self._members: set = set()
        self._points: list[int] = []      # sorted vnode hashes
        self._owners: list = []           # owner of self._points[i]
        for member in members:
            self.add(member)

    # -- membership --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, member) -> bool:
        return member in self._members

    def add(self, member) -> None:
        if member in self._members:
            return
        self._members.add(member)
        for v in range(self.vnodes):
            point = _h32(f"{self.seed}|node|{member}|{v}")
            index = bisect.bisect(self._points, point)
            # extremely unlikely CRC collision: perturb deterministically
            while index < len(self._points) and self._points[index] == point:
                point = (point + 1) & 0xFFFFFFFF
                index = bisect.bisect(self._points, point)
            self._points.insert(index, point)
            self._owners.insert(index, member)

    def remove(self, member) -> None:
        if member not in self._members:
            return
        self._members.discard(member)
        keep = [i for i, owner in enumerate(self._owners) if owner != member]
        self._points = [self._points[i] for i in keep]
        self._owners = [self._owners[i] for i in keep]

    # -- lookup ------------------------------------------------------------
    def assign(self, key):
        """The member owning `key` (first vnode clockwise of its hash)."""
        if not self._members:
            raise LookupError("hash ring has no members")
        point = _h32(f"{self.seed}|key|{key}")
        index = bisect.bisect(self._points, point)
        if index == len(self._points):
            index = 0
        return self._owners[index]

    def assignment(self, keys) -> dict:
        """key -> member for a batch of keys."""
        return {key: self.assign(key) for key in keys}

    @staticmethod
    def moved(before: dict, after: dict) -> set:
        """Keys whose owner changed between two assignment snapshots."""
        return {
            key for key in set(before) | set(after)
            if before.get(key) != after.get(key)
        }
