"""Extent-tier size formula (paper Section III-A).

An extent sequence stores a BLOB as a flat list of extents whose sizes
grow exponentially, so a short list can represent a huge object.  The
size of every extent is *static*: it depends only on the extent's
position in the sequence, so Blob State does not need to store per-extent
sizes — only head-page PIDs — halving BLOB metadata.

The paper's formula splits tiers into levels of ``tiers_per_level`` each;
a tier at position ``pos`` within level ``level`` (both 0-based) has

    size = (level + 1) ** (tiers_per_level - pos) * (level + 2) ** pos

pages.  With 10 tiers per level this yields 1, 2, 4, ..., 512, 1k, 1.5k,
2.3k, ... (the table in Section III-A).  Tiers past ``max_levels`` levels
repeat the largest size.

Power-of-Two and Fibonacci tier tables are provided as the baselines the
paper rejects for their waste (50 % and 38.2 % respectively).
"""

from __future__ import annotations


class TierTable:
    """Common interface: a static mapping from tier index to extent size."""

    #: Human-readable name used in benchmark output.
    name = "abstract"

    def size(self, tier_index: int) -> int:
        """Extent size in pages for the tier at ``tier_index`` (0-based)."""
        raise NotImplementedError

    def cumulative(self, n_tiers: int) -> int:
        """Total pages of the first ``n_tiers`` extents."""
        return sum(self.size(i) for i in range(n_tiers))

    def tiers_for_pages(self, npages: int) -> int:
        """Smallest number of leading tiers whose capacity covers ``npages``."""
        if npages <= 0:
            raise ValueError("npages must be positive")
        total = 0
        i = 0
        while total < npages:
            total += self.size(i)
            i += 1
        return i

    def waste_fraction(self, npages: int) -> float:
        """Internal fragmentation when storing exactly ``npages`` pages."""
        capacity = self.cumulative(self.tiers_for_pages(npages))
        return (capacity - npages) / capacity

    def max_pages(self, n_extents: int) -> int:
        """Largest BLOB (in pages) an ``n_extents``-long sequence can hold."""
        return self.cumulative(n_extents)


class ExtentTier(TierTable):
    """The paper's proposed tier formula."""

    name = "extent-tier"

    def __init__(self, tiers_per_level: int = 10, max_levels: int = 13) -> None:
        if tiers_per_level < 1 or max_levels < 1:
            raise ValueError("tiers_per_level and max_levels must be >= 1")
        self.tiers_per_level = tiers_per_level
        self.max_levels = max_levels
        self._cache: dict[int, int] = {}

    def _size_uncached(self, tier_index: int) -> int:
        t = self.tiers_per_level
        capped = min(tier_index, self.max_levels * t - 1)
        level, pos = divmod(capped, t)
        return (level + 1) ** (t - pos) * (level + 2) ** pos

    def size(self, tier_index: int) -> int:
        if tier_index < 0:
            raise ValueError("tier index must be >= 0")
        try:
            return self._cache[tier_index]
        except KeyError:
            size = self._cache[tier_index] = self._size_uncached(tier_index)
            return size


class PowerOfTwoTier(TierTable):
    """Baseline: extent ``i`` has ``2**i`` pages (≈50 % worst-case waste)."""

    name = "power-of-two"

    def size(self, tier_index: int) -> int:
        if tier_index < 0:
            raise ValueError("tier index must be >= 0")
        return 1 << tier_index


class FibonacciTier(TierTable):
    """Baseline: Fibonacci extent sizes (≈38.2 % worst-case waste)."""

    name = "fibonacci"

    def __init__(self) -> None:
        self._cache = [1, 2]

    def size(self, tier_index: int) -> int:
        if tier_index < 0:
            raise ValueError("tier index must be >= 0")
        while len(self._cache) <= tier_index:
            self._cache.append(self._cache[-1] + self._cache[-2])
        return self._cache[tier_index]
