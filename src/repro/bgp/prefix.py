"""IP prefix representation used throughout the library.

BGP announces reachability for IP prefixes.  The collection platform and
GILL's sampling algorithms only ever need to compare prefixes for equality,
hash them, test containment, and serialize them, so we keep a compact
immutable value type rather than pulling in :mod:`ipaddress` objects on
every update (the stream generators create millions of updates).
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from typing import Iterator


class PrefixError(ValueError):
    """Raised when a prefix string or its components are invalid."""


_MAX_LEN = {4: 32, 6: 128}
_BITS = {4: 32, 6: 128}


@dataclass(frozen=True, order=True)
class Prefix:
    """An IPv4 or IPv6 prefix, stored as ``(family, network, length)``.

    ``network`` is the integer value of the network address with host bits
    cleared; ``length`` is the mask length.  Instances are immutable,
    hashable and totally ordered, which lets them key dictionaries and sort
    deterministically in reports.
    """

    family: int
    network: int
    length: int

    def __post_init__(self) -> None:
        if self.family not in (4, 6):
            raise PrefixError(f"family must be 4 or 6, got {self.family}")
        max_len = _MAX_LEN[self.family]
        if not 0 <= self.length <= max_len:
            raise PrefixError(
                f"length {self.length} out of range for IPv{self.family}"
            )
        if not 0 <= self.network < (1 << _BITS[self.family]):
            raise PrefixError(f"network {self.network:#x} out of range")
        host_bits = _BITS[self.family] - self.length
        if host_bits and self.network & ((1 << host_bits) - 1):
            raise PrefixError(
                f"host bits set in network for /{self.length} prefix"
            )

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``"10.0.0.0/8"`` or ``"2001:db8::/32"`` into a Prefix."""
        try:
            net = ipaddress.ip_network(text, strict=True)
        except ValueError as exc:
            raise PrefixError(str(exc)) from exc
        return cls(net.version, int(net.network_address), net.prefixlen)

    @classmethod
    def from_index(cls, index: int, family: int = 4, length: int = 24) -> "Prefix":
        """Build the ``index``-th synthetic prefix of a given length.

        Used by the workload generators to mint deterministic, distinct
        prefixes: index 0 of family 4, length 24 is ``10.0.0.0/24``, index 1
        is ``10.0.1.0/24`` and so on.
        """
        if index < 0:
            raise PrefixError("index must be nonnegative")
        host_bits = _BITS[family] - length
        base = {4: int(ipaddress.IPv4Address("10.0.0.0")),
                6: int(ipaddress.IPv6Address("2001:db8::"))}[family]
        network = base + (index << host_bits)
        return cls(family, network, length)

    def contains(self, other: "Prefix") -> bool:
        """True if ``other`` is equal to or more specific than this prefix."""
        if other.family != self.family or other.length < self.length:
            return False
        shift = _BITS[self.family] - self.length
        return (other.network >> shift) == (self.network >> shift)

    def subprefixes(self, new_length: int) -> Iterator["Prefix"]:
        """Yield all subprefixes of the given (longer) length."""
        if new_length < self.length or new_length > _MAX_LEN[self.family]:
            raise PrefixError(f"invalid subprefix length {new_length}")
        step = 1 << (_BITS[self.family] - new_length)
        count = 1 << (new_length - self.length)
        for i in range(count):
            yield Prefix(self.family, self.network + i * step, new_length)

    def __str__(self) -> str:
        network = self.network
        if self.family == 4:
            # ipaddress.IPv4Address's dotted quad, without building one.
            return (f"{network >> 24}.{network >> 16 & 255}."
                    f"{network >> 8 & 255}.{network & 255}/{self.length}")
        return f"{ipaddress.IPv6Address(network)}/{self.length}"

    def __repr__(self) -> str:
        return f"Prefix({str(self)!r})"
