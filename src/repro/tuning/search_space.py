"""The tuning search space (Section 6.3).

For 2D stencils the paper explores ``bT in [1, 16]``, ``bS in {128, 256,
512}`` and ``hS in {256, 512, 1024}`` (144 configurations); for 3D stencils
``bT in [1, 8]``, ``bS in {16x16, 32x16, 32x32, 64x16}`` and ``hS in
{128, 256}`` (64 configurations).  Register limits of ``{none, 32, 64}`` (and
additionally 96 for the Tuned configuration) are applied per candidate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core.config import BlockingConfig
from repro.ir.stencil import StencilPattern

REGISTER_LIMITS: Tuple[Optional[int], ...] = (None, 32, 64, 96)


def validate_register_limits(limits: Sequence[Optional[int]]) -> Tuple[Optional[int], ...]:
    """The register-limit axis as a tuple; an empty axis measures nothing."""
    limits = tuple(limits)
    if not limits:
        raise ValueError(
            "register_limits is empty; pass (None,) to measure without a register cap"
        )
    return limits


@dataclass(frozen=True)
class SearchSpace:
    """The set of candidate blocking parameters for one stencil family."""

    time_blocks: Tuple[int, ...]
    spatial_blocks: Tuple[Tuple[int, ...], ...]
    stream_blocks: Tuple[Optional[int], ...]
    register_limits: Tuple[Optional[int], ...] = REGISTER_LIMITS

    def size(self) -> int:
        return len(self.time_blocks) * len(self.spatial_blocks) * len(self.stream_blocks)

    def configurations(self, include_register_limits: bool = False) -> Iterator[BlockingConfig]:
        """Enumerate candidate configurations (optionally x register limits)."""
        limits: Sequence[Optional[int]] = self.register_limits if include_register_limits else (None,)
        for bT, bS, hS, limit in itertools.product(
            self.time_blocks, self.spatial_blocks, self.stream_blocks, limits
        ):
            yield BlockingConfig(bT=bT, bS=bS, hS=hS, register_limit=limit)


def default_search_space(pattern: StencilPattern) -> SearchSpace:
    """The paper's search space for the stencil's dimensionality."""
    if pattern.ndim == 2:
        return SearchSpace(
            time_blocks=tuple(range(1, 17)),
            spatial_blocks=((128,), (256,), (512,)),
            stream_blocks=(256, 512, 1024),
        )
    return SearchSpace(
        time_blocks=tuple(range(1, 9)),
        spatial_blocks=((16, 16), (16, 32), (32, 32), (16, 64)),
        stream_blocks=(128, 256),
    )


def sconf_space(pattern: StencilPattern) -> SearchSpace:
    """The single-configuration 'space' matching STENCILGEN's parameters."""
    if pattern.ndim == 2:
        return SearchSpace(time_blocks=(4,), spatial_blocks=((128,),), stream_blocks=(128,))
    return SearchSpace(time_blocks=(4,), spatial_blocks=((32, 32),), stream_blocks=(None,))
