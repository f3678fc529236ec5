"""Seeded inputs of the benchmark workloads.

Every input is generated here from the workload seed with the program's
public source generators, never through ``api.fuzz`` (whose draw a program
change could move).  The draws are stratified: each seed covers the same
cells (family x ndim x radius), so the amount of work is the same on every
seed and only the details the seed picks (coefficients, which axis is long,
the other radii of an anisotropic star, blocking configurations) change.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

#: Radii of the paper's Table-3 range.
RADII = (1, 2, 3, 4)
FAMILIES = ("star", "box", "astar", "vstar")


@dataclass(frozen=True)
class Source:
    name: str
    dtype: str
    source: str


def compile_verify_draw(seed: int, quick: bool = False) -> List[Source]:
    """68 C stencil sources: {star, box, astar, vstar} x {2D, 3D} x r1-4, plus FDTD
    2D/3D, each in float and double.

    Every cell appears in both dtypes, so the few costly cells (3-D boxes of
    radius 3 and 4) are two samples each rather than one.
    """
    from repro.stencils import generators as gen

    rng = random.Random(f"perfbench-compile-verify:{seed}")
    cells = [(family, ndim, radius) for ndim in (2, 3) for radius in RADII for family in FAMILIES]
    cells += [("fdtd", 2, 1), ("fdtd", 3, 1)]
    if quick:
        cells = [("star", 2, 1), ("box", 3, 1), ("fdtd", 2, 1)]
    out = []
    for (family, ndim, radius), dtype in itertools.product(cells, ("float", "double")):
        if family == "star":
            source = gen.star_stencil_source(ndim, radius, dtype)
            name = f"star{ndim}d{radius}r"
        elif family == "box":
            source = gen.box_stencil_source(ndim, radius, dtype)
            name = f"box{ndim}d{radius}r"
        elif family == "astar":
            radii = [rng.randint(1, radius) for _ in range(ndim)]
            radii[rng.randrange(ndim)] = radius
            source = gen.anisotropic_star_stencil_source(radii, dtype)
            name = gen.anisotropic_name(radii)
        elif family == "vstar":
            coefficient_seed = rng.randrange(1 << 16)
            source = gen.variable_star_stencil_source(ndim, radius, coefficient_seed, dtype)
            name = f"vstar{ndim}d{radius}r-s{coefficient_seed}"
        else:
            source = gen.fdtd_stencil_source(ndim, dtype)
            name = f"fdtd{ndim}d"
        out.append(Source(f"{name}-{dtype}", dtype, source))
    return out


def limits_probe(quick: bool = False) -> List[Source]:
    """Fixed sources beyond radius 4 (not seeded, never timed).

    ``box3d5r`` hits the frontend's recursion limit on long sum chains; the
    others show the limit holding.  A fix that lets ``box3d5r`` through
    raises ``ok_fraction`` on compile_verify.
    """
    from repro.stencils import generators as gen

    cells = [("box", 2, 8), ("star", 2, 8), ("star", 3, 6), ("box", 3, 5)]
    if quick:
        cells = [("star", 2, 8)]
    out = []
    for family, ndim, radius in cells:
        make_source = gen.box_stencil_source if family == "box" else gen.star_stencil_source
        out.append(Source(f"{family}{ndim}d{radius}r-probe", "float", make_source(ndim, radius)))
    return out


def verify_blocking_config(pattern):
    """The first valid temporal degree on the verify block (the fuzz back-off).

    ``api.sconf`` is invalid for radius-4 3-D stencils on a 32x32 block, so
    the degree backs off deterministically instead.
    """
    from repro.core.config import BlockingConfig

    bS = (32,) if pattern.ndim == 2 else (16, 16)
    for bT in ((4, 3, 2, 1) if pattern.ndim == 2 else (2, 1)):
        config = BlockingConfig(bT=bT, bS=bS)
        if config.is_valid(pattern):
            return config
    return None


def verify_grid(ndim: int) -> Tuple[int, ...]:
    """Small verify grids, so the compile layers keep a real share of the time."""
    return (64, 64) if ndim == 2 else (16, 16, 32)


def verify_steps(config) -> int:
    """Two temporal blocks, so the hand-off between them is checked too."""
    return 2 * config.bT


# ---------------------------------------------------------------------------
# service_mixed
# ---------------------------------------------------------------------------

#: The 2-D Table-3 stencils; write campaigns draw from these.
SERVICE_2D = ("star2d1r", "box2d1r", "star2d2r", "box2d2r", "star2d3r", "box2d3r",
              "star2d4r", "box2d4r", "j2d5pt", "j2d9pt", "j2d9pt-gol", "gradient2d")
SERVICE_INTERIOR = {2: [8192, 8192], 3: [256, 256, 256]}
SERVICE_TIME_STEPS = 1000
#: The stencils of the report campaign (fixed, so its set-up cost is too).
REPORT_BENCHMARKS = ("j2d5pt", "j2d9pt", "star3d1r", "j3d27pt")


@dataclass(frozen=True)
class Request:
    route: str
    method: str
    path: str
    body: Optional[dict] = None


def service_entries(seed: int, quick: bool = False) -> List[Tuple[str, str, str]]:
    """The hot working set: every Table-3 stencil once, on a seeded GPU and dtype.

    21 entries fit the service's 32-entry hot cache; covering every stencil
    keeps the cache-fill cost the same on every seed.
    """
    from repro.stencils.library import benchmark_names

    rng = random.Random(f"perfbench-service-entries:{seed}")
    names = benchmark_names()
    if quick:
        names = ["j2d5pt", "star3d1r"]
    return [(name, rng.choice(("V100", "P100")), rng.choice(("float", "double")))
            for name in names]


def _bS_choices(ndim: int) -> List[List[int]]:
    return [[128], [256], [512]] if ndim == 2 else [[32, 32], [16, 32], [32, 16]]


def predict_body(pattern: str, ndim: int, gpu: str, dtype: str, bT: int, bS: List[int]) -> dict:
    return {
        "pattern": pattern, "gpu": gpu, "dtype": dtype,
        "interior": SERVICE_INTERIOR[ndim], "time_steps": SERVICE_TIME_STEPS,
        "bT": bT, "bS": bS,
    }


def service_reads(seed: int, quick: bool = False) -> List[Request]:
    """The distinct read requests: predicts over a few configs, plus tunes."""
    from repro.core.config import BlockingConfig
    from repro.stencils.library import load_pattern

    rng = random.Random(f"perfbench-service-reads:{seed}")
    reads = []
    for pattern, gpu, dtype in service_entries(seed, quick):
        stencil = load_pattern(pattern, dtype)
        ndim = stencil.ndim
        for bT in ((1, 2, 4) if ndim == 2 else (1, 2)):
            valid = [bS for bS in _bS_choices(ndim)
                     if BlockingConfig(bT=bT, bS=tuple(bS)).is_valid(stencil)]
            bS = rng.choice(valid)
            reads.append(Request("predict", "POST", "/predict",
                                 predict_body(pattern, ndim, gpu, dtype, bT, bS)))
        reads.append(Request("tune", "POST", "/tune", {
            "pattern": pattern, "gpu": gpu, "dtype": dtype,
            "interior": SERVICE_INTERIOR[ndim], "time_steps": SERVICE_TIME_STEPS,
        }))
    return reads


def report_campaign(quick: bool = False) -> dict:
    """The tune campaign whose Table-5 report the mix reads (submitted during set-up).

    Tune only: the default predict blocking (bT=4 on 32x32) is invalid for
    radius-4 3-D stencils, so predict jobs there would manufacture errors.
    """
    return {
        "benchmarks": list(REPORT_BENCHMARKS[:2] if quick else REPORT_BENCHMARKS), "gpus": ["V100", "P100"], "dtypes": ["float"],
        "kinds": ["tune"], "time_steps": SERVICE_TIME_STEPS,
        "interior_2d": SERVICE_INTERIOR[2], "interior_3d": SERVICE_INTERIOR[3], "top_k": 2,
    }


def write_campaign(seed: int, index: int) -> dict:
    """A small predict campaign no earlier submission shares (distinct time steps)."""
    rng = random.Random(f"perfbench-service-write:{seed}:{index}")
    return {
        "benchmarks": [rng.choice(SERVICE_2D)], "gpus": [rng.choice(["V100", "P100"])],
        "dtypes": ["float"], "kinds": ["predict"],
        "time_steps": 2000 + index,
        "interior_2d": SERVICE_INTERIOR[2],
    }
