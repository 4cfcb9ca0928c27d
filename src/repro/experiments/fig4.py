"""Figure 4 — IC-suppression extension size vs false-positive probability.

The tunable the paper highlights for different TLS use cases: a service
mesh talking to a small peer set can buy a much smaller FPP for the same
bytes (§5.2). We sweep the FPP at the paper's 245-IC capacity and report
the full on-the-wire extension size (filter payload + AMQ header + TLS
extension framing).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.amq import FilterParams, canonical_params, size_bytes_for
from repro.amq.serialization import serialized_overhead_bytes
from repro.analysis.tables import format_table
from repro.core.extension import EXTENSION_FRAMING_BYTES

PAPER_CAPACITY = 245
PAPER_LOAD_FACTOR = 0.9

DEFAULT_FPPS = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4)


def fpp_sweep(
    kinds: Sequence[str] = ("cuckoo", "vacuum", "quotient"),
    fpps: Sequence[float] = DEFAULT_FPPS,
    capacity: int = PAPER_CAPACITY,
    load_factor: float = PAPER_LOAD_FACTOR,
) -> Dict[str, List[Tuple[float, int]]]:
    """{kind: [(fpp, extension_bytes_on_wire), ...]}."""
    overhead = serialized_overhead_bytes() + EXTENSION_FRAMING_BYTES
    out: Dict[str, List[Tuple[float, int]]] = {}
    for kind in kinds:
        series = []
        for fpp in fpps:
            params = canonical_params(
                FilterParams(capacity=capacity, fpp=fpp, load_factor=load_factor)
            )
            size = size_bytes_for(kind, capacity, params.fpp, params.load_factor)
            series.append((fpp, size + overhead))
        out[kind] = series
    return out


def format_fpp_sweep(sweep: Dict[str, List[Tuple[float, int]]]) -> str:
    fpps = [fpp for fpp, _ in next(iter(sweep.values()))]
    rows = [
        [kind, *(str(size) for _, size in series)] for kind, series in sweep.items()
    ]
    return format_table(
        ["structure"] + [f"fpp={fpp:g}" for fpp in fpps],
        rows,
        title=(
            f"Fig. 4 — extension size (bytes) vs FPP "
            f"(capacity {PAPER_CAPACITY}, LF {PAPER_LOAD_FACTOR})"
        ),
    )


def monotone_decreasing_in_fpp(sweep: Dict[str, List[Tuple[float, int]]]) -> bool:
    """The figure's 'reversely-proportional' relation: looser FPP, smaller
    extension (FPPs must be passed loosest-first)."""
    for series in sweep.values():
        sizes = [size for _, size in series]
        if any(a > b for a, b in zip(sizes, sizes[1:])):
            return False
    return True
