"""Physical-qubit budgets of the conventional vs tracking schedules.

All quantities are exact integers (or exact rationals for rates): a block at
concatenation level l holds ``4 * 3**(l-1)`` physical qubits, preparing a
logical qubit costs ``4 * 12**(l-1)``, and a logical Bell pair (consumed by
one block-level correction) costs ``16 * 12**(l-1)``.  The tracking schedule
replaces the first n-1 block-level corrections with per-qubit corrections
costing two ancilla qubits per data qubit each.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from fractions import Fraction


def logical_prep_cost(l: int) -> int:
    """Physical qubits consumed to prepare one level-l logical qubit."""
    _check_level(l)
    return 4 * 12 ** (l - 1)


def bell_pair_cost(l: int) -> int:
    """Physical qubits consumed to prepare one level-l logical Bell pair."""
    _check_level(l)
    return 16 * 12 ** (l - 1)


def r_conventional(n: int, l: int) -> int:
    """Qubits consumed by n block-level corrections: one Bell pair each."""
    if n < 1:
        raise ValueError(f"cycles must be >= 1, got {n}")
    _check_level(l)
    return n * bell_pair_cost(l)


def r_tracking(n: int, l: int) -> int:
    """Qubits for the tracking schedule: n-1 per-qubit rounds + one Bell pair."""
    if n < 2:
        raise ValueError(f"tracking needs cycles >= 2, got {n}")
    # imported here so that importing the CLI does not build the code tables
    from .codes import block_size

    _check_level(l)
    return 2 * (n - 1) * block_size(l) + bell_pair_cost(l)


def reduction_rate(n: int, l: int) -> Fraction:
    """Exact fractional saving of tracking over conventional.

    Closed form ``(2*(n-1)*4**(l-1) - n + 1) / (2*n*4**(l-1))``; equal to
    ``(r_conventional - r_tracking) / r_conventional`` identically.
    """
    if n < 2:
        raise ValueError(f"tracking needs cycles >= 2, got {n}")
    _check_level(l)
    return Fraction(2 * (n - 1) * 4 ** (l - 1) - n + 1, 2 * n * 4 ** (l - 1))


def _check_level(l: int) -> None:
    if l < 1:
        raise ValueError(f"level must be >= 1, got {l}")


@dataclass(frozen=True)
class ResourceReport:
    level: int
    cycles: int
    r_conventional: int
    r_tracking: int
    saved: int
    reduction_rate: Fraction

    @property
    def rate_percent(self) -> str:
        """Percentage rendered with one decimal (exact rational underneath)."""
        return f"{float(self.reduction_rate) * 100.0:.1f}"


def report(n: int, l: int) -> ResourceReport:
    rc = r_conventional(n, l)
    rt = r_tracking(n, l)
    return ResourceReport(
        level=l,
        cycles=n,
        r_conventional=rc,
        r_tracking=rt,
        saved=rc - rt,
        reduction_rate=reduction_rate(n, l),
    )


def table(n: int, levels) -> list[ResourceReport]:
    if not levels:
        raise ValueError("a table needs at least one level")
    return [report(n, l) for l in levels]


def write_csv(path, reports) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "l", "r_conventional", "r_tracking", "saved", "rate_percent"])
        for r in reports:
            writer.writerow(
                [r.cycles, r.level, r.r_conventional, r.r_tracking, r.saved, r.rate_percent]
            )


def write_json(path, reports) -> None:
    payload = [
        {
            "n": r.cycles,
            "l": r.level,
            "r_conventional": r.r_conventional,
            "r_tracking": r.r_tracking,
            "saved": r.saved,
            "rate": {"numerator": r.reduction_rate.numerator, "denominator": r.reduction_rate.denominator},
            "rate_percent": r.rate_percent,
        }
        for r in reports
    ]
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
