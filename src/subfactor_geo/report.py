"""Report records and deterministic serialization for the CLI harness.

Every check record names the formula it verifies via ``paper_anchor``; the
allowed strings form a closed vocabulary so reports stay greppable.  JSON
and CSV output is byte-deterministic for a fixed config: wall time is
printed on standard output only, never written into the artifacts.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

# Closed vocabulary of anchor strings a check record may carry.  Each names
# the identity, inequality, or map whose numerical verification the record
# summarizes.
ANCHOR_VOCABULARY: frozenset[str] = frozenset(
    {
        "[M:N] = λ⁻¹",
        "E: M → N",
        "M_ah = N_ah ⊕ H",
        "P_H = I − E",
        "E(x*x) ≥ λ x*x",
        "‖x‖₂ = τ(x*x)^{1/2}",
        "E₁(p) = λ",
        "R(x) = (1/λ)E₁(xp)",
        "u = (1/λ)E₁(ωp)",
        "up = ωp",
        "{p}′ ∩ M = N",
        "O(p) = {upu* : u ∈ U_M}",
        "(T O(p))_q = {xq − qx : x ∈ M_ah}",
        "δ_q(x) = d(ℓ_q)₁(x) = xq − qx",
        "κ_q(zq − qz) = z",
        "κ_q(v) = Ad_u ∘ κ ∘ Ad_{u*}(v)",
        "Π_q(x) = (1/2λ)[E₁(xq − qx), q]",
        "α(t) = e^{tz}q e^{−tz}",
        "DX/dt = Π_γ(Ẋ)",
        "Γ̇ = κ_γ(γ̇)Γ, Γ(0) = 1",
        "Γ̇ ∈ H_γ Γ",
        "L₂(α) = ∫₀¹ ‖α̇(t)‖₂ dt",
        "L_∞(γ) = ∫₀¹ ‖γ̇(t)‖ dt",
        "F₂(γ) = ∫₀¹ ‖γ̇‖₂² dt",
        "x_s(t) = γ_s(t)* d/dt γ_s(t) and y_s(t) = γ_s(t)* d/ds γ_s(t)",
        "s_{p₁}(p₂) = e^x",
        "θ_p(q) = (1/λ)E₁(s_p(q)p)",
        "∑ L₂(α_i) ≤ L₂(γ)",
        "either L_∞(γ) ≥ L_∞(α), or L₂(γ) ≥ L₂(α)",
        "‖u_i − u_j‖ < √(2 − √2) = r",
        "f(s) = d_k(u₀, δ(s))^k",
        "(T P(M₁))_p = {xp + px* : x ∈ N^⊥}",
        "v = wp − pw = R(w)p + pR(w)*",
        "cos²(√(E(|x|²)))p",
        "sinc(2√(E(|x|²)))px*",
        "‖x‖ < π",
        "x* = −x and x² ∈ N",
        "γ_x(t) = p cos²(t|x|) + upu* sin²(t|x|) + ½[u, p]sin(2t|x|)",
        "(N^⊥)² ⊂ N",
        "x = u|x|",
        "sinc(z) = sin(z)z⁻¹",
        "{u ∈ U_M : ‖u−1‖ < 2}",
    }
)

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class CheckRecord:
    """One verified statement: pass/fail with the worst observed defect."""

    name: str
    paper_anchor: str
    status: str  # "pass" or "fail"
    worst_defect: float
    samples: int

    def __post_init__(self):
        if self.status not in ("pass", "fail"):
            raise ValueError(f"status must be pass or fail, got {self.status!r}")

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "paper_anchor": self.paper_anchor,
            "status": self.status,
            "worst_defect": _round_defect(self.worst_defect),
            "samples": self.samples,
        }


def record(name: str, anchor: str, defect: float, tol: float, samples: int) -> CheckRecord:
    """Build a record by comparing a defect against its tolerance."""
    status = "pass" if defect <= tol else "fail"
    return CheckRecord(name, anchor, status, float(defect), samples)


def _round_defect(x: float) -> float:
    """Shortest-repr float; keeps JSON byte-stable across platforms."""
    return float(f"{float(x):.12e}")


@dataclass(frozen=True)
class SuiteReport:
    """All records of one named suite; overall status is the conjunction."""

    name: str
    records: tuple[CheckRecord, ...]
    # wall time is carried in memory for the stdout table; excluded from
    # serialized artifacts so identical configs give identical bytes
    wall_time_s: float = field(default=0.0, compare=False)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "status": "pass" if self.passed else "fail",
            "records": [r.as_dict() for r in self.records],
        }


@dataclass(frozen=True)
class RunReport:
    family: str
    config_hash: str
    seed: int | None
    suites: tuple[SuiteReport, ...]

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.suites)

    def as_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "family": self.family,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "status": "pass" if self.passed else "fail",
            "suites": [s.as_dict() for s in self.suites],
        }

    def to_json(self) -> str:
        return json.dumps(
            self.as_dict(),
            sort_keys=True,
            separators=(",", ":"),
            ensure_ascii=False,
            allow_nan=False,
        )


def render_table(report: RunReport) -> str:
    """Human-readable summary including wall times (stdout only)."""
    lines = [
        f"family       {report.family}",
        f"config hash  {report.config_hash}",
        f"seed         {report.seed}",
        "",
    ]
    width = max(
        [len(r.name) for s in report.suites for r in s.records] + [10]
    )
    for suite in report.suites:
        status = "pass" if suite.passed else "FAIL"
        lines.append(f"[{suite.name}] {status}  ({suite.wall_time_s:.2f}s)")
        for r in suite.records:
            lines.append(
                f"  {'ok ' if r.passed else 'F  '}"
                f"{r.name:<{width}}  defect {r.worst_defect:9.3e}"
                f"  n={r.samples:<4d}  {r.paper_anchor}"
            )
    total = sum(s.wall_time_s for s in report.suites)
    lines.append("")
    lines.append(
        f"overall: {'pass' if report.passed else 'FAIL'}  "
        f"({len(report.suites)} suites, {total:.2f}s)"
    )
    return "\n".join(lines)


def write_csv_rows(path: str, header: list[str], rows: list[list] | np.ndarray) -> None:
    """Write CSV with fixed formatting (LF endings, repr-stable floats).

    ``rows`` is a list of rows, written through ``csv.writer`` with every
    Python float as ``%.12e``, or a 2-D float array, written as one
    ``%.12e`` line per row: the same bytes as its rows as lists of floats,
    since a formatted float never needs quoting."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        if isinstance(rows, np.ndarray):
            line = ",".join(["%.12e"] * rows.shape[1]) + "\n"
            fh.writelines(line % tuple(row) for row in rows.tolist())
            return
        for row in rows:
            writer.writerow([f"{v:.12e}" if isinstance(v, float) else v for v in row])
