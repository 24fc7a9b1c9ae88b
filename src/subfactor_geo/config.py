"""Run configuration: one structured, hashable document drives every command.

The on-disk format is JSON (nested blocks of key/value pairs).  Parsing is
strict: unknown keys anywhere in the document are rejected so that a config
hash always refers to a fully interpreted document.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

from .algebra import Inclusion
from .errors import ConfigError
from .families import family_inclusion

SUITE_NAMES: tuple[str, ...] = (
    "construction",
    "metric",
    "lifts",
    "variation",
    "minimality",
    "convexity",
    "grassmann",
    "degeneracy",
)

_TOP_KEYS = {"inclusion", "seed", "suites", "grid", "trials", "output_dir"}
_INCLUSION_KEYS = {"family", "lam"}

_MAX_SEED = 2**64 - 1


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters; field order matches the canonical form."""

    family: str
    seed: int | None
    suites: tuple[str, ...]
    grid: int = 96
    trials: int = 100
    lam_override: float | None = None
    output_dir: str | None = None

    def canonical(self) -> dict:
        """Plain-dict form with deterministic content (hash input)."""
        doc: dict = {
            "inclusion": {"family": self.family},
            "suites": list(self.suites),
            "grid": self.grid,
            "trials": self.trials,
        }
        if self.lam_override is not None:
            doc["inclusion"]["lam"] = self.lam_override
        if self.seed is not None:
            doc["seed"] = self.seed
        if self.output_dir is not None:
            doc["output_dir"] = self.output_dir
        return doc

    def config_hash(self) -> str:
        # the output directory is I/O disposition, not run semantics: the
        # same run written elsewhere must hash (and report) identically
        doc = self.canonical()
        doc.pop("output_dir", None)
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def build_inclusion(self) -> Inclusion:
        inc = family_inclusion(self.family)
        if self.lam_override is not None:
            inc = dataclasses.replace(inc, lam=self.lam_override)
        return inc


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def parse_config(doc: dict) -> RunConfig:
    """Validate a decoded config document into a RunConfig."""
    _require(isinstance(doc, dict), "config must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")

    inc_block = doc.get("inclusion")
    _require(isinstance(inc_block, dict), "config needs an 'inclusion' block")
    bad = set(inc_block) - _INCLUSION_KEYS
    _require(not bad, f"unknown inclusion keys: {sorted(bad)}")
    family = inc_block.get("family")
    _require(isinstance(family, str), "inclusion.family must be a string")
    lam_override = inc_block.get("lam")
    if lam_override is not None:
        _require(
            isinstance(lam_override, (int, float)) and 0 < float(lam_override) <= 1,
            "inclusion.lam must lie in (0, 1]",
        )
        lam_override = float(lam_override)

    seed = doc.get("seed")
    if seed is not None:
        _require(
            isinstance(seed, int) and not isinstance(seed, bool)
            and 0 <= seed <= _MAX_SEED,
            "seed must be an unsigned 64-bit integer",
        )

    suites_raw = doc.get("suites", list(SUITE_NAMES))
    _require(
        isinstance(suites_raw, list) and all(isinstance(s, str) for s in suites_raw),
        "suites must be a list of suite names",
    )
    bad_suites = [s for s in suites_raw if s not in SUITE_NAMES]
    _require(not bad_suites, f"unknown suites: {bad_suites}; valid: {list(SUITE_NAMES)}")
    # preserve the canonical order regardless of how the file lists them
    suites = tuple(s for s in SUITE_NAMES if s in suites_raw)

    grid = doc.get("grid", 96)
    _require(
        isinstance(grid, int) and not isinstance(grid, bool) and grid >= 2,
        "grid must be an integer >= 2",
    )
    trials = doc.get("trials", 100)
    _require(
        isinstance(trials, int) and not isinstance(trials, bool) and trials >= 0,
        "trials must be a non-negative integer",
    )

    output_dir = doc.get("output_dir")
    if output_dir is not None:
        _require(isinstance(output_dir, str), "output_dir must be a string")

    if seed is None and suites:
        raise ConfigError("a seed is required when any suite draws random samples")

    return RunConfig(
        family=family,
        seed=seed,
        suites=suites,
        grid=grid,
        trials=trials,
        lam_override=lam_override,
        output_dir=output_dir,
    )


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    return parse_config(doc)


def apply_overrides(
    cfg: RunConfig,
    seed: int | None = None,
    suites: list[str] | None = None,
    grid: int | None = None,
    trials: int | None = None,
    output_dir: str | None = None,
) -> RunConfig:
    """Fold command-line flags over a parsed config (flags win)."""
    doc = cfg.canonical()
    if seed is not None:
        doc["seed"] = seed
    if suites:
        doc["suites"] = suites
    if grid is not None:
        doc["grid"] = grid
    if trials is not None:
        doc["trials"] = trials
    if output_dir is not None:
        doc["output_dir"] = output_dir
    return parse_config(doc)


def default_config(family: str = "tensor(1,2)", seed: int | None = None) -> RunConfig:
    return parse_config({"inclusion": {"family": family}, "seed": seed})
