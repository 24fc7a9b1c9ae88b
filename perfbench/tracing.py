"""Span tracing of the program's layers, installed from outside the program.

The package binds names at import time (``from .linalg import op_norm``), so
wrapping a function in its home module is not enough: the wrapper is
installed in every namespace that holds the original object, including
module-level dicts such as dispatch tables, and in the numpy/scipy modules
whose functions form the ``lapack`` layer.  ``Tracer.uninstall`` puts every
original back, so untraced work in the same process pays nothing.

A span records its name, start, end, parent span and run id.  Spans are kept
in memory and written out once, at the end of the run.  Self time is a
span's duration minus the time covered by its direct children.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import pkgutil
import sys
import time
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass

PACKAGE = "subfactor_geo"


@dataclass(frozen=True)
class Target:
    """One function or method to wrap.

    ``module``/``attr`` locate the original (``attr`` may be ``Class.method``);
    ``homes`` are extra modules outside the package whose globals also bind
    it (numpy's norm looks ``svd`` up in ``numpy.linalg._linalg``).
    ``observe`` reads the arguments and the outcome of each call.
    """

    span: str
    module: str
    attr: str
    homes: tuple[str, ...] = ()
    observe: Callable | None = None


def _observe_lift_defects(tracer, name, args, result, exc):
    if result is not None:
        tracer.note_max("lift_recon_max", float(result[0]))


def _observe_orbit_log(tracer, name, args, result, exc):
    if result is not None:
        tracer.note_add("orbit_log_iters", result.iterations)
    else:
        tracer.note_add("orbit_log_failures", 1)
        tracer.note_add("orbit_log_iters", getattr(exc, "iterations", 0))


def _observe_bytes(tracer, name, args, result, exc):
    tracer.note_add(name + ".bytes", getattr(args[0], "nbytes", 0))


def _observe_build(tracer, name, args, result, exc):
    if result is not None:
        tracer.note_max("m1_dim", result.dim_m1)


def _observe_pp(tracer, name, args, result, exc):
    if result is not None:
        tracer.note_add("pp_probes", result.n_checked)


TARGETS: tuple[Target, ...] = (
    # orbit: curves
    Target("orbit.horizontal_lift", "subfactor_geo.orbit", "horizontal_lift"),
    Target("orbit.lift_defects", "subfactor_geo.orbit", "lift_defects", observe=_observe_lift_defects),
    Target("orbit.curve_lengths", "subfactor_geo.orbit", "curve_lengths"),
    Target("orbit.first_variation", "subfactor_geo.orbit", "first_variation"),
    Target("orbit.curve_check", "subfactor_geo.orbit", "DiscreteCurve.__post_init__"),
    Target("orbit.minimality_experiment", "subfactor_geo.orbit", "minimality_experiment"),
    # orbit: solver
    Target("orbit.orbit_log", "subfactor_geo.orbit", "orbit_log", observe=_observe_orbit_log),
    Target("orbit.geodesic_at", "subfactor_geo.orbit", "geodesic_at"),
    Target("orbit.point_check", "subfactor_geo.orbit", "OrbitPoint.__post_init__"),
    Target("orbit.convexity_probe", "subfactor_geo.orbit", "convexity_probe"),
    # linalg
    Target("linalg.op_norm", "subfactor_geo.linalg", "op_norm"),
    Target("linalg.spectral_function", "subfactor_geo.linalg", "spectral_function"),
    Target("linalg.log_unitary", "subfactor_geo.linalg", "log_unitary_principal"),
    Target("linalg.nearest_unitary", "subfactor_geo.linalg", "nearest_unitary"),
    # lapack: the numpy/scipy boundary
    Target("lapack.svd", "numpy.linalg", "svd", ("numpy.linalg._linalg",), observe=_observe_bytes),
    Target("lapack.eigh", "numpy.linalg", "eigh", ("numpy.linalg._linalg",), observe=_observe_bytes),
    Target("lapack.eigvalsh", "numpy.linalg", "eigvalsh", ("numpy.linalg._linalg",)),
    Target("lapack.schur", "scipy.linalg", "schur"),
    # basic
    Target("basic.build", "subfactor_geo.basic", "build_basic_construction", observe=_observe_build),
    Target("basic.props", "subfactor_geo.basic", "verify_construction_properties"),
    Target("basic.reduce_R", "subfactor_geo.basic", "reduce_R"),
    # algebra
    Target("algebra.inclusion", "subfactor_geo.algebra", "make_tensor_inclusion"),
    Target("algebra.inclusion", "subfactor_geo.algebra", "make_group_flip_inclusion"),
    Target("algebra.inclusion", "subfactor_geo.algebra", "make_custom_inclusion"),
    Target("algebra.pp_probe", "subfactor_geo.algebra", "pimsner_popa_validate", observe=_observe_pp),
    Target("algebra.expectation_E", "subfactor_geo.algebra", "expectation_E"),
    # grassmann
    Target("grassmann.audit", "subfactor_geo.grassmann", "totally_geodesic_audit"),
    Target("grassmann.tangent_comparison", "subfactor_geo.grassmann", "tangent_space_comparison"),
    Target("grassmann.exp_block", "subfactor_geo.grassmann", "grassmann_exp_block"),
    # cli/report: artifact writers
    Target("cli.write", "subfactor_geo.report", "write_csv_rows"),
    Target("cli.write", "subfactor_geo.cli", "_write_json"),
)


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self) -> None:
        # (id, name, start, end, parent id or -1, run id)
        self.spans: list[tuple[int, str, float, float, int, str]] = []
        self.notes: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.missing: list[str] = []
        self.run_id = "none"
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object, bool]] = []

    # -- recording ---------------------------------------------------------

    def note_add(self, key: str, value: float) -> None:
        self.notes[self.run_id][key] += value

    def note_max(self, key: str, value: float) -> None:
        run = self.notes[self.run_id]
        run[key] = max(run.get(key, value), value)

    def _call(self, name: str, fn, observe, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        sid = len(self.spans)
        self.spans.append((sid, name, 0.0, 0.0, parent, self.run_id))
        self._stack.append(sid)
        result = exc = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception as err:
            exc = err
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent, self.run_id)
            if observe is not None:
                observe(self, name, args, result, exc)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark's own code."""
        parent = self._stack[-1] if self._stack else -1
        sid = len(self.spans)
        self.spans.append((sid, name, 0.0, 0.0, parent, self.run_id))
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent, self.run_id)

    # -- wrappers ----------------------------------------------------------

    def _wrapper(self, target: Target, original):
        tracer = self
        observe = target.observe
        name = target.span

        def traced(*args, **kwargs):
            return tracer._call(name, original, observe, args, kwargs)

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap every target in every namespace that binds it."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        # a module first imported while wrappers are in place would keep them
        package = importlib.import_module(PACKAGE)
        for info in pkgutil.iter_modules(package.__path__, PACKAGE + "."):
            importlib.import_module(info.name)
        package_modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for target in TARGETS:
            try:
                home = importlib.import_module(target.module)
            except ImportError:
                self._missing(target)
                continue
            owner, attr = home, target.attr
            if "." in attr:
                cls_name, attr = attr.split(".", 1)
                owner = getattr(home, cls_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self._missing(target)
                continue
            wrapper = self._wrapper(target, original)
            if owner is not home:
                self._patch(owner, attr, wrapper, is_dict=False)
                continue
            spaces = [home] + [importlib.import_module(h) for h in target.homes]
            spaces += [m for m in package_modules if m not in spaces]
            for space in spaces:
                for key, value in list(vars(space).items()):
                    if value is original:
                        self._patch(space, key, wrapper, is_dict=False)
                    elif isinstance(value, dict) and not key.startswith("__"):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                self._patch(value, dkey, wrapper, is_dict=True)

    def _missing(self, target: Target) -> None:
        label = f"{target.module}.{target.attr}"
        if label not in self.missing:
            self.missing.append(label)

    def _patch(self, container, key, wrapper, is_dict: bool) -> None:
        if is_dict:
            self._restore.append((container, key, container[key], True))
            container[key] = wrapper
        else:
            self._restore.append((container, key, getattr(container, key), False))
            setattr(container, key, wrapper)

    def uninstall(self) -> None:
        for container, key, original, is_dict in reversed(self._restore):
            if is_dict:
                container[key] = original
            else:
                setattr(container, key, original)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def summary(self, runs: tuple[str, ...]) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds over the given runs."""
        child_time: dict[int, float] = defaultdict(float)
        for sid, _, start, end, parent, run in self.spans:
            if run in runs and parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for sid, name, start, end, _, run in self.spans:
            if run not in runs:
                continue
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[sid]
        return out

    def count_children(self, name: str, parent_name: str, runs: tuple[str, ...]) -> int:
        names = {sid: n for sid, n, *_ in self.spans}
        return sum(
            1
            for sid, n, _, _, parent, run in self.spans
            if run in runs and n == name and parent >= 0 and names[parent] == parent_name
        )

    def note(self, key: str, runs: tuple[str, ...], how=sum) -> float:
        values = [self.notes[r][key] for r in runs if key in self.notes.get(r, {})]
        return float(how(values)) if values else 0.0

    def write(self, path: str, runs: tuple[str, ...]) -> None:
        """Write spans and their per-name summary as one JSON document."""
        doc = {
            "fields": ["id", "name", "start", "end", "parent", "run"],
            "missing_targets": self.missing,
            "summary": self.summary(runs),
            "spans": self.spans,
        }
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
        os.replace(tmp, path)
