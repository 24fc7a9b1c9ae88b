"""Registry of the inclusion families used across the test suites.

Each entry pairs a family name with a zero-argument builder and the facts
declared about the family; ``tensor(m,k)`` names of any size resolve here
too, and this is the one place that reads a family name.  Construction
results are memoized because building the extension algebra (basis of the
generated algebra, Gram-Schmidt, property gates) is the expensive step and
every suite wants the same five instances.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraDescriptor,
    Inclusion,
    make_group_flip_inclusion,
    make_tensor_inclusion,
)
from .basic import BasicConstruction, build_basic_construction
from .errors import ConfigError


@dataclass(frozen=True)
class Family:
    """What the registry declares about one family.

    ``totally_geodesic`` states whether every kernel direction squares into
    the subalgebra (None: nothing declared, the audit is trusted);
    ``tensor_mk`` is (m, k) for N = M_m tensor 1_k inside M_{mk}.
    """

    build: Callable[[], Inclusion]
    totally_geodesic: bool | None = None
    tensor_mk: tuple[int, int] | None = None


def _tensor_family(m: int, k: int) -> Family:
    # the traceless part of M_k squares into the scalars only for k = 2,
    # and a nontrivial left factor adds commutators outside N
    return Family(
        build=lambda: make_tensor_inclusion(m, k),
        totally_geodesic=m == 1 and k == 2,
        tensor_mk=(m, k),
    )


def _group_flip_scalars() -> Inclusion:
    return make_group_flip_inclusion(
        AlgebraDescriptor((1,), (1.0,)), tag="group_flip(scalars)"
    )


def _group_flip_m2() -> Inclusion:
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    return make_group_flip_inclusion(
        AlgebraDescriptor((2,), (0.5,)), theta=swap, tag="group_flip(m2)"
    )


_BUILTINS: dict[str, Family] = {
    "tensor(1,2)": _tensor_family(1, 2),
    "tensor(1,3)": _tensor_family(1, 3),
    "tensor(2,2)": _tensor_family(2, 2),
    # every kernel direction of the flip squares into the subalgebra
    "group_flip(scalars)": Family(_group_flip_scalars, totally_geodesic=True),
    "group_flip(m2)": Family(_group_flip_m2, totally_geodesic=True),
}

FAMILY_NAMES: tuple[str, ...] = tuple(_BUILTINS)

_TENSOR_RE = re.compile(r"^tensor\((\d+),(\d+)\)$")

_INCLUSIONS: dict[str, Inclusion] = {}
_CONSTRUCTIONS: dict[str, BasicConstruction] = {}


def family_record(name: str) -> Family | None:
    """Registry entry for a family name or inclusion tag: a built-in, or
    tensor(m,k) of any size; None for anything else."""
    if name in _BUILTINS:
        return _BUILTINS[name]
    match = _TENSOR_RE.match(name)
    if match:
        return _tensor_family(int(match.group(1)), int(match.group(2)))
    return None


def family_inclusion(name: str) -> Inclusion:
    """Inclusion instance for a registered family name."""
    if name not in _INCLUSIONS:
        family = family_record(name)
        if family is None:
            raise ConfigError(
                f"unknown family {name!r}; built-ins: {', '.join(FAMILY_NAMES)} "
                "(tensor(m,k) with other sizes is also accepted)"
            )
        _INCLUSIONS[name] = family.build()
    return _INCLUSIONS[name]


def family_construction(name: str) -> BasicConstruction:
    """Memoized extension-algebra construction for a registered family."""
    if name not in _CONSTRUCTIONS:
        _CONSTRUCTIONS[name] = build_basic_construction(family_inclusion(name))
    return _CONSTRUCTIONS[name]


def family_summary(name: str) -> dict:
    """Plain-dict description used by the CLI listing."""
    inc = family_inclusion(name)
    bc = family_construction(name)
    return {
        "name": name,
        "tag": inc.family_tag,
        "index": 1.0 / inc.lam,
        "lam": inc.lam,
        "dim_sub": int(inc.embed_basis.shape[0]),
        "dim_amb": int(inc.amb_basis.shape[0]),
        "dim_extension": bc.dim_m1,
        "ambient_matrix_size": int(inc.amb.ambient_dim),
    }
