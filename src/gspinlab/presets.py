"""Named presets, shipped as JSON data files inside the package.

The matrices of the distinguished isomorphisms and the witness generators
are data, not hard-coded constants, so they can be audited and replayed
through the generic machinery.
"""
from __future__ import annotations

import json
import os
from functools import lru_cache
from typing import List, Tuple

from .centralizers import ParameterImage
from .gaussian import GaussianMatrix
from .lattice import IntMatrix
from .morphisms import RootDatumMap
from .root_datum import BasedRootDatum

_DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


@lru_cache(maxsize=None)
def _read(name: str) -> dict:
    """The data file ``name`` (a path under ``data/``), parsed once per process
    and shared: callers only read it."""
    with open(os.path.join(_DATA, name), encoding="utf-8") as fh:
        return json.loads(fh.read())


def datum_names() -> List[str]:
    return sorted(_read("root_data.json"))


def datum(name: str) -> BasedRootDatum:
    data = _read("root_data.json")
    if name not in data:
        raise KeyError(f"unknown datum preset {name!r}")
    return BasedRootDatum.from_dict(data[name])


def datum_map(name: str) -> Tuple[RootDatumMap, BasedRootDatum, BasedRootDatum]:
    data = _read("maps.json")
    if name not in data:
        raise KeyError(f"unknown map preset {name!r}")
    entry = data[name]
    return RootDatumMap.from_dict(entry), datum(entry["domain"]), datum(entry["codomain"])


def sequence(name: str) -> List[IntMatrix]:
    data = _read("sequences.json")
    if name not in data:
        raise KeyError(f"unknown sequence preset {name!r}")
    return [IntMatrix(m) for m in data[name]["maps"]]


def witness_names() -> List[str]:
    return sorted(_read("witnesses.json"))


def witness(name: str) -> dict:
    """Raw witness record (shared, read-only); see ``witness_parameter``/``witness_generators``."""
    data = _read("witnesses.json")
    if name not in data:
        raise KeyError(f"unknown witness preset {name!r}")
    return data[name]


def witness_parameter(name: str) -> ParameterImage:
    rec = witness(name)
    if rec.get("kind") != "parameter":
        raise ValueError(f"witness {name!r} is not a parameter image")
    return ParameterImage.from_dict(rec)


def witness_generators(name: str) -> List[GaussianMatrix]:
    rec = witness(name)
    if rec.get("kind") != "matrix_group":
        raise ValueError(f"witness {name!r} is not a plain matrix group")
    return [GaussianMatrix.from_strings(g) for g in rec["generators"]]


def realization_data(case: str) -> dict:
    data = _read("realizations.json")
    if case not in data:
        raise KeyError(f"unknown realization case {case!r}")
    return data[case]


@lru_cache(maxsize=None)
def _scenario_files() -> Tuple[str, ...]:
    """The shipped scenario file names, listed once per process."""
    names = os.listdir(os.path.join(_DATA, "scenarios"))
    return tuple(sorted(n for n in names if n.endswith(".json")))


def scenario_names() -> List[str]:
    return list(_scenario_files())


def scenario_dict(name: str) -> dict:
    """Scenario record (shared, read-only) by shipped name, with or without the
    .json suffix; any other name, a path into or out of the scenarios folder
    included, is a KeyError."""
    fname = name if name.endswith(".json") else f"{name}.json"
    if fname not in _scenario_files():
        raise KeyError(f"unknown scenario preset {name!r}")
    return _read(f"scenarios/{fname}")
