"""Named presets, shipped as JSON data files inside the package.

The matrices of the distinguished isomorphisms and the witness generators
are data, not hard-coded constants, so they can be audited and replayed
through the generic machinery.
"""
from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources
from typing import List, Tuple

from .centralizers import ParameterImage
from .gaussian import GaussianMatrix
from .lattice import IntMatrix
from .morphisms import RootDatumMap
from .root_datum import BasedRootDatum


@lru_cache(maxsize=None)
def _read(name: str) -> dict:
    """The data file ``name``, parsed once per process and shared: callers only read it."""
    ref = resources.files("gspinlab.data").joinpath(name)
    return json.loads(ref.read_text("utf-8"))


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
    f = RootDatumMap(IntMatrix(entry["iota"]), IntMatrix(entry["iota_vee"]))
    return f, datum(entry["domain"]), datum(entry["codomain"])


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
    ref = resources.files("gspinlab.data").joinpath("scenarios")
    return tuple(sorted(p.name for p in ref.iterdir() if p.name.endswith(".json")))


def scenario_names() -> List[str]:
    return list(_scenario_files())


def scenario_dict(name: str) -> dict:
    """Scenario record by shipped name (with or without .json suffix); any other
    name, a path into or out of the scenarios folder included, is a KeyError."""
    fname = name if name.endswith(".json") else f"{name}.json"
    if fname not in _scenario_files():
        raise KeyError(f"unknown scenario preset {name!r}")
    ref = resources.files("gspinlab.data").joinpath("scenarios").joinpath(fname)
    return json.loads(ref.read_text("utf-8"))
