"""JSON exchange formats for lattices, partitions, and algebras.

Lattices travel as Hasse diagrams: {"size": n, "covers": [[lo, hi], ...],
"labels": [...]}.  The order and the operation tables are always
recomputed from the covers, never trusted from the file.  Partitions are
{"base_size": n, "blocks": [[...], ...]} and algebras are
{"size": n, "ops": [{"name", "arity", "table"}]} with flat row-major
operation tables.
"""

from __future__ import annotations

import json

import numpy as np

from .algebras import FiniteAlgebra, make_operation
from .lattice import from_cover_relation
from .partitions import Partition, _int_list


def jsonable(obj):
    """obj with numpy scalars made plain and dict keys made strings, for json.dumps."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def lattice_to_dict(lat):
    out = {"size": lat.size, "covers": [list(c) for c in lat.covers()]}
    if lat.labels is not None:
        out["labels"] = list(lat.labels)
    return out


def lattice_to_json(lat):
    return json.dumps(lattice_to_dict(lat), indent=2, sort_keys=True)


def _check(ok, field, what):
    """ValueError naming the field unless ok; what says what it must be."""
    if not ok:
        raise ValueError("JSON field %s must be %s" % (field, what))


def lattice_from_dict(data):
    if not isinstance(data, dict) or "size" not in data or "covers" not in data:
        raise ValueError("lattice JSON needs 'size' and 'covers'")
    size, covers, labels = data["size"], data["covers"], data.get("labels")
    _check(type(size) is int and size >= 1, "size", "a positive integer")
    _check(isinstance(covers, list) and all(_int_list(c) and len(c) == 2 for c in covers),
           "covers", "a list of integer pairs")
    if labels is not None:
        _check(isinstance(labels, list), "labels", "a list")
        labels = [str(x) for x in labels]
    return from_cover_relation(size, covers, labels=labels)


def lattice_from_json(text):
    return lattice_from_dict(json.loads(text))


def partition_to_dict(part):
    return {"base_size": part.base_size, "blocks": part.blocks()}


def partition_from_dict(data):
    if not isinstance(data, dict) or "base_size" not in data or "blocks" not in data:
        raise ValueError("partition JSON needs 'base_size' and 'blocks'")
    size = data["base_size"]
    _check(type(size) is int and size >= 0, "base_size", "a nonnegative integer")
    return Partition.from_blocks(size, data["blocks"])


def algebra_to_dict(alg):
    ops = [{"name": op.name, "arity": op.arity, "table": op.table.ravel().tolist()}
           for op in alg.operations]
    return {"size": alg.size, "ops": ops}


def algebra_from_dict(data):
    if not isinstance(data, dict) or "size" not in data or "ops" not in data:
        raise ValueError("algebra JSON needs 'size' and 'ops'")
    size, ops = data["size"], data["ops"]
    _check(type(size) is int, "size", "an integer")
    _check(isinstance(ops, list), "ops", "a list")
    for k, op in enumerate(ops):
        _check(isinstance(op, dict) and {"name", "arity", "table"} <= op.keys(),
               "ops[%d]" % k, "an object with 'name', 'arity' and 'table'")
        _check(type(op["arity"]) is int and op["arity"] >= 0, "ops[%d].arity" % k,
               "a nonnegative integer")
        _check(_int_list(op["table"]), "ops[%d].table" % k, "a list of integers")
    ops = [make_operation(str(op["name"]), op["arity"], op["table"], size) for op in ops]
    return FiniteAlgebra(size, ops)


def algebra_from_json(text):
    return algebra_from_dict(json.loads(text))


def load_lattice(path):
    with open(path) as fh:
        return lattice_from_json(fh.read())


def load_algebra(path):
    with open(path) as fh:
        return algebra_from_json(fh.read())
