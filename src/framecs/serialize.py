"""JSON and text emission with a fixed 17-significant-digit real format.

All reals written by this package go through :func:`format_real`, which is
enough digits for a float64 to round-trip bit-exactly through text.  A
dataclass record is written as an object of its fields in declaration order.
"""

import dataclasses
import json
import math

import numpy as np

from .errors import ContractViolation


def format_real(x) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ContractViolation("refusing to serialize non-finite real %r" % x)
    return format(x, ".17g")


def json_dumps(obj) -> str:
    """Serialize nested dicts/lists/scalars and dataclass records to JSON text.

    Unlike :func:`json.dumps`, reals are always written at 17 significant
    digits so serialized output is reproducible and exact.
    """
    out = []
    _emit(obj, out)
    return "".join(out)


def _emit(obj, out):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_real(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(k), ensure_ascii=False))
            out.append(": ")
            _emit(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        for i, v in enumerate(seq):
            if i:
                out.append(", ")
            _emit(v, out)
        out.append("]")
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        _emit({f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}, out)
    else:
        raise TypeError("cannot serialize %r" % type(obj))
