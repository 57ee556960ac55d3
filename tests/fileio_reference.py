"""Reference for `cyclerisk.fileio.canonical_json`.

This is the serializer the package replaced: a recursive walk that rebuilds
every dict, list and number as plain Python values before `json.dumps` sees
them. The package lets `json.dumps` meet numpy values and convert them
through its `default` hook; the property test requires the same text.
The walk iterates `tolist()` of every array, so a 0-d array, whose
`tolist()` is a number, raises TypeError here; the package writes the number.
"""

import json

import numpy as np


def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def reference_json(obj) -> str:
    return json.dumps(_plain(obj), sort_keys=True, separators=(",", ":"),
                      allow_nan=False)
