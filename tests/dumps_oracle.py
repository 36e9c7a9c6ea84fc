"""Reference JSON writer: the recursive `persistence.dumps` that builds each
container's text from its members' strings and encodes every key with
`json.dumps`.  The package's one-pass writer must give the same text and
the same refusals for every input.
"""

import json

import numpy as np


def _format_float(x: float) -> str:
    if not np.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    s = "%.17g" % x
    # keep the token a float on reload (json would parse "2" as an int)
    if "." not in s and "e" not in s and "n" not in s:
        s += ".0"
    return s


def dumps(obj) -> str:
    """JSON text with %.17g floats and sorted keys; bitwise reproducible."""
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        body = ",".join(f"{json.dumps(str(k))}:{dumps(v)}" for k, v in items)
        return "{" + body + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return dumps(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__}")
