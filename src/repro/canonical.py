"""Canonical JSON: sorted keys, compact separators, ASCII.

One encoding serves the checksums of durable records
(:mod:`repro.atomicio`), the wire frames
(:func:`repro.server.protocol.encode_frame`) and the fragments the
decision ledger keeps encoded (:class:`repro.decisions.DecisionLedger`),
so text encoded by one splices byte for byte into another.
"""

from __future__ import annotations

import json
from typing import Any


#: ``json.dumps`` builds a new encoder on every call that passes options;
#: this one is built once (encoding keeps no state between calls).
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def dumps(value: Any) -> str:
    """``value`` in canonical JSON."""
    return _ENCODER.encode(value)


class Encoded(str):
    """Text that already is canonical JSON.  A frame encoder splices it
    in as it is, where a plain ``str`` would be encoded as a JSON
    string."""

    __slots__ = ()
