"""Deterministic child-seed derivation.

Every random stream in the package is seeded from a master seed combined with
a role string (and optional indices) through SHA-256, so adding or reordering
consumers never perturbs existing streams. Python's builtin hash() is salted
per process and must not be used here.
"""

from __future__ import annotations

import hashlib

from .errors import require_integer


def derive_seed(master: int, *parts: object) -> int:
    """Map (master, role parts...) to a stable unsigned 64-bit seed; a master
    that is not an integer (a bool, a float, a string) raises ConfigurationError."""
    h = hashlib.sha256(str(require_integer("master", master)).encode("ascii"))
    for part in parts:
        h.update(b"/")
        h.update(str(part).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "little")
