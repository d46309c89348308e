"""Correctness of one pass's operations against reference.json.

Verdicts, counts, indices and strings must match exactly.  Floats match
within a relative tolerance fixed from float64 beforehand, not by byte
digests: a different BLAS thread count reorders the sums inside each
matvec and moves the last digits.  ``RTOL`` allows 1e-8, about 4.5e7
units in the last place; the longest chain of dependent float64 operations
in a workload is about 1.5e5 steps, and the spread measured between one
and two OpenBLAS threads on ``execute-rot1000`` was at most 6e-12.

Acceptance criteria report their scalars as printed text (``%.3e`` and
the like).  Each number in a line is compared within one unit in its last
printed digit, ``RTOL`` or ``ATOL_PRINTED``, whichever is largest;
``ATOL_PRINTED`` covers margins printed at rounding level (about 1e-16)
of O(1) quantities.
"""

from __future__ import annotations

import math
import re

RTOL = 1e-8
ATOL_PRINTED = 1e-15

#: Output keys whose value depends on formatting length, not on a verdict
#: or scalar; recorded, never compared.
UNCOMPARED = {"bytes"}

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan)")


def _close(a: float, b: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= max(RTOL * max(abs(a), abs(b)), atol)


def _printed_ulp(token: str) -> float:
    mantissa, _, exponent = token.lower().partition("e")
    decimals = len(mantissa.partition(".")[2])
    # 1.01: adjacent printed values differ by one unit up to float rounding
    return 1.01 * 10.0 ** (int(exponent or 0) - decimals)


def _is_int(token: str) -> bool:
    return re.fullmatch(r"[-+]?\d+", token) is not None


def line_mismatch(ref: str, got: str) -> bool:
    ref_parts, got_parts = _NUMBER.split(ref), _NUMBER.split(got)
    ref_nums, got_nums = _NUMBER.findall(ref), _NUMBER.findall(got)
    if ref_parts != got_parts or len(ref_nums) != len(got_nums):
        return True
    for r, g in zip(ref_nums, got_nums):
        if _is_int(r) and _is_int(g):
            if r != g:
                return True
        elif not _close(float(r), float(g),
                        max(_printed_ulp(r), _printed_ulp(g), ATOL_PRINTED)):
            return True
    return False


def mismatches(ref: dict, got: dict) -> list[str]:
    """Keys of one operation's outputs that differ from the reference."""
    bad = []
    for key in sorted(set(ref) | set(got)):
        if key in UNCOMPARED:
            continue
        if key not in ref or key not in got:
            bad.append(key)
            continue
        r, g = ref[key], got[key]
        if key == "lines":
            if len(r) != len(g) or any(map(line_mismatch, r, g)):
                bad.append(key)
        elif isinstance(r, float) and isinstance(g, (int, float)) \
                and not isinstance(g, bool):
            if not _close(r, float(g)):
                bad.append(key)
        elif type(r) is not type(g) or r != g:
            bad.append(key)
    return bad


def nonfinite(outputs: dict) -> list[str]:
    """Keys whose value is a non-finite float or a line that prints one."""
    bad = [k for k, v in outputs.items()
           if isinstance(v, float) and not math.isfinite(v)]
    for line in outputs.get("lines", ()):
        if re.search(r"\b(nan|inf)\b", line):
            bad.append("lines")
            break
    if outputs.get("finite") is False:
        bad.append("finite")
    return bad
