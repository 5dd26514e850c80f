"""Canonical rational tokens shared by the on-disk text formats.

Every format in this package is line oriented, UTF-8, LF endings, no
trailing whitespace, and stores rationals as `p/q` in lowest terms with
q >= 2, or as a bare integer.  Writers emit exactly this form and readers
reject anything else, which is what makes round trips byte-stable.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import FormatError

# a canonical integer has no leading zeros and no sign on zero
_INT = r"0|-?[1-9][0-9]*"
_INT_RE = re.compile(_INT)
# the shape of a canonical rational token, an integer over an optional
# denominator, with groups (numerator, denominator or None); that q >= 2
# and p/q is in lowest terms is checked after the match
RATIONAL_RE = re.compile(rf"({_INT})(?:/([1-9][0-9]*))?")


def format_rational(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_ratio(token: str) -> tuple[int, int]:
    """Parse a canonical rational token to (numerator, denominator),
    rejecting unreduced or exotic forms."""
    m = RATIONAL_RE.fullmatch(token)
    if m is None:
        raise FormatError(f"not a canonical rational token: {token!r}")
    num, den = m.groups()
    if den is None:
        return int(num), 1
    n, d = int(num), int(den)
    if d == 1 or math.gcd(n, d) != 1:
        raise FormatError(f"rational token not in lowest terms: {token!r}")
    return n, d


def parse_rational(token: str) -> Fraction:
    """Parse a canonical rational token, rejecting unreduced or exotic forms."""
    return Fraction(*parse_ratio(token))


def parse_int(token: str, what: str) -> int:
    if not _INT_RE.fullmatch(token):
        raise FormatError(f"bad {what}: {token!r}")
    return int(token)


def split_lines(text: str, what: str) -> list[str]:
    """Split canonical LF-terminated text into lines, validating shape."""
    if text and not text.endswith("\n"):
        raise FormatError(f"{what}: missing trailing newline")
    if "\r" in text:
        raise FormatError(f"{what}: CR characters are not allowed")
    lines = text.split("\n")[:-1]
    for i, line in enumerate(lines):
        if line != line.strip() or "  " in line:
            raise FormatError(f"{what}: non-canonical whitespace on line {i + 1}")
    return lines


def write_text(path_or_stream, text: str) -> None:
    """Write text to an open text stream, or to a file as UTF-8 with LF."""
    if hasattr(path_or_stream, "write"):
        path_or_stream.write(text)
    else:
        with open(path_or_stream, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def read_text(path_or_stream) -> str:
    """Read an open text stream, or a UTF-8 file with line endings kept."""
    if hasattr(path_or_stream, "read"):
        return path_or_stream.read()
    with open(path_or_stream, "r", encoding="utf-8", newline="") as fh:
        return fh.read()
