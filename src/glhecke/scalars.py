"""Exact Gaussian-rational scalars.

Every numeric quantity in this package (twist parameters, weight coordinates,
matrix entries) is a Gaussian rational a + b*i with both parts stored as
reduced :class:`fractions.Fraction` values; there is no floating point
anywhere.

Scalar is a boundary type: values are parsed, built and printed as Scalars,
and a Scalar is only its parts, equality, hash and string forms.  It has no
arithmetic besides Scalar + Scalar: module checks, the level map and the
orbit map compute on the Fraction parts ``re``/``im`` or on scaled integers
(``tests/test_scalars.py::test_hot_paths_do_no_scalar_arithmetic``), and the
test oracles do Gaussian arithmetic on their own subclass.

String forms (used in JSON and CSV):

* a real value prints as ``"3"`` or ``"-3/4"`` (never ``"3/1"``);
* a value with a nonzero imaginary part prints as ``"1/2+3/4i"`` or
  ``"1/2-3/4i"``, with the real part always present.
"""

from __future__ import annotations

import json
import math
import re as _re
from fractions import Fraction

__all__ = [
    "Scalar",
    "rat_str",
    "parse_rat",
    "scalar_str",
    "parse_scalar",
    "scalar_to_json",
    "scalar_from_json",
    "scalar_sort_key",
]


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an int or Fraction, got {type(x).__name__}")


class Scalar:
    """A Gaussian rational, immutable and hashable.

    >>> Scalar(Fraction(3, 2), -2)
    Scalar('3/2-2i')
    >>> Scalar(3).re, Scalar(3) == 3
    (Fraction(3, 1), True)
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not by setting the slots
        return (Scalar, (self.re, self.im))

    def __add__(self, other):
        # kept only for the benchmark's pool shifts (bench/record.py _shift)
        if not isinstance(other, Scalar):
            return NotImplemented
        return Scalar(self.re + other.re, self.im + other.im)

    @property
    def is_real(self) -> bool:
        return self.im == 0

    @property
    def is_integer(self) -> bool:
        return self.im == 0 and self.re.denominator == 1

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # agrees with hash(int) / hash(Fraction) on real values
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __repr__(self):
        return f"Scalar({scalar_str(self)!r})"

    def __str__(self):
        return scalar_str(self)


def scalar_sort_key(s: Scalar) -> tuple[Fraction, Fraction]:
    """Total-order key (real part, then imaginary part)."""
    return (s.re, s.im)


def _grid(s: Scalar) -> tuple[int, int, int]:
    """``(d, d*re, d*im)``, with d the least common denominator of the parts."""
    re, im = s.re, s.im
    d = math.lcm(re.denominator, im.denominator)
    return d, re.numerator * (d // re.denominator), im.numerator * (d // im.denominator)


# -- string and JSON forms ---------------------------------------------------


def rat_str(x: Fraction) -> str:
    """Reduced rational string: ``"3"`` or ``"-3/4"``, never ``"3/1"``."""
    return str(_frac(x))


_RAT_RE = _re.compile(r"^-?\d+(/\d+)?$")


def parse_rat(text: str) -> Fraction:
    text = text.strip()
    if not _RAT_RE.match(text):
        raise ValueError(f"not a rational string: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational string: {text!r}") from None


def scalar_str(s: Scalar) -> str:
    if s.im == 0:
        return rat_str(s.re)
    sign = "+" if s.im > 0 else "-"
    return f"{rat_str(s.re)}{sign}{rat_str(abs(s.im))}i"


def parse_scalar(text: str) -> Scalar:
    """Parse ``"3"``, ``"-3/4"``, or ``"1/2-3/4i"`` back to a Scalar."""
    text = text.strip()
    if text.endswith("i"):
        body = text[:-1]
        # split at the sign of the imaginary part (not the leading sign)
        for pos in range(len(body) - 1, 0, -1):
            if body[pos] in "+-" and body[pos - 1] not in "+-/":
                re_part, im_sign, im_part = body[:pos], body[pos], body[pos + 1 :]
                try:
                    re, im = parse_rat(re_part), parse_rat(im_part)
                except ValueError:
                    break
                return Scalar(re, -im if im_sign == "-" else im)
        raise ValueError(
            f"malformed scalar string: {text!r}; expected the form a+bi with both "
            "parts rational and the coefficient explicit, e.g. 1+1i or 1/2-3/4i"
        )
    return Scalar(parse_rat(text))


def scalar_to_json(s: Scalar) -> dict:
    return {"re": rat_str(s.re), "im": rat_str(s.im)}


_JSON_TYPES = {str: "string", int: "integer", dict: "object", list: "array"}


def _json_field(obj: dict, key: str, kind: type):
    """``obj[key]``, checked to be present and a JSON string, integer,
    object or array of the given ``kind`` (a boolean is not an integer);
    ``obj`` itself must be a JSON object."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object with field {key!r}, got {json.dumps(obj)}")
    if key not in obj:
        raise ValueError(f"missing field {key!r}")
    value = obj[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{key!r} must be a JSON {_JSON_TYPES[kind]}, got {json.dumps(value)}")
    return value


def scalar_from_json(obj: dict) -> Scalar:
    return Scalar(parse_rat(_json_field(obj, "re", str)), parse_rat(_json_field(obj, "im", str)))
