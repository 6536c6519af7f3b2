"""Parsing and output formats.

The JSON schema for field data: an F_q element is one integer, its base-p
digit packing in the fixed polynomial basis; a polynomial in t is the
ascending list of such integers; a rational function is {"num": [...],
"den": [...]}, and an operator entry x of F_q or of A is written as the
rational function x/1.  Matrices are nested row-major arrays.  CLI
polynomial syntax is ASCII like ``t^2+t+1`` with integer coefficients
reduced into F_q.
"""

import json
import re

from .errors import UsageError
from .rings import Poly

_TERM_RE = re.compile(r"^\s*(?:(\d+)\s*\*?\s*)?(t)?\s*(?:\^\s*(\d+))?\s*$")


def poly_from_terms(fq, terms):
    out = [0] * (max(terms, default=-1) + 1)
    for e, c in terms.items():
        out[e] = c
    return Poly(fq, out)


def parse_terms(fq, text):
    """The nonzero terms {exponent: code} of ``t^2+t+1``-style input over F_q.

    A term ``-c*t^e`` is the negative of c in F_q, also when q is not prime.
    No list as long as the degree is formed, so a caller can bound the
    degree before it builds the polynomial.
    """
    s = text.strip()
    if not s or s == "-":
        raise UsageError(f"empty polynomial: {text!r}")
    parts = re.split(r"([+-])", s)
    terms = list(zip(["+"] + parts[1::2], parts[0::2]))
    if not terms[0][1].strip():
        terms = terms[1:]  # a leading sign
    coeffs = {}
    for sign, chunk in terms:
        chunk = chunk.strip()
        if not chunk:
            raise UsageError(f"empty term in polynomial {text!r}")
        m = _TERM_RE.match(chunk)
        if not m or (m.group(1) is None and m.group(2) is None):
            raise UsageError(f"cannot parse polynomial term {chunk!r} in {text!r}")
        if m.group(2) is None and m.group(3) is not None:
            raise UsageError(f"exponent without variable in {chunk!r}")
        try:
            coef = int(m.group(1) or 1)
            exp = int(m.group(3) or 1) if m.group(2) else 0
        except ValueError:  # more digits than int() converts
            raise UsageError("a coefficient or exponent has too many digits") from None
        code = fq.from_int(coef)
        if sign == "-":
            code = fq.neg(code)
        coeffs[exp] = fq.add(coeffs.get(exp, 0), code)
    return {e: c for e, c in coeffs.items() if c}


def entry_json(x):
    """A matrix entry x of F_q or of A as the rational function x/1."""
    return {"num": list(x.coeffs) if isinstance(x, Poly) else [x.code] if x else [], "den": [1]}


def entry_tex(x):
    return _poly_tex(x) if isinstance(x, Poly) else str(x)


# per format: an entry's text; a matrix's start, row template, row separator, end, entry separator
_FORMATS = {
    "json": (lambda x: canonical_json_dumps(entry_json(x))[:-1], "[", "[{}]", ",", "]", ","),
    "csv": (lambda x: f'"{x}"', "", "{}", "\n", "\n", ","),
    "latex": (entry_tex, "\\begin{pmatrix}\n", "{}", " \\\\\n", "\n\\end{pmatrix}\n", " & "),
}


def matrix_chunks(fmt, text_rows):
    """A matrix in ``fmt``, one chunk per row; text_rows(text) gives the rows, each an iterable of text(entry)."""
    text, start, row, sep, end, entry_sep = _FORMATS[fmt]
    yield start
    for i, entries in enumerate(text_rows(text)):
        yield (sep if i else "") + row.format(entry_sep.join(entries))
    yield end


def _poly_tex(p):
    if p.is_zero():
        return "0"
    coeffs = p.coeffs
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            tp = "t" if i == 1 else f"t^{{{i}}}"
            parts.append(tp if c == 1 else f"{c} {tp}")
    return " + ".join(parts)


def canonical_json_dumps(data):
    """Deterministic, byte-stable JSON rendering."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"), ensure_ascii=True) + "\n"
