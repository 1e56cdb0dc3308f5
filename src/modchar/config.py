"""Run configuration: a strict JSON schema around one modified character.

A config file fixes everything a run needs: the base character, the
override set S, the sieve range, the checkpoint rule, the Riesz orders
(or "auto", resolved through the Diophantine threshold), gamma, whether
to normalize, and the output path. Parsing is strict: unknown fields,
wrong types and out-of-range values are rejected with the line and column
of the offending token, not just a path. Serialization is canonical and
round-trips losslessly.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, replace
from fractions import Fraction

from .characters import (MAX_MODULUS, Character, character_from_label,
                         character_group, is_prime)
from .errors import ConfigError, DomainError, ModCharError
from .modified import ModifiedCharacter, build_modified
from .roots import UnitValue
from .sieve import (MAX_SIEVE_X as MAX_X, angle_scale, parse_checkpoint_rule,
                    whole_number)

_TOP_FIELDS = {"character", "modifications", "x_max", "checkpoints",
               "orders", "gamma", "normalized", "allow_imprimitive", "out"}
_CHAR_FIELDS = {"modulus", "exponents", "label"}
_MOD_FIELDS = {"p", "angle"}


@dataclass(frozen=True)
class RunConfig:
    """Everything one experiment needs, immutable and hashable."""

    character: Character
    modifications: tuple[tuple[int, UnitValue], ...] = ()
    x_max: int = 10**6
    checkpoints: str | tuple[int, ...] = "dyadic"
    orders: str | tuple[int, ...] = "auto"
    gamma: float = 1.0
    normalized: bool = False
    allow_imprimitive: bool = False
    out: str | None = None

    def modified(self) -> ModifiedCharacter:
        return build_modified(self.character, list(self.modifications),
                              allow_imprimitive=self.allow_imprimitive)

    def resolved_orders(self, mc: ModifiedCharacter | None = None
                        ) -> tuple[int, ...]:
        """Concrete order list; "auto" maps to the Diophantine threshold."""
        if self.orders != "auto":
            return tuple(self.orders)
        from .diophantine import min_riesz_order
        if mc is None:
            mc = self.modified()
        return (min_riesz_order(mc, self.gamma),)

    def to_dict(self) -> dict:
        chi = self.character
        doc = {
            "character": {"modulus": chi.modulus,
                          "exponents": list(chi.exponents),
                          "label": chi.label},
            "modifications": [{"p": p, "angle": [v.numerator, v.denominator]}
                              for p, v in self.modifications],
            "x_max": self.x_max,
            "checkpoints": (self.checkpoints if isinstance(self.checkpoints, str)
                            else list(self.checkpoints)),
            "orders": (self.orders if isinstance(self.orders, str)
                       else list(self.orders)),
            "gamma": self.gamma,
            "normalized": self.normalized,
            "allow_imprimitive": self.allow_imprimitive,
        }
        if self.out is not None:
            doc["out"] = self.out
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def with_overrides(self, **kw) -> "RunConfig":
        """Copy with the given fields replaced; None values are ignored."""
        live = {k: v for k, v in kw.items() if v is not None}
        return replace(self, **live) if live else self

    def with_flags(self, **flags) -> "RunConfig":
        """with_overrides for command-line flags. Each flag goes through
        the rule its config field gets, and an explicit checkpoint list
        must end within the resulting x_max, so a bad flag is a
        ConfigError that names it, as a bad field is."""
        x_max, cps = flags.get("x_max"), flags.get("checkpoints")
        orders, gamma = flags.get("orders"), flags.get("gamma")
        if x_max is not None:
            flags["x_max"] = _want_int("", ("--xmax",), x_max, lo=1, hi=MAX_X)
        if cps is not None:
            flags["checkpoints"] = _parse_checkpoints("", ("--checkpoints",),
                                                      cps)
        if orders is not None:
            flags["orders"] = _parse_orders("", ("--k",), orders)
        if gamma is not None:
            flags["gamma"] = _want_number("", ("--gamma",), gamma,
                                          positive=True)
        cfg = self.with_overrides(**flags)
        _check_last_checkpoint(
            "", ("--checkpoints",) if cps is not None else ("--xmax",), cfg)
        return cfg


_WS = re.compile(r"[ \t\n\r]*")
_DECODE = json.JSONDecoder().raw_decode


def _past(text: str, i: int, char: str) -> int:
    """Index after char and the whitespace around it; ValueError if the
    next token is not char."""
    i = _WS.match(text, i).end()
    return _WS.match(text, text.index(char, i, i + 1) + 1).end()


def _locate(text: str, path: tuple) -> tuple[int | None, int | None]:
    """Line and column of the value at a key/index path, best effort.

    text is a document json.loads has accepted (or ""). The walk reads it
    with json's own raw_decode, one key or skipped value at a time, so
    that schema errors can point at the offending token. The first of two
    equal keys wins. A missing key or index, or a container of the wrong
    kind, returns (None, None), except that index 0 of an empty list
    points at its "]"; the path in the message still identifies the
    field. Line and column follow json's rule for its decode errors.
    """
    i = _WS.match(text).end()
    try:
        for step in path:
            if isinstance(step, str):
                i = _past(text, i, "{")
                while True:
                    key, i = _DECODE(text, i)       # ValueError at "}"
                    i = _past(text, i, ":")
                    if key == step:
                        break
                    i = _past(text, _DECODE(text, i)[1], ",")
            else:
                i = _past(text, i, "[")
                for _ in range(step):
                    i = _past(text, _DECODE(text, i)[1], ",")
    except ValueError:
        return None, None
    e = json.JSONDecodeError("", text, i)
    return e.lineno, e.colno


def _fail(text: str, path: tuple, message: str):
    line, col = _locate(text, path)
    where = ".".join(str(s) for s in path) or "top level"
    raise ConfigError(f"{where}: {message}", line, col)


def _want_int(text, path, v, lo=None, hi=None) -> int:
    n = whole_number(v)
    if n is None:
        _fail(text, path, f"expected an integer, got {v!r}")
    v = n
    if lo is not None and v < lo:
        _fail(text, path, f"must be >= {lo}, got {v}")
    if hi is not None and v > hi:
        _fail(text, path, f"must be <= {hi}, got {v}")
    return v


def _want_number(text, path, v, positive=False) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail(text, path, f"expected a number, got {v!r}")
    v = float(v)
    if not math.isfinite(v):
        _fail(text, path, "must be finite")
    if positive and v <= 0:
        _fail(text, path, f"must be positive, got {v}")
    return v


def _want_bool(text, path, v) -> bool:
    if not isinstance(v, bool):
        _fail(text, path, f"expected true or false, got {v!r}")
    return v


def _reject_unknown(text, path, doc: dict, allowed: set):
    for key in doc:
        if key not in allowed:
            _fail(text, path + (key,), f"unknown field {key!r}")


def _parse_character(text, path, doc) -> Character:
    if not isinstance(doc, dict):
        _fail(text, path, "character must be an object")
    _reject_unknown(text, path, doc, _CHAR_FIELDS)
    label = doc.get("label")
    modulus = doc.get("modulus")
    exponents = doc.get("exponents")
    if label is None and (modulus is None or exponents is None):
        _fail(text, path, "need either label or modulus plus exponents")
    by_label = None
    if label is not None:
        if not isinstance(label, str):
            _fail(text, path + ("label",), "label must be a string like '3.2'")
        try:
            by_label = character_from_label(label)
        except ModCharError as e:
            _fail(text, path + ("label",), str(e))
    if modulus is None and exponents is None:
        return by_label
    if modulus is not None:
        q = _want_int(text, path + ("modulus",), modulus, lo=1, hi=MAX_MODULUS)
        if by_label is not None and by_label.modulus != q:
            _fail(text, path + ("modulus",),
                  f"modulus {q} disagrees with label {label!r}")
    else:
        q = by_label.modulus
    if exponents is None:
        return by_label
    if not isinstance(exponents, list):
        _fail(text, path + ("exponents",), "exponents must be a list")
    grp = character_group(q)
    if len(exponents) != len(grp.orders):
        _fail(text, path + ("exponents",),
              f"modulus {q} needs {len(grp.orders)} exponents,"
              f" got {len(exponents)}")
    exps = []
    for i, (e, d) in enumerate(zip(exponents, grp.orders)):
        exps.append(_want_int(text, path + ("exponents", i), e,
                              lo=0, hi=d - 1))
    chi = Character(grp, tuple(exps))
    if by_label is not None and chi != by_label:
        _fail(text, path + ("exponents",),
              f"exponents name {chi.label}, label says {label!r}")
    return chi


def _parse_modifications(text, path, doc
                         ) -> tuple[tuple[int, UnitValue], ...]:
    if not isinstance(doc, list):
        _fail(text, path, "modifications must be a list")
    out = []
    for i, entry in enumerate(doc):
        here = path + (i,)
        if not isinstance(entry, dict):
            _fail(text, here, "each modification must be an object")
        _reject_unknown(text, here, entry, _MOD_FIELDS)
        if "p" not in entry or "angle" not in entry:
            _fail(text, here, "modification needs fields p and angle")
        p = _want_int(text, here + ("p",), entry["p"], lo=2)
        if not is_prime(p):
            _fail(text, here + ("p",), f"p = {p} is not prime")
        ang = entry["angle"]
        if (not isinstance(ang, list) or len(ang) != 2):
            _fail(text, here + ("angle",),
                  "angle must be [a, b] meaning e^(2 pi i a/b)")
        a = _want_int(text, here + ("angle", 0), ang[0])
        b = _want_int(text, here + ("angle", 1), ang[1])
        if b == 0:
            _fail(text, here + ("angle", 1), "denominator must be nonzero")
        out.append((p, UnitValue.from_fraction(Fraction(a, b))))
    return tuple(out)


def _parse_checkpoints(text, path, v):
    if isinstance(v, str):
        try:
            return parse_checkpoint_rule(v)[0]
        except DomainError as e:
            _fail(text, path, str(e))
    if isinstance(v, (list, tuple)):     # a tuple from --checkpoints
        pts = [_want_int(text, path + (i,), c, lo=1)
               for i, c in enumerate(v)]
        if not pts:
            _fail(text, path, "checkpoint list must not be empty")
        if sorted(set(pts)) != pts:
            _fail(text, path, "checkpoint list must be strictly increasing")
        return tuple(pts)
    _fail(text, path, "checkpoints must be a rule string or a list")


def _parse_orders(text, path, v):
    if v == "auto":
        return "auto"
    if isinstance(v, (list, tuple)):     # a tuple from --k
        ks = [_want_int(text, path + (i,), k, lo=0) for i, k in enumerate(v)]
        if not ks:
            _fail(text, path, "orders list must not be empty")
        return tuple(sorted(set(ks)))
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return (_want_int(text, path, v, lo=0),)
    _fail(text, path, 'orders must be "auto", an integer or a list')


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    """Parse and validate one JSON config document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{source}: invalid JSON: {e.msg}",
                          e.lineno, e.colno) from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{source}: top level must be a JSON object")
    _reject_unknown(text, (), doc, _TOP_FIELDS)
    if "character" not in doc:
        _fail(text, (), "missing required field 'character'")
    chi = _parse_character(text, ("character",), doc["character"])
    mods = _parse_modifications(text, ("modifications",),
                                doc.get("modifications", []))
    try:
        angle_scale(chi, [v for _, v in mods])
    except DomainError as e:
        _fail(text, ("modifications",), str(e))
    x_max = _want_int(text, ("x_max",), doc.get("x_max", 10**6),
                      lo=1, hi=MAX_X)
    cps = _parse_checkpoints(text, ("checkpoints",),
                             doc.get("checkpoints", "dyadic"))
    orders = _parse_orders(text, ("orders",), doc.get("orders", "auto"))
    gamma = _want_number(text, ("gamma",), doc.get("gamma", 1.0),
                         positive=True)
    normalized = _want_bool(text, ("normalized",),
                            doc.get("normalized", False))
    allow = _want_bool(text, ("allow_imprimitive",),
                       doc.get("allow_imprimitive", False))
    out = doc.get("out")
    if out is not None and not isinstance(out, str):
        _fail(text, ("out",), "out must be a path string")
    cfg = RunConfig(chi, mods, x_max, cps, orders, gamma, normalized,
                    allow, out)
    _check_last_checkpoint(text, ("checkpoints",), cfg)
    return cfg


def _check_last_checkpoint(text, path, cfg: RunConfig):
    if isinstance(cfg.checkpoints, tuple) and cfg.checkpoints[-1] > cfg.x_max:
        _fail(text, path, f"last checkpoint {cfg.checkpoints[-1]} exceeds"
                          f" x_max {cfg.x_max}")


def parse_config(path: str) -> RunConfig:
    """Load a config file; all failures surface as ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e.strerror or e}") from None
    return parse_config_text(text, source=path)
