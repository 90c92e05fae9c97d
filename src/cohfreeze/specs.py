"""Parsers for the inline state/channel grammar and the sweep spec files.

Inline specs are a constructor name followed by key=value tokens, with lists
in brackets and complex numbers written as a+bi:

    phi N=2 l=00 sign=+
    mixed N=2 p=0.8 weights=[00:0.6,01:0.4]
    raw dim=2 entries=[0.5+0i,0.5+0i,0.5+0i,0.5+0i]
    bitflip q=0.3
    local [bitflip q=0.1, amplitudedamping g=0.4]

Sweep files are line oriented, one `section.key = value` per line; see
docs/spec-format.md for the full grammar.
"""

from __future__ import annotations

import math

import numpy as np

from .channels import (
    CHANNEL_FACTORIES,
    KrausChannel,
    LocalChannel,
    identity_channel,
    local_channel,
)
from .errors import CohfreezeError, OutOfRangeError, SpecParseError
from .experiments import (
    SweepSpec,
    _require_supported_dim,
    _require_supported_qubits,
)
from .states import (
    DensityMatrix,
    MixedFamilySpec,
    _random_weights,
    basis_state,
    from_pure,
    mixed_family,
    phi_state,
)


def parse_complex(token: str) -> complex:
    """Parse a+bi style complex numbers; plain reals are accepted too."""
    text = token.strip().replace(" ", "")
    if not text:
        raise SpecParseError("empty complex number")
    try:
        if text.endswith("i") or text.endswith("j"):
            return complex(text[:-1] + "j")
        return complex(float(text))
    except ValueError:
        raise SpecParseError(f"bad complex number {token!r}") from None


def _split_top_level(text: str, separator: str | None = None) -> list[str]:
    """Split at bracket depth zero: on separator, keeping empty parts, or by
    default on whitespace, dropping empty parts."""
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise SpecParseError(f"unbalanced brackets in {text!r}")
        if depth == 0 and (ch.isspace() if separator is None else ch == separator):
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise SpecParseError(f"unbalanced brackets in {text!r}")
    parts.append("".join(current))
    if separator is None:
        return [part for part in parts if part]
    return parts


def _parse_tokens(text: str) -> tuple[str, dict[str, str], list[str]]:
    """Return (constructor, key=value map, positional bracket arguments)."""
    tokens = _split_top_level(text)
    if not tokens:
        raise SpecParseError("empty specification")
    name = tokens[0]
    kwargs: dict[str, str] = {}
    positional: list[str] = []
    for token in tokens[1:]:
        if token.startswith("["):
            positional.append(token)
            continue
        if "=" not in token:
            raise SpecParseError(f"expected key=value, got {token!r}")
        key, value = token.split("=", 1)
        if not key or not value:
            raise SpecParseError(f"expected key=value, got {token!r}")
        if key in kwargs:
            raise SpecParseError(f"duplicate key {key!r}")
        kwargs[key] = value
    return name, kwargs, positional


def _bracket_items(text: str) -> list[str]:
    if not (text.startswith("[") and text.endswith("]")):
        raise SpecParseError(f"expected a bracketed list, got {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return []
    return [item.strip() for item in _split_top_level(inner, ",")]


def _require(kwargs: dict[str, str], key: str, context: str) -> str:
    try:
        return kwargs.pop(key)
    except KeyError:
        raise SpecParseError(f"{context} requires {key}=") from None


def _reject_unknown(kwargs: dict[str, str], context: str) -> None:
    if kwargs:
        raise SpecParseError(
            f"unknown key(s) for {context}: {', '.join(sorted(kwargs))}"
        )


def _parse_int(text: str, context: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise SpecParseError(f"bad integer for {context}: {text!r}") from None


def _parse_qubits(kwargs: dict[str, str], context: str) -> int:
    """The N= qubit count, refused beyond the supported dimension before
    anything is built."""
    n = _parse_int(_require(kwargs, "N", context), "N")
    if n < 1:
        raise OutOfRangeError(f"N must be at least 1, got {n}")
    _require_supported_qubits(n)
    return n


def _parse_dim(text: str) -> int:
    """A dim= value, refused beyond the supported dimension before anything
    is built."""
    dim = _parse_int(text, "dim")
    if dim < 1:
        raise OutOfRangeError(f"dim must be at least 1, got {dim}")
    _require_supported_dim(dim)
    return dim


def _parse_float(text: str, context: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise SpecParseError(f"bad number for {context}: {text!r}") from None


def _parse_bool(text: str, context: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise SpecParseError(f"bad boolean for {context}: {text!r}")


def _raw_matrix(text: str, dim: int, needs: str) -> np.ndarray:
    """The dim x dim matrix of a bracketed list of its entries, row by row."""
    entries = [parse_complex(item) for item in _bracket_items(text)]
    if len(entries) != dim * dim:
        raise SpecParseError(
            f"raw dim={dim} {needs} {dim * dim} entries, got {len(entries)}"
        )
    return np.array(entries, dtype=np.complex128).reshape(dim, dim)


def parse_state_spec(text: str) -> DensityMatrix:
    """Build a state from its inline constructor specification."""
    name, kwargs, positional = _parse_tokens(text)
    if positional:
        raise SpecParseError(f"unexpected bracket argument for {name!r}")
    if name == "phi":
        n = _parse_qubits(kwargs, "phi")
        bits = _require(kwargs, "l", "phi")
        sign = _require(kwargs, "sign", "phi")
        _reject_unknown(kwargs, "phi")
        if len(bits) != n:
            raise SpecParseError(f"l={bits!r} does not have N={n} bits")
        if sign not in ("+", "-"):
            raise SpecParseError(f"sign must be + or -, got {sign!r}")
        return phi_state(bits, sign)
    if name == "mixed":
        n = _parse_qubits(kwargs, "mixed")
        p = _parse_float(_require(kwargs, "p", "mixed"), "p")
        weights_text = _require(kwargs, "weights", "mixed")
        if weights_text == "random":
            seed = _parse_int(_require(kwargs, "seed", "mixed random weights"), "seed")
            _reject_unknown(kwargs, "mixed")
            if seed < 0:
                raise OutOfRangeError(f"seed must be non-negative, got {seed}")
            weights = _random_weights(n, np.random.default_rng(seed))
        else:
            _reject_unknown(kwargs, "mixed")
            weights = {}
            for item in _bracket_items(weights_text):
                if ":" not in item:
                    raise SpecParseError(
                        f"weights entries are bits:value, got {item!r}"
                    )
                bits, value = item.split(":", 1)
                if len(bits) != n:
                    raise SpecParseError(
                        f"weight key {bits!r} does not have N={n} bits"
                    )
                if bits in weights:
                    raise SpecParseError(f"duplicate weight key {bits!r}")
                weights[bits] = _parse_float(value, f"weight {bits}")
        return mixed_family(MixedFamilySpec(p=p, weights=weights))
    if name == "basis":
        n = _parse_qubits(kwargs, "basis")
        index = _parse_int(_require(kwargs, "i", "basis"), "i")
        _reject_unknown(kwargs, "basis")
        return basis_state(2**n, index)
    if name == "pure":
        amps_text = _require(kwargs, "amps", "pure")
        normalize = _parse_bool(kwargs.pop("normalize", "false"), "normalize")
        _reject_unknown(kwargs, "pure")
        amps = [parse_complex(item) for item in _bracket_items(amps_text)]
        if not amps:
            raise SpecParseError("pure requires at least one amplitude")
        _require_supported_dim(len(amps))
        return from_pure(np.array(amps), normalize=normalize)
    if name == "raw":
        dim = _parse_dim(_require(kwargs, "dim", "raw"))
        entries_text = _require(kwargs, "entries", "raw")
        _reject_unknown(kwargs, "raw")
        return DensityMatrix(_raw_matrix(entries_text, dim, "needs"))
    raise SpecParseError(f"unknown state constructor {name!r}")


def parse_channel_spec(text: str) -> KrausChannel | LocalChannel:
    """Build a channel from its inline constructor specification."""
    name, kwargs, positional = _parse_tokens(text)
    if name == "local":
        return local_channel(_local_factors(kwargs, positional))
    if positional:
        raise SpecParseError(f"unexpected bracket argument for {name!r}")
    if name == "identity":
        dim = _parse_dim(kwargs.pop("dim", "2"))
        _reject_unknown(kwargs, "identity")
        return identity_channel(dim)
    if name == "raw":
        dim = _parse_dim(_require(kwargs, "dim", "raw"))
        ops_text = _require(kwargs, "ops", "raw")
        _reject_unknown(kwargs, "raw")
        ops = [_raw_matrix(t, dim, "operators need") for t in _bracket_items(ops_text)]
        if not ops:
            raise SpecParseError("raw requires at least one operator")
        return KrausChannel(tuple(ops), label="raw")
    if name in CHANNEL_FACTORIES:
        key, factory = CHANNEL_FACTORIES[name]
        value = _parse_float(_require(kwargs, key, name), key)
        _reject_unknown(kwargs, name)
        return factory(value)
    raise SpecParseError(f"unknown channel constructor {name!r}")


def _local_factors(kwargs: dict[str, str], positional: list[str]) -> list:
    """The factors of a local spec, refused as soon as their running
    dimension passes the cap. A nested local contributes its own, so a dense
    local is one tensor product over all of them, whatever the nesting."""
    if kwargs or len(positional) != 1:
        raise SpecParseError("local takes one bracketed factor list")
    items = _bracket_items(positional[0])
    if not items:
        raise SpecParseError("local requires at least one factor")
    factors = []
    for item in items:
        name, kwargs, positional = _parse_tokens(item)
        if name == "local":
            factors += _local_factors(kwargs, positional)
        else:
            factors.append(parse_channel_spec(item))
        _require_supported_dim(math.prod(factor.dim for factor in factors))
    return factors


_SWEEP_SECTIONS = {"state", "channel", "sweep", "tolerances", "output"}


def parse_sweep_file(text: str) -> tuple[SweepSpec, str | None]:
    """Parse a sweep file; returns the spec and the optional output path."""
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SpecParseError("expected section.key = value", line=lineno)
        key_part, value = line.split("=", 1)
        key = key_part.strip()
        value = value.strip()
        if "." not in key:
            raise SpecParseError(f"key {key!r} is missing a section", line=lineno)
        section = key.split(".", 1)[0]
        if section not in _SWEEP_SECTIONS:
            raise SpecParseError(f"unknown section {section!r}", line=lineno)
        if key in entries:
            raise SpecParseError(f"duplicate key {key!r}", line=lineno)
        if not value:
            raise SpecParseError(f"empty value for {key!r}", line=lineno)
        entries[key] = (value, lineno)

    def take(key: str) -> tuple[str, int] | None:
        return entries.pop(key, None)

    state_entry = take("state.spec")
    if state_entry is None:
        raise SpecParseError("missing state.spec")
    try:
        state = parse_state_spec(state_entry[0])
    except SpecParseError as exc:
        raise SpecParseError(str(exc), line=state_entry[1]) from None
    except CohfreezeError as exc:
        raise SpecParseError(f"bad state.spec: {exc}", line=state_entry[1]) from None

    factors_entry = take("channel.factors")
    if factors_entry is None:
        raise SpecParseError("missing channel.factors")
    factors = tuple(_bracket_items(factors_entry[0]))
    if not factors:
        raise SpecParseError("channel.factors must not be empty", line=factors_entry[1])
    for kind in factors:
        if kind not in CHANNEL_FACTORIES:
            raise SpecParseError(
                f"unknown channel kind {kind!r}", line=factors_entry[1]
            )

    tied_entry = take("sweep.q")
    grids: list[tuple[float, ...]] = []
    tie = tied_entry is not None
    if tie:
        grids.append(_parse_grid(tied_entry[0], tied_entry[1]))
        extra = [k for k in entries if k.startswith("sweep.")]
        if extra:
            raise SpecParseError(
                "sweep.q cannot be combined with per-qubit grids",
                line=entries[extra[0]][1],
            )
    else:
        for i in range(len(factors)):
            grid_entry = take(f"sweep.q{i + 1}")
            if grid_entry is None:
                raise SpecParseError(f"missing sweep.q{i + 1}")
            grids.append(_parse_grid(grid_entry[0], grid_entry[1]))

    # An unset tolerance keeps SweepSpec's default.
    tolerances = {}
    for name in ("freezing", "certificate"):
        entry = take(f"tolerances.{name}")
        if entry is not None:
            tolerances[f"{name}_tol"] = _parse_float(entry[0], f"tolerances.{name}")

    output_path = None
    entry = take("output.path")
    if entry is not None:
        output_path = entry[0]

    if entries:
        key = sorted(entries)[0]
        raise SpecParseError(f"unknown key {key!r}", line=entries[key][1])

    try:
        spec = SweepSpec(
            state=state,
            factors=factors,
            grids=tuple(grids),
            tie_parameters=tie,
            state_label=state_entry[0],
            **tolerances,
        )
    except CohfreezeError as exc:
        raise SpecParseError(f"invalid sweep: {exc}") from None
    return spec, output_path


def _parse_grid(text: str, lineno: int) -> tuple[float, ...]:
    items = _bracket_items(text)
    if not items:
        raise SpecParseError("grid must not be empty", line=lineno)
    return tuple(_parse_float(item, "grid value") for item in items)
