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
import re

import numpy as np

from .channels import (
    CHANNEL_FACTORIES,
    KrausChannel,
    LocalChannel,
    channel_factory,
    identity_channel,
    local_channel,
)
from .errors import CohfreezeError, OutOfRangeError, SpecParseError
from .experiments import SweepSpec
from .linalg import check_dimension, check_qubits, check_tolerance, check_unit_interval
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


_BRACKET = re.compile(r"[\[\]]")
_SPACE = re.compile(r"\s")


def _split_top_level(text: str, separator: str | None = None) -> list[str]:
    """Split at bracket depth zero: on separator, keeping empty parts, or by
    default on whitespace, dropping empty parts. Each stretch between two
    top-level brackets is split whole; a bracketed group joins its part."""
    split = _SPACE.split if separator is None else lambda s: s.split(separator)
    parts, depth, start = [""], 0, 0
    for bracket in _BRACKET.finditer(text):
        at = bracket.start()
        if text[at] == "[":
            if depth == 0:  # a top-level stretch ends
                first, *rest = split(text[start:at])
                parts[-1] += first
                parts += rest
                start = at
            depth += 1
        else:
            depth -= 1
            if depth < 0:
                raise SpecParseError(f"unbalanced brackets in {text!r}")
            if depth == 0:  # the group joins the last part
                parts[-1] += text[start : at + 1]
                start = at + 1
    if depth != 0:
        raise SpecParseError(f"unbalanced brackets in {text!r}")
    first, *rest = split(text[start:])
    parts[-1] += first
    parts += rest
    if separator is None:
        return [part for part in parts if part]
    return parts


def _parse_tokens(text: str) -> tuple[str, dict[str, str], list[str]]:
    """Return (constructor, key=value map, positional bracket arguments);
    only a local takes a bracket argument."""
    tokens = _split_top_level(text)
    if not tokens:
        raise SpecParseError("empty specification")
    name = tokens[0]
    kwargs: dict[str, str] = {}
    positional: list[str] = []
    for token in tokens[1:]:
        if token.startswith("["):
            if name != "local":
                raise SpecParseError(f"unexpected bracket argument for {name!r}")
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


def _bracket_items(text: str, empty: str | None = None) -> list[str]:
    """The items of a bracketed list: an empty list is refused with the
    message empty when the caller gives one, and is no items otherwise."""
    if not (text.startswith("[") and text.endswith("]")):
        raise SpecParseError(f"expected a bracketed list, got {text!r}")
    inner = text[1:-1].strip()
    if inner:
        return [item.strip() for item in _split_top_level(inner, ",")]
    if empty is not None:
        raise SpecParseError(empty)
    return []


def _read(kwargs: dict[str, str], context: str, **readers) -> list:
    """Pop each named key in the order given and read it with its reader,
    then refuse any key left over. Every named key is required: an optional
    key's default is spec text that the caller merges in first."""
    values = []
    for key, reader in readers.items():
        if key not in kwargs:
            raise SpecParseError(f"{context} requires {key}=")
        values.append(reader(key, kwargs.pop(key)))
    if kwargs:
        raise SpecParseError(
            f"unknown key(s) for {context}: {', '.join(sorted(kwargs))}"
        )
    return values


def _text(key: str, text: str) -> str:
    return text


def _integer(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise SpecParseError(f"bad integer for {key}: {text!r}") from None


def _number(key: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise SpecParseError(f"bad number for {key}: {text!r}") from None


def _boolean(key: str, text: str) -> bool:
    if text not in ("true", "false"):
        raise SpecParseError(f"bad boolean for {key}: {text!r}")
    return text == "true"


def _size(key: str, text: str) -> int:
    """An N= qubit count or a dim= dimension, refused beyond the supported
    dimension before anything is built."""
    size = _integer(key, text)
    if size < 1:
        raise OutOfRangeError(f"{key} must be at least 1, got {size}")
    (check_qubits if key == "N" else check_dimension)(size)
    return size


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
    name, kwargs, _ = _parse_tokens(text)
    if name == "phi":
        n, bits, sign = _read(kwargs, "phi", N=_size, l=_text, sign=_text)
        if len(bits) != n:
            raise SpecParseError(f"l={bits!r} does not have N={n} bits")
        if sign not in ("+", "-"):
            raise SpecParseError(f"sign must be + or -, got {sign!r}")
        return phi_state(bits, sign)
    if name == "mixed":
        readers = dict(N=_size, p=_number, weights=_text)
        if kwargs.get("weights") == "random":
            readers["seed"] = _integer
        n, p, weights_text, *seed = _read(kwargs, "mixed", **readers)
        if seed:
            if seed[0] < 0:
                raise OutOfRangeError(f"seed must be non-negative, got {seed[0]}")
            weights = _random_weights(n, np.random.default_rng(seed[0]))
        else:
            weights = {}
            for item in _bracket_items(
                weights_text, "mixed requires at least one weight"
            ):
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
                weights[bits] = _number(f"weight {bits}", value)
        return mixed_family(MixedFamilySpec(p=p, weights=weights))
    if name == "basis":
        n, index = _read(kwargs, "basis", N=_size, i=_integer)
        return basis_state(2**n, index)
    if name == "pure":
        amps_text, normalize = _read(
            {"normalize": "false", **kwargs}, "pure", amps=_text, normalize=_boolean
        )
        items = _bracket_items(amps_text, "pure requires at least one amplitude")
        amps = [parse_complex(item) for item in items]
        check_dimension(len(amps))
        return from_pure(np.array(amps), normalize=normalize)
    if name == "raw":
        dim, entries_text = _read(kwargs, "raw", dim=_size, entries=_text)
        return DensityMatrix(_raw_matrix(entries_text, dim, "needs"))
    raise SpecParseError(f"unknown state constructor {name!r}")


def parse_channel_spec(text: str) -> KrausChannel | LocalChannel:
    """Build a channel from its inline constructor specification."""
    return _build_channel(*_parse_tokens(text))


def _build_channel(name: str, kwargs: dict[str, str], positional: list[str]):
    """Build a channel from the tokens of its specification."""
    if name == "local":
        return local_channel(_local_factors(kwargs, positional))
    if name == "identity":
        (dim,) = _read({"dim": "2", **kwargs}, "identity", dim=_size)
        return identity_channel(dim)
    if name == "raw":
        dim, ops_text = _read(kwargs, "raw", dim=_size, ops=_text)
        items = _bracket_items(ops_text, "raw requires at least one operator")
        ops = [_raw_matrix(item, dim, "operators need") for item in items]
        return KrausChannel(tuple(ops), label="raw")
    if name in CHANNEL_FACTORIES:
        key, factory = CHANNEL_FACTORIES[name]
        (value,) = _read(kwargs, name, **{key: _number})
        return factory(value)
    raise SpecParseError(f"unknown channel constructor {name!r}")


def _local_factors(kwargs: dict[str, str], positional: list[str]) -> list:
    """The factors of a local spec, refused as soon as their running
    dimension passes the cap. A nested local contributes its own, so a dense
    local is one tensor product over all of them, whatever the nesting."""
    if kwargs or len(positional) != 1:
        raise SpecParseError("local takes one bracketed factor list")
    factors = []
    for item in _bracket_items(positional[0], "local requires at least one factor"):
        name, kwargs, positional = _parse_tokens(item)
        if name == "local":
            factors += _local_factors(kwargs, positional)
        else:
            factors.append(_build_channel(name, kwargs, positional))
        check_dimension(math.prod(factor.dim for factor in factors))
    return factors


def parse_sweep_file(text: str) -> tuple[SweepSpec, str | None]:
    """Parse a sweep file; returns the spec and the optional output path.

    Lines are stored in order and each known key is taken by its reader;
    once every required key is present, whatever is left is refused as an
    unknown key at the first such line."""
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
        if key in entries:
            raise SpecParseError(f"duplicate key {key!r}", line=lineno)
        if not value:
            raise SpecParseError(f"empty value for {key!r}", line=lineno)
        entries[key] = (value, lineno)

    def take(key: str, reader, required: bool = False):
        """Pop key's entry and read its value with reader, naming its line
        in any refusal: a parse error keeps its message, any other error is
        a bad value of key. An absent key is None, or refused if required;
        a key no take pops is left for the unknown-key refusal."""
        if key not in entries:
            if required:
                raise SpecParseError(f"missing {key}")
            return None
        value, lineno = entries.pop(key)
        try:
            return reader(key, value)
        except SpecParseError as exc:
            raise SpecParseError(str(exc), line=lineno) from None
        except CohfreezeError as exc:
            raise SpecParseError(f"bad {key}: {exc}", line=lineno) from None

    state_label, state = take(
        "state.spec", lambda key, text: (text, parse_state_spec(text)), required=True
    )
    factors = take("channel.factors", _kinds, required=True)
    tied = take("sweep.q", _grid)
    if tied is not None:
        grids = [tied]
        extra = [k for k in entries if k.startswith("sweep.")]
        if extra:
            raise SpecParseError(
                "sweep.q cannot be combined with per-qubit grids",
                line=entries[extra[0]][1],
            )
    else:
        grids = [
            take(f"sweep.q{i + 1}", _grid, required=True) for i in range(len(factors))
        ]

    # An unset tolerance keeps SweepSpec's default.
    tolerance = take(
        "tolerances.certificate",
        lambda key, text: check_tolerance("certificate_tol", _number(key, text)),
    )
    tolerances = {} if tolerance is None else {"certificate_tol": tolerance}

    output_path = take("output.path", _text)

    if entries:
        key = next(iter(entries))
        raise SpecParseError(f"unknown key {key!r}", line=entries[key][1])

    try:
        spec = SweepSpec(
            state=state,
            factors=factors,
            grids=tuple(grids),
            tie_parameters=tied is not None,
            state_label=state_label,
            **tolerances,
        )
    except CohfreezeError as exc:
        raise SpecParseError(f"invalid sweep: {exc}") from None
    return spec, output_path


def _kinds(key: str, text: str) -> tuple[str, ...]:
    """A sweep file's channel.factors: one or more channel kind names."""
    kinds = tuple(_bracket_items(text, f"{key} must not be empty"))
    for kind in kinds:
        channel_factory(kind)
    return kinds


def _grid(key: str, text: str) -> tuple[float, ...]:
    items = _bracket_items(text, "grid must not be empty")
    return tuple(
        check_unit_interval("grid value", _number("grid value", item)) for item in items
    )
