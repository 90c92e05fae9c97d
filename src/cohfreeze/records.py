"""The printed record: one `key = value` line per field.

Every number in a `key = value` record, the sweep summary included, or in
a CSV cell goes through format_number; the reproduce summary lines print
theirs as .3e.
"""

NUMBER_FORMAT = ".12g"  # 12 significant digits


def format_number(value: float) -> str:
    return format(value, NUMBER_FORMAT)


def _render_value(value) -> str:
    """true/false for a bool, none for None or an empty tuple, the items of
    a tuple joined by commas, and a witness's description."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return format_number(value)
    if value is None or value == ():
        return "none"
    if isinstance(value, tuple):
        return ",".join(value)
    return value.describe() if hasattr(value, "describe") else str(value)


def render(pairs) -> str:
    """The (key, value) pairs as `key = value` lines, in order."""
    return "\n".join(f"{key} = {_render_value(value)}" for key, value in pairs)
