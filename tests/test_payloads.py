"""Report payloads are pinned: every (config, command) sha in payloads.json.

A payload that moves without a stated reason is a regression.  On a
mismatch the failure names, per moved command, the first JSON path that
differs and the largest numeric deviation.  ``pin_payloads.py`` says how
to rewrite the pins.
"""

import json

import pytest

from pin_payloads import CONFIGS, PINS, compute_payloads, describe_difference, sha
from toeplitz_spectra.cli import CONFIG_SCHEMA

PINNED = json.loads(PINS.read_text())


def test_pins_cover_every_config_and_command():
    assert set(PINNED) == set(CONFIGS)
    for name, pins in PINNED.items():
        for command, pin in pins.items():
            # The stored payload is the one the sha was taken of.
            assert sha(pin["payload"]) == pin["sha256"], (name, command)


def _kind_enums(schema: dict, path: tuple = ()):
    """(path, values) of every `kind` enum in schema; "[]" steps into items."""
    for key, sub in schema.get("properties", {}).items():
        if key == "kind" and "enum" in sub:
            yield path, sub["enum"]
        else:
            yield from _kind_enums(sub, path + (key,))
    if "items" in schema:
        yield from _kind_enums(schema["items"], path + ("[]",))


def _kinds_at(value, path: tuple):
    """The `kind` values of the sections of value at path."""
    if not path:
        if isinstance(value, dict) and "kind" in value:
            yield value["kind"]
        return
    if path[0] == "[]":
        for item in value if isinstance(value, list) else ():
            yield from _kinds_at(item, path[1:])
    elif isinstance(value, dict) and path[0] in value:
        yield from _kinds_at(value[path[0]], path[1:])


def test_pins_cover_every_kind_in_the_schema():
    enums = dict(_kind_enums(CONFIG_SCHEMA))
    assert {("symbols", "[]"), ("quasi_radial",), ("radical", "gamma")} <= set(enums)
    for path, kinds in enums.items():
        pinned = {kind for config in CONFIGS.values() for kind in _kinds_at(config, path)}
        assert set(kinds) <= pinned, (path, sorted(set(kinds) - pinned))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_payloads_match_pins(name, tmp_path):
    got = compute_payloads(name, tmp_path)
    moved = [
        f"{name}/{command}: {describe_difference(pin['payload'], got[command])}"
        for command, pin in sorted(PINNED[name].items())
        if sha(got[command]) != pin["sha256"]
    ]
    assert not moved, "payloads moved:\n" + "\n".join(moved)


def test_describe_difference_names_path_and_deviation():
    old = {"a": [1.0, 2.0], "b": {"c": "x", "d": 3.0}}
    new = {"a": [1.0, 2.5], "b": {"c": "y", "d": 3.0}}
    text = describe_difference(old, new)
    assert "first difference at .a[1]: 2.0 -> 2.5" in text
    assert "largest numeric deviation 5.000e-01 at .a[1]" in text
    assert "first difference at .b" in describe_difference({"b": 1}, {})
