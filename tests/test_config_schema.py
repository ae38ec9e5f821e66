"""The in-tree config validator against jsonschema, which stays a test-only
oracle: both must accept and reject the same configs."""

import copy
import importlib.util
import json
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pin_payloads import CONFIGS
from toeplitz_spectra.cli import _JSON_TYPES, CONFIG_SCHEMA, _conform, main, validate_config
from toeplitz_spectra.errors import ConfigError

VALIDATOR = jsonschema.validators.validator_for(CONFIG_SCHEMA)
ORACLE = VALIDATOR(CONFIG_SCHEMA)

# The keywords _conform checks, and default, which it fills and jsonschema ignores.
SCHEMA_KEYWORDS = {
    "type", "required", "properties", "additionalProperties", "items",
    "enum", "minimum", "exclusiveMinimum", "minItems", "default",
}

# The README example with every optional section spelled out.
README_CONFIG = {
    "partition": {"k": [1, 2], "n": 3, "lambda": 0.0},
    "degree_cap": 6,
    "quasi_radial": {"kind": "expression", "text": "1 - r1^2*r2^2"},
    "symbols": [{"group": 2, "kind": "quasi_homogeneous", "p": [1, -1]}],
    "quadrature": {"block_order": 48, "gamma_order": 48, "torus_grid": 64},
    "hull": {"resolution": 512, "ess_samples": 4096},
    "eig_tol": 1e-8,
    "surrogate_kappa": 10000,
    "seed": 12345,
    "berezin": {"group": 2, "w": [0.3, 0.4], "degrees": [50, 100, 200],
                "radial_expression": "r1^2"},
    "gelfand": {"budget": 600, "zeta_per_region": 8},
    "radical": {"group": 2, "level": 1, "gamma": {"kind": "geometric_decay", "rate": 0.5}},
    "output_dir": "out",
}

# k=(2,3): a compiled expression, a profile, a monomial profile and a power.
EXPR_CONFIG = {
    "partition": {"k": [2, 3], "lambda": 0.5},
    "degree_cap": 6,
    "quasi_radial": {"kind": "power", "exponents": [1, 0]},
    "symbols": [
        {"group": 1, "kind": "expression", "boundary_continuous": True,
         "text": "0.5*s1^2 + 0.3*s1*s2*(t1*conj(t2)+t2*conj(t1)) + 0.7*s2^2"},
        {"group": 2, "kind": "profile_monomial", "powers": [2, 0, 1], "coeff": [1.0, 0.5]},
    ],
    "berezin": {"group": 1, "w": [[0.2, 0.1], 0.3], "degrees": [4, 8, 12]},
    "radical": {"group": 1, "level": 1, "gamma": {"kind": "indicator_degree", "d": 1}},
}

# Type swaps, bools, integral floats, boundary numbers and empty containers.
REPLACEMENTS = [
    True, False, None, "1", "one", 0, 1, -1, 2, 15, 16, 2.0, 2.5, 0.0, -1.0, -0.5,
    1e300, [], [1], [0], [1.0, 2], [True], ["x"], {}, {"kind": "one"},
]


def _paths(value, prefix=()):
    """Every path to a value inside value, the root included."""
    yield prefix
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from _paths(sub, prefix + (key,))
    elif isinstance(value, list):
        for i, sub in enumerate(value):
            yield from _paths(sub, prefix + (i,))


def _parent(config, path):
    for key in path[:-1]:
        config = config[key]
    return config


@st.composite
def mutated_configs(draw):
    config = copy.deepcopy(draw(st.sampled_from([README_CONFIG, EXPR_CONFIG])))

    def replacement():
        return copy.deepcopy(draw(st.sampled_from(REPLACEMENTS)))

    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(config))))
        action = draw(st.sampled_from(["drop", "add", "replace"]))
        if not path:
            if action == "replace":
                config = replacement()
            continue
        parent = _parent(config, path)
        if action == "drop":
            del parent[path[-1]]
        elif action == "add" and isinstance(parent, dict):
            parent[draw(st.sampled_from(["extra", "kind", "n", "text", "value"]))] = replacement()
        elif action == "add":
            parent.append(replacement())
        else:
            parent[path[-1]] = replacement()
    return config


def _conforms(config) -> bool:
    try:
        _conform(config, CONFIG_SCHEMA)
    except ConfigError:
        return False
    return True


@settings(max_examples=600, deadline=None)
@given(mutated_configs())
def test_validator_agrees_with_jsonschema(config):
    assert _conforms(config) == ORACLE.is_valid(config), config


@pytest.mark.parametrize(
    "overrides, valid",
    [
        ({}, True),
        ({"degree_cap": 2.0}, True),  # an integral float is an integer
        ({"degree_cap": True}, False),  # a bool is not an integer
        ({"eig_tol": True}, False),  # nor a number
        ({"eig_tol": 0}, False),  # exclusiveMinimum
        ({"degree_cap": -1}, False),  # minimum
        ({"partition": {"k": []}}, False),  # minItems
        ({"partition": {"k": [1, 2], "extra": 1}}, False),  # additionalProperties
        ({"quasi_radial": None}, True),  # a list of types
        ({"quasi_radial": {"kind": "cubic"}}, False),  # enum
        ({"symbols": [{"group": 2, "kind": "constant", "value": {"any": [None]}}]}, True),  # {}
        ({"symbols": [{"group": 2}]}, False),  # required
        ({"berezin": {"group": 2, "w": [], "degrees": [1.5]}}, False),  # items
    ],
)
def test_validator_examples(overrides, valid):
    config = dict(README_CONFIG, **overrides)
    assert _conforms(config) is valid
    assert ORACLE.is_valid(config) is valid


def test_schema_failure_is_config_error_exit_1(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(README_CONFIG, degree_cap=True)))
    assert main(["assemble", "--config", str(path)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert err["type"] == "ConfigError"
    assert err["message"].startswith("config failed schema validation:")


def _subschemas(schema):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _subschemas(sub)
    if "items" in schema:
        yield from _subschemas(schema["items"])


def test_schema_uses_only_validated_keywords():
    # A keyword outside the validator's set would be silently ignored.
    for schema in _subschemas(CONFIG_SCHEMA):
        assert set(schema) - {"$schema"} <= SCHEMA_KEYWORDS, schema
        types = schema.get("type", [])
        assert set([types] if isinstance(types, str) else types) <= set(_JSON_TYPES), schema
        assert schema.get("additionalProperties", False) is False, schema
        # Strings only: `in` then agrees with jsonschema's equality, where True != 1.
        assert all(isinstance(v, str) for v in schema.get("enum", [])), schema
        if "default" in schema:
            assert VALIDATOR(schema).is_valid(schema["default"]), schema


def test_echoed_config_holds_every_default(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**CONFIGS["readme-d6"], "output_dir": str(tmp_path / "out")}))
    assert main(["berezin", "--config", str(path)]) == 0
    echoed = json.loads((tmp_path / "out" / "report_berezin.json").read_text())["config"]
    assert echoed["radical"]["level"] == 1
    assert echoed["radical"]["gamma"]["kind"] == "geometric_decay"
    assert echoed["gelfand"]["budget"] == 600
    # Without a radical section, radical's defaults are filled as radical
    # runs them; its group is the lowest group with a symbol.
    bare = validate_config({key: v for key, v in CONFIGS["readme-d6"].items() if key != "radical"})
    assert bare["radical"] == {
        "group": 2, "level": 1, "gamma": {"kind": "indicator_degree", "d": 1, "rate": 0.5},
    }


def test_filled_defaults_are_copies():
    raw = {"partition": {"k": [1, 2]}}
    first = validate_config(raw)
    first["symbols"].append({"group": 1, "kind": "constant"})
    first["radical"]["gamma"]["rate"] = 0.25
    second = validate_config(raw)
    assert raw == {"partition": {"k": [1, 2]}}
    assert second["symbols"] == [] and second["radical"]["gamma"]["rate"] == 0.5


def test_benchmark_configs_use_only_known_keys(monkeypatch):
    # perfbench/configs.py writes the benchmark's configs; the schema
    # refuses unknown keys, so each must validate as it stands.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "configs.py"
    spec = importlib.util.spec_from_file_location("perfbench_configs", path)
    configs = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, configs)  # its dataclasses look it up
    spec.loader.exec_module(configs)
    for workload in configs.WORKLOADS:
        for seed in (1, 2, 3):
            validate_config(configs.generate(workload, seed))
