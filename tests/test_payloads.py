"""Report payloads are pinned: every (config, command) sha in payloads.json.

A payload that moves without a stated reason is a regression.  On a
mismatch the failure names, per moved command, the first JSON path that
differs and the largest numeric deviation.  ``pin_payloads.py`` says how
to rewrite the pins.

While the pins are computed, every field of a dataclass in src/ that code
in src/ reads is recorded: a field that no command reads on any pin is
dead state, unless it is read elsewhere and says where.
"""

import contextlib
import dataclasses
import hashlib
import importlib
import json
import pkgutil
import sys

import numpy as np
import pytest

import toeplitz_spectra
from pin_payloads import COMMANDS, CONFIGS, PINS, compute_payloads, describe_difference, sha
from toeplitz_spectra import cli
from toeplitz_spectra.gelfand import assemble_finite_sum
from toeplitz_spectra.cli import CONFIG_SCHEMA

PINNED = json.loads(PINS.read_text())

MODULES = [
    importlib.import_module(f"toeplitz_spectra.{info.name}")
    for info in pkgutil.iter_modules(toeplitz_spectra.__path__)
]
SRC_FILES = frozenset(module.__file__ for module in MODULES)


class FieldReads:
    """The fields of src/'s dataclasses that no code in src/ has read from
    an instance, while ``recording``: each class's ``__getattribute__`` is
    wrapped, and a field read whose caller's code lies in src/ is struck
    off.  A class whose fields are all read is left unwrapped."""

    def __init__(self):
        self.unread = {
            cls: {f.name for f in dataclasses.fields(cls)}
            for module in MODULES for cls in vars(module).values()
            if isinstance(cls, type) and dataclasses.is_dataclass(cls)
            and cls.__module__ == module.__name__
        }
        self.configs = set()

    @contextlib.contextmanager
    def recording(self, name: str):
        # each wrapped class with the __getattribute__ it defines itself, if any
        wrapped = {cls: vars(cls).get("__getattribute__")
                   for cls, pending in self.unread.items() if pending}
        for cls in wrapped:
            cls.__getattribute__ = self._reader(cls.__getattribute__, self.unread[cls])
        try:
            yield
            self.configs.add(name)
        finally:
            for cls, own in wrapped.items():
                if own is None:
                    del cls.__getattribute__
                else:
                    cls.__getattribute__ = own

    @staticmethod
    def _reader(getattribute, pending: set):
        def read(obj, name):
            if name in pending and sys._getframe(1).f_code.co_filename in SRC_FILES:
                pending.discard(name)
            return getattribute(obj, name)
        return read

    def names(self) -> set:
        return {f"{cls.__name__}.{name}" for cls, names in self.unread.items() for name in names}


READS = FieldReads()

# Fields that no command reads on a pin, each with what reads it.
READ_ELSEWHERE = {
    "QuasiRadialSymbol.label": "the error messages of QuasiRadialSymbol.__call__",
    "PseudoHomogeneousSymbol.label": "error messages of assembly.py and spectra.py",
    "SymbolExpression.text": "error messages of symbols._compile_modes",
    "DiagonalCoefficient.name": "DiagonalCoefficient.label, in error messages",
    "PlanarRegion.samples": "perfbench/tracing.py keys its raster reuse on it",
}


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


def _moved(name: str, got: dict) -> list[str]:
    return [
        f"{name}/{command}: {describe_difference(pin['payload'], got[command])}"
        for command, pin in sorted(PINNED[name].items())
        if sha(got[command]) != pin["sha256"]
    ]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_payloads_match_pins(name, tmp_path):
    with READS.recording(name):
        got = compute_payloads(name, tmp_path)
    assert not (moved := _moved(name, got)), "payloads moved:\n" + "\n".join(moved)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_payloads_match_pins_in_reverse_order(name, tmp_path):
    # The one model memoizes blocks, powers, gammas, eigen data and boundary
    # samples for every command: what one command leaves there must not move
    # another's payload, whichever runs first.
    got = compute_payloads(name, tmp_path, COMMANDS[::-1])
    assert not (moved := _moved(name, got)), "payloads moved:\n" + "\n".join(moved)


def test_every_dataclass_field_is_read_in_src(tmp_path):
    # The pins that test_payloads_match_pins did not record are run here.
    for name in sorted(set(CONFIGS) - READS.configs):
        with READS.recording(name):
            compute_payloads(name, tmp_path / name)
    assert sorted(READS.names()) == sorted(READ_ELSEWHERE)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_pinned_gelfand_radius_bounds_the_matrix_spectral_radius(name):
    # The element's block eigenvalues are its values at the exact points,
    # which the sampled functionals include.
    pin = PINNED[name]["gelfand"]["payload"]
    assert pin["matrix_spectral_radius"] <= pin["gelfand_radius"]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_matrix_spectral_radius_matches_dense_eigenvalues(name, tmp_path):
    # gelfand reads the radius off the groups' eigen data; the dense route
    # takes the eigenvalues of the assembled element's blocks.
    config = cli.validate_config(json.loads(json.dumps(CONFIGS[name])))
    setup = cli.build_setup(config, out=str(tmp_path))
    got = cli.cmd_gelfand(setup)["matrix_spectral_radius"]
    op = assemble_finite_sum(cli._product_element(setup), setup.model, config["degree_cap"])
    want = max(float(np.max(np.abs(np.linalg.eigvals(b)))) for b in op.values())
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("name, bound", [
    # sup|gamma_a| sup|c_2| = 1 * sup s1*s2 on the sphere = 1/2.
    ("readme-d6", 0.5), ("huge-ksur-d3", 0.5),
    # sup|exp(-r1^2*r2^2)| sup|1/(2 - s1^2)| = 1.
    ("nonpoly-d3", 1.0),
])
def test_pinned_gelfand_radius_within_the_norm_bound(name, bound):
    # A Gelfand value of D_gamma_a T_1...T_m is at most its norm, which is
    # at most the product of the symbols' sups.
    assert PINNED[name]["gelfand"]["payload"]["gelfand_radius"] <= bound


def test_quadrature_config_stays_on_the_rules(tmp_path):
    # Neither text compiles, so the config covers the quadrature route.
    config = cli.validate_config(json.loads(json.dumps(CONFIGS["quadrature-d3"])))
    model = cli.build_setup(config, out=str(tmp_path)).model
    assert model.quasi_radial.terms is None
    assert all(profile.terms is None for profile in model.symbols[2].modes.values())


# sha256 of the side files of `hull`: no payload holds their frame (x0, y0,
# cell), so an ulp move of a grid shows only here.
HULL_SIDE_FILES = {
    "readme-d6": {
        "hull_1.svg": "0b96e6c9a70fa743e9b080b01b218326d4709407e103b0fc110fbd0091b21f52",
        "hull_2.svg": "725834b0074c6f4bcdee11bf6b82b691ab76f5072968600c30daab31e0a3bb58",
        "region_hull_1.json": "fe58a8d26d11de38e6f295ecda6dfd83b72344b61bb0559ff920c0f5dde0159c",
        "region_hull_2.json": "2b12b8325b7a00a553f28130f488ef897c5abe5f938deadf4c9b06e9cd8767a0",
        "region_sp_1.json": "90a1996a30c957ae5f85c957f36c7da1cd78ea1bdfe4b9bdb0c6d8b1f31b640d",
        "region_sp_2.json": "06af8a0a6e96ec68200b9e39e454a559a4a17772c51ba38ba053efe6e71b70eb",
    },
    "expr-s1-d4": {
        "hull_1.svg": "8e852a2579c0f5cf114defa7127848c5eb85920f1632f28d7a6a3bfdb0f4fa1c",
        "hull_2.svg": "7ad3efa9bbb0fe01d1245870aba424f49f525073203872dd93ac9c083eb02714",
        "region_hull_1.json": "65f9f0ea691508330db395dbb5609e0f83b3b5c8dfb40b3a8e98dac00f5f5882",
        "region_hull_2.json": "72826c4d85f538e1d4494170ac99018b87975fbe0cc918c978f1743cb8365210",
        "region_sp_1.json": "032ae902987973096e0b7523c697e7599cbf48d73af3f7c0f7209de92f91d4dd",
        "region_sp_2.json": "c2bd6c776b476abb928fff8f6b6c28ee002c0c9a4765a111216e9196d87931a2",
    },
    "symbolless-k22-d4": {
        "hull_1.svg": "f0a76b44d6a209ad0d3b1878c92230a3f2732ffd66a4a7145650a7d51bba4638",
        "hull_2.svg": "bab2d512e293e55ab012000ad297d41dd686e5026bfdf52aa60f180007ba4ff2",
        "region_hull_1.json": "2b4de4d8d021f2599dd140efe848d458e72c72bc70ec9832eb3509d5fefacedc",
        "region_hull_2.json": "a5044f063557fa11f07ddd649ee37ccc2d86cd19f1ebdf67b18e44a4a8f3abd6",
        "region_sp_1.json": "344017cb194241c9de105810b3106038b1c01472152a61c72707cb7c84f9e161",
        "region_sp_2.json": "8309d6f8fddea860b26f29d9f719fd72a7d899f8ff46fef63bd44722e713b630",
    },
}


@pytest.mark.parametrize("name", sorted(HULL_SIDE_FILES))
def test_hull_side_files_match_pins(name, tmp_path):
    config = cli.validate_config(json.loads(json.dumps(CONFIGS[name])))
    cli.cmd_hull(cli.build_setup(config, out=str(tmp_path)))
    pins = HULL_SIDE_FILES[name]
    assert {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in pins} == pins


def test_describe_difference_names_path_and_deviation():
    old = {"a": [1.0, 2.0], "b": {"c": "x", "d": 3.0}}
    new = {"a": [1.0, 2.5], "b": {"c": "y", "d": 3.0}}
    text = describe_difference(old, new)
    assert "first difference at .a[1]: 2.0 -> 2.5" in text
    assert "largest numeric deviation 5.000e-01 at .a[1]" in text
    assert "first difference at .b" in describe_difference({"b": 1}, {})
