"""The package surface: names resolved on first use, a CLI start that loads
only what its command runs, a homology layer apart from the family layer, no
routine that only the tests reach, and the immutable records."""

import ast
import json
import os
import subprocess
import sys
from fractions import Fraction
from importlib import import_module
from pathlib import Path

import pytest

import gtrim
from gtrim import (
    HilbertData,
    PfaffianFamily,
    PolyMatrix,
    PrimeField,
    RationalField,
    TorClass,
    TorInvariants,
    TrimChoice,
    variables,
)
from helpers import KoszulElement

SRC = str(Path(gtrim.__file__).parents[1])
ROOT = Path(__file__).resolve().parents[1]

# Defined under src/gtrim, named nowhere else in src/ or bench/, and kept on purpose
REACHED_FROM_OUTSIDE = {
    "selector_labels": "the documented inverse of selector_index (README), for callers",
}

COLD_START = """
import json, sys
import gtrim.cli
gtrim.cli.build_parser()
gtrim.cli.main(["hilbert", "--m", "3"])
after_hilbert = sorted(sys.modules)
gtrim.cli.main(["classify", "--char", "0", "--m", "3", "--trim", "d"])
print(json.dumps([after_hilbert, sorted(sys.modules)]))
"""


def test_cold_start_loads_only_what_the_command_runs():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", COLD_START], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    after_hilbert, after_classify = json.loads(proc.stdout.splitlines()[-1])
    for name in ("dataclasses", "fractions", "csv", "gtrim.koszul"):
        assert name not in after_hilbert, name
    assert "gtrim.koszul" in after_classify
    # the rational type is imported lazily, not lost
    assert "fractions" in after_classify or "gmpy2" in after_classify


def test_koszul_layer_loads_no_family_or_field_module():
    """The homology layer does not depend on the family layer: a fresh
    `import gtrim.koszul` loads neither `gtrim.pfaffians` nor `gtrim.fields`."""
    code = "import json, sys, gtrim.koszul; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=60, check=True)
    loaded = {m for m in json.loads(proc.stdout.splitlines()[-1]) if m.startswith("gtrim.")}
    assert "gtrim.koszul" in loaded and not loaded & {"gtrim.pfaffians", "gtrim.fields"}, loaded


def package_routines_named_only_in_tests():
    """The functions, methods and classes defined under src/gtrim (dunders
    aside), by qualified name, that no use in src/ or bench/ reads outside
    their own definition.  A method is reached only through an attribute
    (`x.sub`), so a local variable of its name (`sub = ...`) hides nothing;
    a function or class, through a name or an attribute."""
    trees = {path: ast.parse(path.read_text(), str(path))
             for folder in (ROOT / "src" / "gtrim", ROOT / "bench")
             for path in sorted(folder.glob("*.py"))}
    uses = [(path, node.lineno, node.id if isinstance(node, ast.Name) else node.attr,
             isinstance(node, ast.Attribute))
            for path, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    unused = set()
    for path, tree in trees.items():
        if path.parent.name != "gtrim":
            continue
        scopes = [(tree, "", False)]
        while scopes:
            node, prefix, in_class = scopes.pop()
            for child in ast.iter_child_nodes(node):
                if not isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    scopes.append((child, prefix, in_class))
                    continue
                scopes.append((child, f"{prefix}{child.name}.", isinstance(child, ast.ClassDef)))
                if child.name.startswith("__"):
                    continue
                method = in_class and isinstance(child, ast.FunctionDef)
                if not any(name == child.name and (attribute or not method) and not (
                        p == path and child.lineno <= line <= child.end_lineno)
                           for p, line, name, attribute in uses):
                    unused.add(prefix + child.name)
    return unused


def test_no_routine_ships_only_for_the_tests():
    """Every routine in the package is reached from the package or the
    benchmark; the oracles and element routines that only tests call live in
    tests/helpers.py.  The few kept on purpose are listed, each with why."""
    assert package_routines_named_only_in_tests() == set(REACHED_FROM_OUTSIDE)


def test_lazy_names_are_their_home_objects():
    for name in gtrim.__all__:
        home = import_module(f"gtrim.{gtrim._MODULE_OF[name]}")
        assert getattr(gtrim, name) is getattr(home, name), name
    assert set(gtrim.__all__) <= set(dir(gtrim))
    assert "__version__" in dir(gtrim)
    namespace = {}
    exec("from gtrim import *", namespace)
    assert {n for n in namespace if not n.startswith("__")} == set(gtrim.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        gtrim.no_such_name


def test_records_construct_compare_and_stay_frozen():
    inv = TorInvariants(p=1, q=2, r=3, mu=4, type_rank=5)
    assert inv == TorInvariants(1, 2, 3, 4, 5) and inv.type_rank == 5
    assert inv != TorInvariants(p=1, q=2, r=3, mu=4, type_rank=6)
    cls = TorClass(tag="G", params={"r": 4})
    assert cls == TorClass("G", {"r": 4}) and cls.display() == "G(4)"
    hil = HilbertData(coefficients=(1, 3, 1))
    assert hil == HilbertData((1, 3, 1)) and hil.coefficients == (1, 3, 1)
    choice = TrimChoice(m=3, selector="d")
    assert choice == TrimChoice(3, "d") and choice.index == 3
    family = PfaffianFamily.build(2)
    matrix = PolyMatrix.from_rows([[family.d]])
    for record, field in ((inv, "p"), (cls, "tag"), (hil, "coefficients"),
                          (choice, "m"), (family, "m"), (matrix, "entries")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert family == PfaffianFamily.build(2) and family.generators[2] == family.d


def test_trim_choice_validates_and_hashes():
    for m, sel in ((1, "d"), (3, "q9"), (3, "x3"), (3, "x01")):
        with pytest.raises(ValueError):
            TrimChoice(m, sel)
    assert hash(TrimChoice(3, "d")) == hash(TrimChoice(m=3, selector="d"))
    assert {TrimChoice(3, "d"): 1}[TrimChoice(3, "d")] == 1
    assert len({TrimChoice(3, "d"), TrimChoice(3, "d"), TrimChoice(3, "x1")}) == 2


def test_koszul_element_equality():
    x, y, _ = variables(RationalField())
    a = KoszulElement(1, {(0,): x, (1,): y})
    assert a == KoszulElement(exterior_degree=1, components={(1,): y, (0,): x})
    assert a != KoszulElement(2, {(0,): x, (1,): y})
    assert a != KoszulElement(1, {(0,): x})
    a.components = {}  # an element is mutable, as before
    assert a == KoszulElement(1, {})


def test_prime_field_accepts_only_certified_primes():
    """Miller-Rabin over the bases 2..41 is deterministic below psi_13; the
    strong pseudoprimes psi_12 (to 2..37) and psi_13 (to 2..41), and any n
    from psi_13 on, are refused."""
    psi12, psi13 = 318665857834031151167461, 3317044064679887385961981
    assert psi12 == 399165290221 * 798330580441
    for char in (psi12, psi13, psi13 + 2, 4, 1, 0, -7):
        with pytest.raises(ValueError, match="characteristic must be prime"):
            PrimeField(char)
    for char in (2, 3, 32003, 2 ** 31 - 1, 2 ** 61 - 1, 2 ** 64 - 59):
        assert PrimeField(char).char == char


def test_prime_field_refuses_a_denominator_divisible_by_p():
    with pytest.raises(ValueError, match="^1/2 has no value in F_2: its denominator is "
                                         "divisible by 2$"):
        PrimeField(2).of(Fraction(1, 2))
    with pytest.raises(ValueError, match="no value in F_3"):
        PrimeField(3).of("5/6")
    assert PrimeField(5).of(Fraction(3, 2)) == 4 and PrimeField(3).of("6/3") == 2


def test_rational_field_uses_gmpy2_when_installed():
    gmpy2 = pytest.importorskip("gmpy2")
    assert isinstance(RationalField().of("1/2"), type(gmpy2.mpq(1, 2)))
    assert RationalField().of("1/2") == gmpy2.mpq(1, 2)
