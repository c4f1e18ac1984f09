"""Module boundaries: the package's ``__all__`` lists exactly the public
names it binds, no module of the package imports a private (``_``-prefixed)
name from a sibling module, the state-vector checker does not call the
overlap kernels it checks, the kernel module holds none of the checker's
names, the kernel modules import none of the randomized suites' code,
every module but ``tables.py`` imports no numpy, the command line neither
imports nor raises a table rule's error and reaches the estimators only
through ``qlr.analyze``, every public name the package defines has a
caller outside the tests, and priors reach the estimators only on a
table."""

import ast
import re
import types
from pathlib import Path

import pytest

import qlr

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE = REPO_ROOT / "src" / "qlr"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_imports(source: str) -> list[str]:
    """Private sibling names a module imports by ``from`` or reaches through
    an imported sibling module, as ``line N: name`` strings."""
    tree = ast.parse(source)
    modules: set[str] = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            package = node.level > 0 or (node.module or "").split(".")[0] == "qlr"
            if not package:
                continue
            if node.module and _is_private(node.module.split(".")[-1]):
                found.append(f"line {node.lineno}: {node.module}")
            for alias in node.names:
                if _is_private(alias.name):
                    found.append(f"line {node.lineno}: {alias.name}")
                elif node.module in (None, "qlr"):
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "qlr":
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and _is_private(node.attr)
            and ast.unparse(node.value) in modules
        ):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def bound_names(source: str) -> list[str]:
    """Names a module's top-level ``from`` imports and assignments bind,
    ``__all__`` excepted."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom):
            names.extend(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            names.extend(t.id for t in node.targets if isinstance(t, ast.Name))
    return [name for name in names if name != "__all__"]


def test_all_lists_the_public_non_module_names_the_package_binds():
    public = {
        name
        for name in bound_names((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
        if not _is_private(name) and not isinstance(getattr(qlr, name), types.ModuleType)
    }
    assert len(set(qlr.__all__)) == len(qlr.__all__)
    assert set(qlr.__all__) == public


@pytest.mark.parametrize(
    "source",
    [
        "from .classical import _argmax",
        "from qlr.tables import CountTable, _check_pair",
        "from . import tables\ntables._check_pair",
        "import qlr.tables\nqlr.tables._check_pair",
        "from ._private import name",
    ],
)
def test_checker_flags_private_imports(source):
    assert private_imports(source)


def test_checker_allows_public_and_dunder_names():
    assert private_imports("from . import __version__\nfrom .tables import new_table") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_names_cross_module_lines(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


# The state-vector path in wavefunction.py checks these kernels of
# quantum.py, so it may not use them to compute its own posterior.  The
# suite that compares the two paths lives in checks.py, so no function of
# wavefunction.py may reference a kernel, and neither may an import.  The
# same holds for the enumeration oracle, and for ``analyze``, the route a
# checker may check but never use as its reference.
CHECKED_KERNELS = frozenset(
    {
        "posterior_general",
        "posterior_2x2",
        "overlap_coefficients",
        "hbar_moderated_coefficients",
        "analyze",
    }
)


def kernel_references(source: str) -> list[str]:
    """Imports of and references to a checked kernel, as ``line N: import
    name`` and ``line N: name in scope`` strings.  Scope is the top-level
    function or class holding the reference, or ``<module>``."""
    tree = ast.parse(source)
    aliases = {}
    found = []

    def kernel_of(node):
        if isinstance(node, ast.Name):
            return aliases.get(node.id)
        if isinstance(node, ast.Attribute) and node.attr in CHECKED_KERNELS:
            return node.attr
        if isinstance(node, ast.Constant) and node.value in CHECKED_KERNELS:
            return node.value
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in CHECKED_KERNELS:
                    aliases[alias.asname or alias.name] = alias.name
                    found.append(f"line {node.lineno}: import {alias.name}")
    for top in tree.body:
        if isinstance(top, (ast.ImportFrom, ast.Import)):
            continue
        scope = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            kernel = kernel_of(node)
            if kernel:
                found.append(f"line {node.lineno}: {kernel} in {scope}")
    return found


@pytest.mark.parametrize(
    "source",
    [
        "from .quantum import posterior_2x2",
        "from .quantum import overlap_coefficients as solve",
        "from .quantum import posterior_general\ndef helper(t, o):\n    return posterior_general(t, o)",
        "from .quantum import posterior_general as pg\ndef helper(t, o):\n    return pg(t, o)",
        "from . import quantum\ndef f(t):\n    return quantum.hbar_moderated_coefficients(1, 2, t)",
        "class Basis:\n    def posterior(self, t, o):\n        return quantum.posterior_general(t, o)",
        "from .quantum import posterior_general\nKERNEL = posterior_general",
        "from . import quantum\ndef f(t):\n    return getattr(quantum, 'posterior_2x2')(t)",
    ],
)
def test_checker_flags_kernel_references(source):
    assert kernel_references(source)


def test_checker_flags_the_suite_calling_the_block_sum_kernel():
    source = (
        "from .quantum import posterior_general\n"
        "def cross_path_suite(t, o):\n"
        "    return posterior_general(t, o)"
    )
    assert kernel_references(source) == [
        "line 1: import posterior_general",
        "line 3: posterior_general in cross_path_suite",
    ]


def test_state_vector_path_does_not_call_the_kernels_it_checks():
    source = (PACKAGE / "wavefunction.py").read_text(encoding="utf-8")
    assert kernel_references(source) == []


def test_oracle_does_not_call_the_kernels_or_the_analysis_route():
    source = (PACKAGE / "oracle.py").read_text(encoding="utf-8")
    assert kernel_references(source) == []


def test_checker_flags_a_checker_using_the_analysis_route_as_its_reference():
    source = (
        "from .analysis import analyze\n"
        "def oracle_mean_estimators(counts):\n"
        "    return analyze(counts, ['mean-freq'])"
    )
    assert kernel_references(source) == [
        "line 1: import analyze",
        "line 3: analyze in oracle_mean_estimators",
    ]


# The state-vector path owns its feasibility rule and its basis, so the
# kernel module it checks may not define, import or read them.
STATE_VECTOR_NAMES = frozenset({"positive_definite", "PD_EIGENVALUE_TOL", "cholesky_factors"})


def state_vector_references(source: str) -> list[str]:
    """Every name, attribute, definition, import, parameter or string
    constant that spells a state-vector name, as ``line N: name``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            spelled = [node.id]
        elif isinstance(node, ast.Attribute):
            spelled = [node.attr]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            spelled = [node.name]
        elif isinstance(node, ast.alias):
            spelled = [node.name, node.asname]
        elif isinstance(node, ast.arg):
            spelled = [node.arg]
        elif isinstance(node, ast.Constant):
            spelled = [node.value]
        else:
            continue
        found.extend(
            f"line {node.lineno}: {name}" for name in spelled if name in STATE_VECTOR_NAMES
        )
    return found


@pytest.mark.parametrize(
    "source",
    [
        "PD_EIGENVALUE_TOL = 1e-12",
        "class OverlapMatrix:\n    @property\n    def positive_definite(self):\n        pass",
        "from .wavefunction import positive_definite as flags",
        "from . import wavefunction\nwavefunction.cholesky_factors",
        "def f(overlap):\n    return overlap.positive_definite",
        "def f(PD_EIGENVALUE_TOL=0.0):\n    pass",
        "getattr(wavefunction, 'cholesky_factors')",
    ],
)
def test_checker_flags_state_vector_names(source):
    assert state_vector_references(source)


def test_checker_allows_a_name_inside_a_longer_one():
    source = "gram_positive_definite = flags\n'positive_definite flags'"
    assert state_vector_references(source) == []


def test_kernel_module_references_no_state_vector_name():
    source = (PACKAGE / "quantum.py").read_text(encoding="utf-8")
    assert state_vector_references(source) == []


@pytest.mark.parametrize("name", ["quantum.py", "wavefunction.py"])
def test_kernel_modules_import_no_suite_code(name):
    tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
    imported, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            attributes.add(ast.unparse(node))
    assert not imported & {"checks", "new_table", "random", "numpy.random"}
    assert not attributes & {"np.random", "numpy.random"}


# Every module runs on plain Python numbers except ``tables.py``, whose
# input conversion still goes through numpy, so the others import no numpy:
# not the package or a submodule, by ``import`` or ``from``, by name at run
# time, nor a sibling's binding of it.  A new module joins the rule.
NUMPY_FREE_MODULES = tuple(
    path.name for path in sorted(PACKAGE.glob("*.py")) if path.name != "tables.py"
)


def numpy_imports(source: str) -> list[str]:
    """Every import of numpy, as ``line N: import name`` strings."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] == "numpy":
                names = [node.module]
            else:
                names = [alias.name for alias in node.names if alias.name in ("numpy", "np")]
        elif (
            isinstance(node, ast.Call)
            and ast.unparse(node.func).split(".")[-1] in ("__import__", "import_module")
            and node.args
            and isinstance(node.args[0], ast.Constant)
        ):
            names = [str(node.args[0].value)]
        else:
            continue
        found.extend(
            f"line {node.lineno}: import {name}"
            for name in names
            if name.split(".")[0] in ("numpy", "np")
        )
    return found


@pytest.mark.parametrize(
    "source, expected",
    [
        ("import numpy as np", ["line 1: import numpy"]),
        ("import math, numpy.linalg", ["line 1: import numpy.linalg"]),
        ("from numpy import sqrt", ["line 1: import numpy"]),
        ("from numpy.linalg import cholesky as chol", ["line 1: import numpy.linalg"]),
        ("from .tables import np, numeric_array", ["line 1: import np"]),
        ("def f():\n    import numpy\n    return numpy", ["line 2: import numpy"]),
        ("np = __import__('numpy')", ["line 1: import numpy"]),
        ("import importlib\nimportlib.import_module('numpy')", ["line 2: import numpy"]),
        ("import math\nfrom .tables import numeric_array", []),
        ("numpy_free = True\nfrom .numpyish import name", []),
    ],
)
def test_rule_flags_numpy_imports(source, expected):
    assert numpy_imports(source) == expected


def test_rule_flags_numpy_planted_in_the_kernel_module():
    source = (PACKAGE / "quantum.py").read_text(encoding="utf-8").replace(
        "import math\n", "import math\n\nimport numpy as np\n", 1
    )
    assert [entry.split(": ")[1] for entry in numpy_imports(source)] == ["import numpy"]


@pytest.mark.parametrize("name", NUMPY_FREE_MODULES)
def test_estimator_modules_import_no_numpy(name):
    assert numpy_imports((PACKAGE / name).read_text(encoding="utf-8")) == []


# The table types own the shape, cell and prior rules, so the command line
# hands a file's numbers to them and neither imports nor raises those rules'
# errors: a copy of a rule in the reader would be a second home for it.
TABLE_RULE_ERRORS = frozenset({"BadShape", "InvalidCell", "InvalidPriors"})


def table_rule_errors(source: str) -> list[str]:
    """Imports of a table rule's error class and raises that name one, as
    ``line N: import name`` and ``line N: raise name`` strings."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.ImportFrom, ast.Import)):
            found.extend(
                f"line {node.lineno}: import {alias.name}"
                for alias in node.names
                if alias.name.split(".")[-1] in TABLE_RULE_ERRORS
            )
        elif isinstance(node, ast.Raise) and node.exc is not None:
            named = set()
            for part in ast.walk(node.exc):
                if isinstance(part, ast.Name):
                    named.add(part.id)
                elif isinstance(part, ast.Attribute):
                    named.add(part.attr)
            found.extend(
                f"line {node.lineno}: raise {name}" for name in sorted(named & TABLE_RULE_ERRORS)
            )
    return found


@pytest.mark.parametrize(
    "source, expected",
    [
        ("from .errors import InvalidPriors", ["line 1: import InvalidPriors"]),
        ("from .errors import ParseError, BadShape as Shape", ["line 1: import BadShape"]),
        ("import qlr.errors.InvalidCell", ["line 1: import qlr.errors.InvalidCell"]),
        ("from . import errors\nraise errors.InvalidCell('x')", ["line 2: raise InvalidCell"]),
        (
            "def f(n):\n    raise InvalidPriors(f'needs {n}') from None",
            ["line 2: raise InvalidPriors"],
        ),
        ("from .errors import ParseError\nraise ParseError('bad')", []),
        ("BadShape = 'a name, not a raise'\nraise", []),
    ],
)
def test_rule_flags_table_rule_errors(source, expected):
    assert table_rule_errors(source) == expected


def test_rule_flags_the_prior_count_check_planted_in_the_cli():
    source = (PACKAGE / "cli.py").read_text(encoding="utf-8").replace(
        "from .errors import (\n",
        "from .errors import (\n    InvalidPriors,\n",
        1,
    ) + "\n\ndef _count(values, n):\n    raise InvalidPriors(f'--priors needs {n}')\n"
    assert [entry.split(": ")[1] for entry in table_rule_errors(source)] == [
        "import InvalidPriors",
        "raise InvalidPriors",
    ]


def test_cli_neither_imports_nor_raises_a_table_rule_error():
    assert table_rule_errors((PACKAGE / "cli.py").read_text(encoding="utf-8")) == []


# The command line reaches the estimators through one route, ``qlr.analyze``,
# so it neither imports nor references an estimator or a kernel: a second
# route would be a second home for the skip rule, the solve and the
# diagnostics.
ESTIMATORS = re.compile(
    r"bayes_posterior|naive_posterior|mean_\w+_posterior|overlap_coefficients"
    r"|hbar_moderated_coefficients|posterior_2x2|posterior_general"
    r"|posterior_via_wavefunction|positive_definite"
)


def estimator_references(source: str) -> list[str]:
    """Imports of, and names, attributes or string constants spelling, an
    estimator or a kernel, as ``line N: import name`` and ``line N: name``
    strings."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.ImportFrom, ast.Import)):
            found.extend(
                f"line {node.lineno}: import {alias.name}"
                for alias in node.names
                if ESTIMATORS.fullmatch(alias.name.split(".")[-1])
            )
            continue
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        if ESTIMATORS.fullmatch(name):
            found.append(f"line {node.lineno}: {name}")
    return found


@pytest.mark.parametrize(
    "source, expected",
    [
        ("from .classical import naive_posterior", ["line 1: import naive_posterior"]),
        (
            "from .classical import ParseError, mean_range_posterior as mean",
            ["line 1: import mean_range_posterior"],
        ),
        ("import qlr.quantum.posterior_2x2", ["line 1: import qlr.quantum.posterior_2x2"]),
        ("from . import quantum\nquantum.overlap_coefficients(t)", ["line 2: overlap_coefficients"]),
        ("getattr(wavefunction, 'positive_definite')", ["line 1: positive_definite"]),
        ("def f(t):\n    return mean_em_posterior(t)", ["line 2: mean_em_posterior"]),
        ("from .analysis import analyze\nanalyze(table, ['naive'])", []),
        ("from .quantum import moderation_scale\n'posterior_2x2 help text'", []),
    ],
)
def test_rule_flags_estimator_references(source, expected):
    assert estimator_references(source) == expected


def test_rule_flags_the_solve_planted_in_the_cli():
    source = (PACKAGE / "cli.py").read_text(encoding="utf-8").replace(
        "from .quantum import moderation_scale\n",
        "from .quantum import moderation_scale, overlap_coefficients\n",
        1,
    ) + "\n\ndef _solve(table):\n    return overlap_coefficients(table)\n"
    assert [entry.split(": ")[1] for entry in estimator_references(source)] == [
        "import overlap_coefficients",
        "overlap_coefficients",
    ]


def test_cli_reaches_the_estimators_only_through_analyze():
    assert estimator_references((PACKAGE / "cli.py").read_text(encoding="utf-8")) == []


# Every public name the package defines has a caller in the package itself
# (``__init__.py``, which only re-exports, aside) or in the benchmark; a
# member only tests use goes.  The names are module-level functions, classes
# and UPPER_CASE constants, and the methods and properties of public
# classes.  Matching goes by name alone, so a member shares the callers of
# every other name spelled the same way.
CALLER_SOURCES = [
    *(path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"),
    *sorted((REPO_ROOT / "bench").glob("*.py")),
]


def public_definitions(source: str) -> list[tuple[int, str, str]]:
    """``(line, qualified name, name)`` for each public module-level
    function, class and UPPER_CASE constant, and each public method or
    property of a public class.  Dunder names are not public here."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("_"):
                continue
            found.append((node.lineno, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                found.extend(
                    (member.lineno, f"{node.name}.{member.name}", member.name)
                    for member in node.body
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not member.name.startswith("_")
                )
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.extend(
                (node.lineno, t.id, t.id)
                for t in targets
                if isinstance(t, ast.Name) and t.id.isupper() and not t.id.startswith("_")
            )
    return found


def referenced_names(source: str) -> set[str]:
    """Names a module reads, as a name or an attribute, or imports.  A
    definition or an assignment does not read the name it binds."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


def uncalled_definitions(source: str, callers: set[str]) -> list[str]:
    """The public definitions of ``source`` whose names are not in
    ``callers``, as ``line N: name`` strings."""
    return [
        f"line {line}: {qualified}"
        for line, qualified, name in public_definitions(source)
        if name not in callers
    ]


def caller_names() -> set[str]:
    names: set[str] = set()
    for path in CALLER_SOURCES:
        names |= referenced_names(path.read_text(encoding="utf-8"))
    return names


@pytest.mark.parametrize(
    "source, callers, expected",
    [
        ("def solve():\n    pass", "", ["line 1: solve"]),
        ("class Report:\n    pass", "", ["line 1: Report"]),
        ("LIMIT = 10\nlimit = LIMIT", "", ["line 1: LIMIT"]),
        ("SHAPE: tuple = (2, 2)", "", ["line 1: SHAPE"]),
        (
            "class Report:\n    @property\n    def worst(self):\n        pass",
            "Report",
            ["line 3: Report.worst"],
        ),
        (
            "class Report:\n    @classmethod\n    def build(cls):\n        pass",
            "Report",
            ["line 3: Report.build"],
        ),
        ("def solve():\n    pass", "from .quantum import solve", []),
        ("def solve():\n    pass", "quantum.solve", []),
        ("def solve():\n    pass", "call = solve", []),
        ("def _helper():\n    pass\n_LIMIT = 1\nlimit = 2", "", []),
        ("class _Run:\n    def step(self):\n        pass", "", []),
        ("class Report:\n    def __repr__(self):\n        return ''", "Report", []),
    ],
)
def test_rule_flags_public_definitions_without_a_caller(source, callers, expected):
    assert uncalled_definitions(source, referenced_names(callers)) == expected


def test_rule_flags_a_method_planted_in_a_package_class():
    source = (PACKAGE / "quantum.py").read_text(encoding="utf-8").replace(
        "    def check_fits(", "    def planted_unused(self):\n        pass\n\n    def check_fits(", 1
    )
    flagged = uncalled_definitions(source, caller_names())
    assert [entry.split(": ")[1] for entry in flagged] == ["OverlapMatrix.planted_unused"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_public_definition_has_a_caller_outside_the_tests(path):
    assert uncalled_definitions(path.read_text(encoding="utf-8"), caller_names()) == []


# A table carries its priors, so the estimators read them there: outside the
# table constructors (generated by dataclass, so not in the source),
# new_table and validated_priors, no public function takes a ``priors``
# parameter.  A second way in would be a second home for the prior rule.
PRIORS_TAKERS = frozenset({"new_table", "validated_priors"})


def priors_parameters(source: str) -> list[str]:
    """The public module-level functions and the public methods of public
    classes, ``PRIORS_TAKERS`` aside, that take a parameter named
    ``priors``, as ``line N: name`` strings."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    candidates = []
    for node in ast.parse(source).body:
        if isinstance(node, functions):
            candidates.append((node, node.name))
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            candidates.extend(
                (member, f"{node.name}.{member.name}")
                for member in node.body
                if isinstance(member, functions)
            )
    found = []
    for node, qualified in candidates:
        if node.name.startswith("_") or node.name in PRIORS_TAKERS:
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        if any(p is not None and p.arg == "priors" for p in params):
            found.append(f"line {node.lineno}: {qualified}")
    return found


@pytest.mark.parametrize(
    "source, expected",
    [
        ("def mean(counts, priors=None):\n    pass", ["line 1: mean"]),
        ("def mean(counts, *, priors):\n    pass", ["line 1: mean"]),
        ("def mean(priors, /):\n    pass", ["line 1: mean"]),
        ("def mean(*priors):\n    pass", ["line 1: mean"]),
        (
            "class Table:\n    def resolve(self, priors):\n        pass",
            ["line 2: Table.resolve"],
        ),
        ("def new_table(x, priors=None):\n    pass", []),
        ("def validated_priors(priors, n):\n    pass", []),
        ("def _helper(priors):\n    pass", []),
        ("class _Run:\n    def start(self, priors):\n        pass", []),
        ("class Table:\n    priors: tuple = None", []),
        ("def mean(counts):\n    return counts.priors", []),
    ],
)
def test_rule_flags_a_public_priors_parameter(source, expected):
    assert priors_parameters(source) == expected


def test_rule_flags_a_priors_parameter_planted_in_an_estimator():
    source = (PACKAGE / "classical.py").read_text(encoding="utf-8").replace(
        "def mean_frequency_posterior(counts: CountTable)",
        "def mean_frequency_posterior(counts: CountTable, priors=None)",
        1,
    )
    assert [entry.split(": ")[1] for entry in priors_parameters(source)] == [
        "mean_frequency_posterior"
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_public_function_takes_priors(path):
    assert priors_parameters(path.read_text(encoding="utf-8")) == []
