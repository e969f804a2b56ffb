"""Static checks of the package source, made with the standard library.

No linter ships with the lab's toolchain, so the one lint rule the package
and its tests keep, no unused imports, is checked here on the syntax tree,
as are the package's export list, its statement of complex dimension
one (fields are scalar, so no module reaches for numpy's per-point linear
algebra or branches on ``GridSpec.complex_dim``), its lazy scipy (no
module imports scipy at its top level, so importing the package loads numpy
and nothing heavier) and its one real transform pair: no module calls a
``numpy.fft`` transform outside ``geometry.half_modes`` and
``geometry.real_samples``, so the transform convention lives in one place.
No module calls a BLAS-backed product (``np.dot``, ``@`` and the like),
whose sums OpenBLAS orders by its thread count, so every result is the same
at any thread count.
The geometry operators and the flow take bare sample arrays, so neither
module reaches for a field container of ``grids``.  Only
``geometry.MongeAmpereFlow`` composes a flow's form and velocity: the flow
and the parabolic run read them through its ``read``, so neither touches
the pieces they are written from outside the elliptic solve.  No method
that the march calls at each evaluation of that flow enters a
floating-point error state of its own: ``timestep.integrate_lawson``
enters one for the whole march.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "collapse_lab"


def unused_imports(tree):
    """Names a module imports but never reads and does not export."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_checker_sees_an_unused_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "import numpy as np\nimport math\n"
                     "from .grids import GridSpec, ScalarField\n"
                     "__all__ = ['ScalarField']\n"
                     "x = np.pi\n")
    assert unused_imports(tree) == [(3, "math"), (4, "GridSpec")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py"))
                         + sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert unused_imports(tree) == []


def dimension_generic_code(tree):
    """Uses of ``numpy.linalg`` and reads of ``.complex_dim`` outside the
    GridSpec class, which validates the field, as (line, name) pairs."""
    hits = []

    def visit(node):
        if isinstance(node, ast.ClassDef) and node.name == "GridSpec":
            return
        dotted = []
        if isinstance(node, ast.Attribute):
            if node.attr == "complex_dim":
                hits.append((node.lineno, "complex_dim"))
            elif isinstance(node.value, ast.Name):
                dotted = [f"{node.value.id}.{node.attr}"]
        elif isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            dotted = [f"{node.module}.{alias.name}" for alias in node.names]
        if any(d.split(".")[:2] in (["np", "linalg"], ["numpy", "linalg"])
               for d in dotted):
            hits.append((node.lineno, "linalg"))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return sorted(hits)


def test_checker_sees_dimension_generic_code():
    tree = ast.parse("import numpy as np\nfrom numpy.linalg import inv\n"
                     "from scipy.sparse.linalg import bicgstab\n"
                     "class GridSpec:\n    def ok(self):\n"
                     "        return self.complex_dim\n"
                     "def f(g, a):\n    m = g.grid.complex_dim\n"
                     "    return np.linalg.det(a) + inv(a)\n")
    assert dimension_generic_code(tree) == [(2, "linalg"), (8, "complex_dim"),
                                            (9, "linalg")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_dimension_generic_code(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert dimension_generic_code(tree) == []


def top_level_scipy_imports(tree):
    """Lines of the module-level statements that import scipy."""
    hits = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            hits.append(node.lineno)
    return hits


def test_checker_sees_a_top_level_scipy_import():
    tree = ast.parse("import numpy as np\nimport scipy.sparse\n"
                     "from scipy.sparse.linalg import bicgstab\n"
                     "from .scipy import x\nimport scipy_free\n"
                     "def f(a):\n    from scipy.sparse import csr_matrix\n"
                     "    import scipy\n    return csr_matrix(a)\n")
    assert top_level_scipy_imports(tree) == [2, 3]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_top_level_scipy_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert top_level_scipy_imports(tree) == []


# numpy's products that OpenBLAS threads above a size, summing in an order
# set by the thread count
BLAS_PRODUCTS = {"dot", "vdot", "inner", "matmul"}


def blas_products(tree):
    """(line, name) of each BLAS-backed product a module reaches: numpy's
    ``dot``, ``vdot``, ``inner`` or ``matmul``, through an attribute or an
    import, any ``.dot`` method and the ``@`` operator.  An inner product
    is ``np.sum(a * b)`` instead, numpy's pairwise sum, which calls no
    BLAS, so every result is the same at any thread count.
    ``rates.rate_fit``'s ``np.polyfit`` stays: a LAPACK least-squares
    solve on two columns, far below any size OpenBLAS threads."""
    hits = []
    for node in ast.walk(tree):
        if (isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.MatMult)):
            hits.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and (node.attr == "dot" or (
                node.attr in BLAS_PRODUCTS
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy"))):
            hits.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            hits.extend((node.lineno, alias.name) for alias in node.names
                        if alias.name in BLAS_PRODUCTS)
    return sorted(hits)


def test_checker_sees_a_blas_product():
    tree = ast.parse("import numpy as np\nfrom numpy import vdot\n"
                     "def f(a, b):\n    c = np.dot(a, b) + a.dot(b)\n"
                     "    c @= a\n    d = np.sum(a * b) + np.linalg.norm(a)\n"
                     "    return a @ b, np.inner(a, b), numpy.matmul(a, b)\n"
                     "@staticmethod\ndef g(a):\n"
                     "    return np.einsum('i,i', a, a), a.dotted\n")
    assert blas_products(tree) == [(2, "vdot"), (4, "dot"), (4, "dot"),
                                   (5, "@"), (7, "@"), (7, "inner"),
                                   (7, "matmul")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_blas_product(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert blas_products(tree) == []


# the functions that may call numpy's transforms; fftfreq is no transform
TRANSFORM_HELPERS = {"geometry.py": {"half_modes", "real_samples"}}


def fft_transforms(tree, helpers=()):
    """(line, name) of each numpy.fft transform a module reaches, through an
    attribute or an import, outside the functions named in ``helpers``."""
    hits = []

    def visit(node, inside):
        names = []
        if isinstance(node, ast.Attribute):
            base = node.value
            if isinstance(base, ast.Attribute) and base.attr == "fft" \
                    and isinstance(base.value, ast.Name) \
                    and base.value.id in ("np", "numpy"):
                names = [node.attr]
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.fft":
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            names = [alias.name for alias in node.names if alias.name == "fft"]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names
                     if alias.name == "numpy.fft"]
        if not inside:
            hits.extend((node.lineno, n) for n in names if n != "fftfreq")
        for child in ast.iter_child_nodes(node):
            visit(child, inside or (isinstance(node, ast.FunctionDef)
                                    and node.name in helpers))

    visit(tree, False)
    return sorted(hits)


def test_checker_sees_a_transform_outside_the_helpers():
    tree = ast.parse("import numpy as np\nfrom numpy.fft import rfft\n"
                     "from numpy import fft\n"
                     "def half_modes(v):\n    return np.fft.rfftn(v)\n"
                     "def f(v):\n    k = np.fft.fftfreq(8)\n"
                     "    return np.fft.irfftn(v) + k\n")
    assert fft_transforms(tree) == [(2, "rfft"), (3, "fft"), (5, "rfftn"),
                                    (8, "irfftn")]
    assert fft_transforms(tree, {"half_modes"}) == [(2, "rfft"), (3, "fft"),
                                                    (8, "irfftn")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_transforms_only_in_the_transform_pair(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert fft_transforms(tree, TRANSFORM_HELPERS.get(path.name, ())) == []


# the modules whose operators take bare sample arrays
ARRAY_MODULES = ("geometry.py", "flow.py")
FIELD_CONTAINERS = {"ScalarField", "HermitianField"}


def field_container_uses(tree):
    """(line, name) of each field container a module takes from ``grids``:
    imported by name or by ``*``, or read as an attribute of the module."""
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module is not None \
                and node.module.split(".")[-1] == "grids":
            hits.extend((node.lineno, alias.name) for alias in node.names
                        if alias.name in FIELD_CONTAINERS | {"*"})
        elif isinstance(node, ast.Attribute) \
                and node.attr in FIELD_CONTAINERS:
            hits.append((node.lineno, node.attr))
    return sorted(hits)


def test_checker_sees_a_field_container():
    tree = ast.parse("from .grids import GridSpec, ScalarField\n"
                     "from collapse_lab.grids import *\n"
                     "from . import grids\n"
                     "from .grids import require_positive\n"
                     "def f(g, v):\n"
                     "    return grids.HermitianField(g, v)\n")
    assert field_container_uses(tree) == [(1, "ScalarField"), (2, "*"),
                                          (6, "HermitianField")]


@pytest.mark.parametrize("name", ARRAY_MODULES)
def test_array_operators_take_no_field_container(name):
    path = SRC / name
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert field_container_uses(tree) == []


# the geometry pieces a flow's form and velocity are written from, and the
# functions of each module that may read them: the elliptic solve alone
FORM_PIECES = {"log_volume_ratio", "real_samples", "ddbar_symbol"}
FORM_READERS = {"flow.py": set(), "gke.py": {"gke_residual", "_linear_step"}}


def form_pieces_outside(tree, readers=()):
    """(line, name) of each read of a ``FORM_PIECES`` name, bare or as an
    attribute, outside the functions named in ``readers``."""
    hits = []

    def visit(node, inside):
        name = (node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else None)
        if name in FORM_PIECES and not inside:
            hits.append((node.lineno, name))
        for child in ast.iter_child_nodes(node):
            visit(child, inside or (isinstance(node, ast.FunctionDef)
                                    and node.name in readers))

    visit(tree, False)
    return sorted(hits)


def test_checker_sees_a_hand_copied_form():
    tree = ast.parse("from .geometry import log_volume_ratio, real_samples\n"
                     "from . import geometry\n"
                     "def gke_residual(g, u):\n"
                     "    return log_volume_ratio(u, 1.0)\n"
                     "def read(g, m):\n    phi = real_samples(g, m)\n"
                     "    return geometry.ddbar_symbol(g) * phi\n")
    assert form_pieces_outside(tree) == [(4, "log_volume_ratio"),
                                         (6, "real_samples"),
                                         (7, "ddbar_symbol")]
    assert form_pieces_outside(tree, {"gke_residual"}) == [
        (6, "real_samples"), (7, "ddbar_symbol")]


@pytest.mark.parametrize("name", sorted(FORM_READERS))
def test_only_geometry_composes_a_flow(name):
    path = SRC / name
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert form_pieces_outside(tree, FORM_READERS[name]) == []


# the methods of the flow problem that the march calls at each evaluation,
# and the names that enter a floating-point error state (log_volume_ratio
# enters one); the march enters one errstate around all of them
PER_EVALUATION = {"_form", "nonlinear_modes", "_omega", "_velocity",
                  "kaehler_margin", "symbol_integral"}
ERRSTATE_NAMES = {"errstate", "seterr", "log_volume_ratio"}


def errstates_per_evaluation(tree, cls="MongeAmpereFlow"):
    """(line, method) of each read of an ``ERRSTATE_NAMES`` name, bare or
    as an attribute, in a ``PER_EVALUATION`` method of the class ``cls``."""
    hits = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ClassDef) and node.name == cls):
            continue
        for method in node.body:
            if not (isinstance(method, ast.FunctionDef)
                    and method.name in PER_EVALUATION):
                continue
            hits.extend(
                (sub.lineno, method.name) for sub in ast.walk(method)
                if (sub.id if isinstance(sub, ast.Name) else
                    sub.attr if isinstance(sub, ast.Attribute) else None)
                in ERRSTATE_NAMES)
    return sorted(hits)


def test_checker_sees_an_errstate_per_evaluation():
    tree = ast.parse("class MongeAmpereFlow:\n"
                     "    def _form(self, t, u):\n"
                     "        with np.errstate(invalid='ignore'):\n"
                     "            return u\n"
                     "    def _velocity(self, omega, shift):\n"
                     "        return log_volume_ratio(omega, 1.0) + shift\n"
                     "    def read(self, times, modes):\n"
                     "        with np.errstate(invalid='ignore'):\n"
                     "            return modes\n")
    assert errstates_per_evaluation(tree) == [(3, "_form"), (6, "_velocity")]


def test_the_march_alone_enters_an_errstate():
    path = SRC / "geometry.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert errstates_per_evaluation(tree) == []


def test_package_exports_are_bound_unique_and_complete():
    import collapse_lab
    exported = collapse_lab.__all__
    assert len(exported) == len(set(exported))
    assert [name for name in exported if not hasattr(collapse_lab, name)] == []
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(imported - set(exported)) == []
