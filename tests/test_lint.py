"""Lint: every imported name is used, the package keeps its layering (no
module imports numpy when it is imported; inside a function, only the Monte
Carlo layer's PM row sampler and its export import it, and only the exact
reference imports `decimal`), every kernel evaluation is a call of
`kernels.<name>`, every key rate passes one guard, the reference shares no
code with the reduction or the kernels, the sampler's physics exists once,
each of the oracle's pass limits has one reader, and no function of the
package serves only the tests.

A module of `src/cvmdi` or of `tests/` that imports a name must reference it.
The package's `__init__.py` is exempt: its imports are its exports.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read in the module."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_unused_imports():
    assert unused_imports("import os.path\nimport numpy as np\nfrom a import b, c as d\n"
                          "np.zeros(d)\n") == ["b", "os"]
    modules = [p for p in sorted((ROOT / "src" / "cvmdi").glob("*.py")) if p.name != "__init__.py"]
    modules += sorted((ROOT / "tests").glob("*.py"))
    unused = {str(p.relative_to(ROOT)): unused_imports(p.read_text()) for p in modules}
    assert {path: names for path, names in unused.items() if names} == {}


def package_imports(source: str) -> set[str]:
    """Modules of the `cvmdi` package that a module imports, relative or absolute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            # inside the package, `from .x import y` imports cvmdi.x
            base = node.module or ""
            if node.level:
                base = f"cvmdi.{base}" if base else "cvmdi"
            names = [f"{base}.{alias.name}" for alias in node.names] if base == "cvmdi" else [base]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        found.update(name.split(".")[1] for name in names if name.startswith("cvmdi."))
    return found


def test_layering():
    """The Monte Carlo layer builds on `protocol` alone and evaluates no key
    rate, and `oracle` takes its predictions from `protocol`, not from
    `keyrate`; `config` does not load the Monte Carlo layer, which only
    `oracle` runs use."""
    assert package_imports("from . import kernels as k\nfrom .protocol import x\n"
                           "from cvmdi.config import y\nimport cvmdi.oracle\n"
                           "from cvmdi import keyrate\n") == {
        "kernels", "protocol", "config", "oracle", "keyrate"}
    imports = {p.stem: package_imports(p.read_text())
               for p in (ROOT / "src" / "cvmdi").glob("*.py")}
    assert imports["montecarlo"] == {"protocol"}
    assert imports["oracle"] == {"montecarlo", "protocol"}
    assert not imports["config"] & {"montecarlo", "oracle"}


def import_time_modules(source: str) -> set[str]:
    """Top-level names of the absolute imports a module runs when it is
    imported: every import outside a function body."""
    found = set()

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                found.update(alias.name.split(".")[0] for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and not child.level:
                found.add(child.module.split(".")[0])
            visit(child)

    visit(ast.parse(source))
    return found


def numpy_at_import(sources: dict[str, str]) -> set[str]:
    """The modules, of name -> source, that import numpy when imported."""
    return {name for name, source in sources.items() if "numpy" in import_time_modules(source)}


# where in the Monte Carlo layer numpy may be imported: the PM rows and their export
ROW_FUNCTIONS = {"_row_rng", "simulate_pm", "SampleBatch.data_matrix", "_ascii_words",
                 "_cell_tables", "_format_block", "export_csv"}


def test_numpy_only_where_arrays_are_the_work():
    """The analytic path (`protocol`, `kernels`, `keyrate`, `config`, `cli`
    and the package root) and the oracle's law, draw and estimation run on
    `math`, so no module imports numpy at module level. In `montecarlo` only
    the row sampler and the CSV export, in ROW_FUNCTIONS, import it when they
    are called, and `oracle` imports it nowhere: no command loads it."""
    assert import_time_modules("import os.path\nfrom numpy import linalg\nfrom . import x\n"
                               "class C:\n    import re\ndef f():\n    import json\n") == {
        "os", "numpy", "re"}
    sources = {p.stem: p.read_text() for p in (ROOT / "src" / "cvmdi").glob("*.py")}
    assert numpy_at_import(sources) == set()
    stray = dict(sources, keyrate="import numpy as np\n" + sources["keyrate"])
    assert numpy_at_import(stray) == {"keyrate"}
    assert local_imports(sources["montecarlo"], "numpy") == ROW_FUNCTIONS
    assert local_imports(sources["oracle"], "numpy") == set()
    twin = sources["montecarlo"] + "\ndef _row_law_np(lmap):\n    import numpy as np\n"
    assert local_imports(twin, "numpy") == ROW_FUNCTIONS | {"_row_law_np"}


def local_imports(source: str, module: str) -> set[str]:
    """Qualified names of the functions and classes whose bodies import
    `module` or a submodule of it; module-level imports are not reported."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                names = [child.module]
            else:
                names = []
            if scope and any(name.split(".")[0] == module for name in names):
                found.add(scope)
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


# the analytic path
ANALYTIC = ("protocol", "kernels", "keyrate", "config", "cli")
# the exact reference: the three functions that import `decimal`, and the
# helpers they call
REFERENCE = {"protocol.compose_eb_simulated", "keyrate.mutual_information_generic",
             "keyrate.holevo_bound_reverse_generic"}
REFERENCE_HELPERS = {"protocol._at_agreed_precision", "keyrate._det"}


def test_numpy_nowhere_in_the_analytic_path():
    """Each formula of the analytic path has one form, in `math`, and its
    cross-check is the reference in `decimal`: no function there imports
    numpy, so a numpy twin of a kernel or a sweep fails here."""
    assert local_imports("import numpy\ndef f():\n    import numpy as np\nclass C:\n"
                         "    def m(self):\n        from numpy.linalg import det\n"
                         "def g():\n    import json\n    from . import numpy\n", "numpy") == {
        "f", "C.m"}
    sources = {m: (ROOT / "src" / "cvmdi" / f"{m}.py").read_text() for m in ANALYTIC}

    def numpy_inside(sources):
        return {f"{m}.{f}" for m, text in sources.items() for f in local_imports(text, "numpy")}

    assert numpy_inside(sources) == set()
    twin = dict(sources, kernels=sources["kernels"] + (
        "\ndef block_mutual_information_grid(a, b, c):\n    import numpy as np\n"
        "    return np.log2(a)\n"))
    assert numpy_inside(twin) == {"kernels.block_mutual_information_grid"}


def test_decimal_only_inside_the_reference():
    """`decimal` is imported inside the three reference functions alone, and
    by no module when it is imported, so no command loads it."""
    sources = {p.stem: p.read_text() for p in (ROOT / "src" / "cvmdi").glob("*.py")}
    assert not {m for m, text in sources.items() if "decimal" in import_time_modules(text)}
    assert {f"{m}.{f}" for m, text in sources.items()
            for f in local_imports(text, "decimal")} == REFERENCE
    stray = dict(sources, kernels=sources["kernels"] + (
        "\ndef g_exact(nu):\n    from decimal import Decimal\n    return Decimal(nu)\n"))
    assert {f"{m}.{f}" for m, text in stray.items()
            for f in local_imports(text, "decimal")} == REFERENCE | {"kernels.g_exact"}


def names_read(source: str, functions: set[str]) -> set[str]:
    """The names and attributes that the bodies of the module's top-level
    `functions` read, nested functions included."""
    found = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name in functions:
            for child in ast.walk(ast.Module(body=node.body, type_ignores=[])):
                if isinstance(child, ast.Name):
                    found.add(child.id)
                elif isinstance(child, ast.Attribute):
                    found.add(child.attr)
    return found


# what the reference must not share: the kernels and the reduction
REDUCTION = {"kernels", "gain_free_terms", "_leg_b_terms", "_with_first_leg", "channel_at",
             "block_params",
             "detector_noise", "k_from_gain", "_k_per_gain", "optimal_gain", "resolved_gain"}


def test_the_reference_shares_nothing_with_the_reduction():
    """The reference (REFERENCE and its helpers) reads no `kernels` function
    and no step of the reduction, so it cross-checks both; it takes the gain
    from its caller."""
    assert names_read("def f(s):\n    def h():\n        return kernels.g_entropy(s.x)\n"
                      "def g():\n    return channel_at()\n", {"f"}) == {
        "kernels", "g_entropy", "s", "x"}
    sources = {m: (ROOT / "src" / "cvmdi" / f"{m}.py").read_text() for m in ("protocol", "keyrate")}
    reference = REFERENCE | REFERENCE_HELPERS

    def shared(sources):
        return {f"{m}:{name}" for m, text in sources.items()
                for name in names_read(text, {f.split(".")[1] for f in reference
                                              if f.startswith(f"{m}.")}) & REDUCTION}

    assert shared(sources) == set()

    def calling(m, name, call):
        """Module m's source with a function `name` that makes `call` in place
        of its own, which is renamed."""
        return sources[m].replace(f"def {name}(",
                                  f"def {name}(s, g):\n    {call}\n\n\ndef _{name}(", 1)

    stray = {"protocol": calling("protocol", "compose_eb_simulated", "kernels.g_entropy(g)"),
             "keyrate": calling("keyrate", "holevo_bound_reverse_generic",
                                "channel_at(gain_free_terms(s), g)")}
    assert shared(stray) == {"protocol:kernels", "keyrate:channel_at", "keyrate:gain_free_terms"}


def _defined(node: ast.stmt) -> set[str]:
    """Names one top-level statement defines: an assignment, function or class."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        return {t.id for t in node.targets if isinstance(t, ast.Name)}
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return {node.target.id}
    return set()


def module_level_names(source: str) -> set[str]:
    """Names a module defines at its top level: assignments, functions, classes."""
    return set().union(*(_defined(node) for node in ast.parse(source).body))


def test_each_name_defined_once():
    """No top-level name is defined in two modules of the package; a module
    that needs another's name imports it."""
    assert module_level_names("import os\nX = 1\ny: int = 2\ndef f(): Z = 3\nclass C: pass\n") == {
        "X", "y", "f", "C"}
    owners: dict[str, list[str]] = {}
    for p in sorted((ROOT / "src" / "cvmdi").glob("*.py")):
        if p.name != "__init__.py":
            for name in module_level_names(p.read_text()):
                owners.setdefault(name, []).append(p.stem)
    assert {name: mods for name, mods in owners.items() if len(mods) > 1} == {}


def unreferenced_names(source: str, elsewhere: str) -> set[str]:
    """Top-level names of a module that appear as a word neither in
    `elsewhere` nor in the module outside their own definition."""
    lines = source.splitlines()
    missing = set()
    for node in ast.parse(source).body:
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        rest = "\n".join(lines[:first - 1] + lines[node.end_lineno:])
        for name in _defined(node):
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not word.search(rest) and not word.search(elsewhere):
                missing.add(name)
    return missing


def test_every_name_is_referenced():
    """Each top-level name of the package is read somewhere, by the package,
    the tests or the benchmark, read as text; `__init__.__all__` is exempt."""
    assert unreferenced_names("X = 1\ndef f():\n    return f(X)\n@d\nclass C:\n    pass\n"
                              "Y = X\n", "C") == {"f", "Y"}
    texts = {p: p.read_text() for d in ("src", "tests", "perfbench")
             for p in sorted((ROOT / d).rglob("*.py"))}
    missing = {}
    for p in sorted((ROOT / "src" / "cvmdi").glob("*.py")):
        elsewhere = "\n".join(text for q, text in texts.items() if q != p)
        names = unreferenced_names(texts[p], elsewhere) - ({"__all__"} if p.name == "__init__.py"
                                                           else set())
        if names:
            missing[p.name] = sorted(names)
    assert missing == {}


def call_sites(source: str) -> dict[str, set[str]]:
    """Per name called as `f(...)` or `x.f(...)`, the qualified names of the
    functions whose bodies call it; a call at module level is reported as
    '<module>'."""
    found = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call):
                name = getattr(child.func, "id", None) or getattr(child.func, "attr", None)
                if name:
                    found.setdefault(name, set()).add(scope or "<module>")
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def callers(source: str, name: str) -> set[str]:
    """Qualified names of the functions whose bodies call `name` (`call_sites`)."""
    return call_sites(source).get(name, set())


def none_defaults(source: str, param: str) -> set[str]:
    """Names of the functions with a parameter `param` that defaults to None."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
            pairs += zip(args.kwonlyargs, args.kw_defaults)
            if any(arg.arg == param and isinstance(default, ast.Constant)
                   and default.value is None for arg, default in pairs):
                found.add(node.name)
    return found


def test_one_gain_rule():
    """`protocol._leg_b_terms`, the part of `gain_free_terms` that the second
    leg fixes, holds the one rule for a run's gain, the last of its terms: it
    alone calls `optimal_gain`, whose value the mismatch term also reads;
    `Scenario.resolved_gain` reads the rule's gain from these terms; and no
    function picks a gain of its own when its caller omits g."""
    assert callers("def f():\n    optimal_gain(s)\nclass C:\n    def m(self):\n"
                   "        return p.optimal_gain(h(self))\noptimal_gain(0)\n",
                   "optimal_gain") == {"f", "C.m", "<module>"}
    assert none_defaults("def f(s, g=None): pass\ndef h(s, g, n=None): pass\n"
                         "def k(s, *, g=None, n=1): pass\ndef m(g=0.0): pass\n", "g") == {"f", "k"}
    modules = sorted((ROOT / "src" / "cvmdi").glob("*.py"))
    assert {f"{p.stem}.{f}" for p in modules for f in callers(p.read_text(), "optimal_gain")} == {
        "protocol._leg_b_terms"}
    assert {f"{p.stem}.{f}" for p in modules for f in none_defaults(p.read_text(), "g")} == set()


def test_one_detector_rule():
    """The relay detector enters the model in one place: only
    `protocol._leg_b_terms`, which `_with_first_leg` completes, calls
    `detector_noise`, so every eps' carries its penalty."""
    modules = sorted((ROOT / "src" / "cvmdi").glob("*.py"))
    assert {f"{p.stem}.{f}" for p in modules for f in callers(p.read_text(), "detector_noise")} == {
        "protocol._leg_b_terms"}


def test_one_reduction_path():
    """The reduction gain -> (T, eps') has one path: the key rate and the
    oracle compose `protocol`'s steps themselves, each scenario's gain-free
    terms once, and no wrapper composes them for one value; the second leg's
    part, `_leg_b_terms`, is completed by `_with_first_leg` in
    `gain_free_terms` and in `keyrate._first_leg`, which a sweep or search
    that moves only the first leg builds once; the kernels take (V_A, T,
    eps'), so only the oracle's covariance suite builds the block (a, b, c);
    `Scenario.resolved_gain` reads the gain of the second leg's part."""
    modules = sorted((ROOT / "src" / "cvmdi").glob("*.py"))
    assert {f"{p.stem}.{f}" for p in modules for f in callers(p.read_text(), "block_params")} == {
        "oracle.run_oracle_suites"}
    assert {f"{p.stem}.{f}" for p in modules for f in callers(p.read_text(), "channel_at")} == {
        "keyrate._evaluate", "oracle.run_oracle_suites"}
    assert {f"{p.stem}.{f}" for p in modules
            for f in callers(p.read_text(), "gain_free_terms")} == {
        "keyrate.secret_key_rate", "keyrate.optimize_k_detection_scheme",
        "oracle.run_oracle_suites"}
    assert {f"{p.stem}.{f}" for p in modules for f in callers(p.read_text(), "_leg_b_terms")} == {
        "protocol.gain_free_terms", "protocol.Scenario.resolved_gain", "keyrate._first_leg"}
    assert {f"{p.stem}.{f}" for p in modules
            for f in callers(p.read_text(), "_with_first_leg")} == {
        "protocol.gain_free_terms", "keyrate._first_leg"}


def hidden_kernel_calls(source: str) -> set[str]:
    """The ways a module reaches a `kernels` function other than by calling
    it as `kernels.<name>(...)`: a name imported from the module, the module
    bound under another name, or a `kernels.<name>` read that is not the
    function of a call (a local alias, or a function passed on)."""
    tree = ast.parse(source)
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.rsplit(".", 1)[-1] == "kernels":
                found.update(f"from {'.' * node.level}{module} import {alias.name}"
                             for alias in node.names)
            else:
                found.update(f"import kernels as {alias.asname}" for alias in node.names
                             if alias.name == "kernels" and alias.asname)
        elif isinstance(node, ast.Import):
            found.update(f"import {alias.name} as {alias.asname}" for alias in node.names
                         if alias.name.rsplit(".", 1)[-1] == "kernels" and alias.asname)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "kernels" and id(node) not in called):
            found.add(f"kernels.{node.attr} not called")
    return found


def test_every_kernel_evaluation_is_visible():
    """Outside `kernels`, the package calls a kernel function only as
    `kernels.<name>(...)`, so that replacing the module's attribute (the
    evaluation-count tests, the benchmark's tracer) sees every evaluation; a
    local alias, cheaper by one attribute lookup, would hide them."""
    assert hidden_kernel_calls(
        "from . import kernels\nfrom .kernels import block_holevo_reverse\n"
        "from . import kernels as k\nimport cvmdi.kernels as kk\n"
        "chi = kernels.block_holevo_reverse\nf(kernels.g_entropy)\n"
        "kernels.block_holevo_reverse(1.0, 2.0, 3.0)\n") == {
        "from .kernels import block_holevo_reverse", "import kernels as k",
        "import cvmdi.kernels as kk", "kernels.block_holevo_reverse not called",
        "kernels.g_entropy not called"}
    sources = {p.stem: p.read_text() for p in sorted((ROOT / "src" / "cvmdi").glob("*.py"))
               if p.stem != "kernels"}

    def hidden(sources):
        return {m: found for m, text in sources.items() if (found := hidden_kernel_calls(text))}

    assert hidden(sources) == {}
    alias = dict(sources, keyrate=sources["keyrate"].replace(
        "def _evaluate(", "_mutual_information = kernels.block_mutual_information\n\n\n"
        "def _evaluate(", 1))
    assert hidden(alias) == {"keyrate": {"kernels.block_mutual_information not called"}}


def handlers(source: str, name: str) -> set[str]:
    """Qualified names of the functions with an `except` clause that names
    the exception `name`, alone or in a tuple; '<module>' at module level."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.ExceptHandler) and child.type is not None:
                types = child.type.elts if isinstance(child.type, ast.Tuple) else [child.type]
                if any(name in (getattr(t, "id", None), getattr(t, "attr", None)) for t in types):
                    found.add(scope or "<module>")
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_one_key_rate_guard():
    """Every key rate of the package is one `keyrate._evaluate`, the one
    key-rate guard: it alone constructs `KeyRateNotFinite` and, in every
    module, calls the two point kernels, and `cli` catches no `ValueError`,
    so a command turns the guard's error into exit 2 in `main` alone."""
    assert handlers("try:\n    f()\nexcept ValueError:\n    pass\ndef g():\n    try:\n"
                    "        f()\n    except (KeyError, m.ValueError):\n        pass\n",
                    "ValueError") == {"<module>", "g"}
    modules = sorted((ROOT / "src" / "cvmdi").glob("*.py"))
    sources = {p.stem: p.read_text() for p in modules}
    assert {f"{m}.{f}" for m, text in sources.items()
            for f in callers(text, "KeyRateNotFinite")} == {"keyrate._evaluate"}
    for kernel in ("block_mutual_information", "block_holevo_reverse"):
        assert {f"{m}.{f}" for m, text in sources.items()
                for f in callers(text, kernel)} == {"keyrate._evaluate"}, kernel
    assert handlers(sources["cli"], "ValueError") == set()
    assert handlers(sources["cli"], "KeyRateNotFinite") == {"main"}


# what makes a generator, and what draws from one, in numpy and in `random`
GENERATORS = ("Philox", "Generator", "default_rng", "SeedSequence", "RandomState", "Random")
DRAWS = ("standard_normal", "normal", "chisquare", "multivariate_normal", "gauss",
         "normalvariate", "gammavariate")


def sampling_sites(sources: dict[str, str]) -> dict[str, set[str]]:
    """Per role, the `module.function`s of sources (name -> text) that call
    it: generator construction, each generator maker, drawing, the two
    builders of L and `linear_map`."""
    calls = {m: call_sites(text) for m, text in sources.items()}

    def sites(*names):
        return {f"{m}.{f}" for m, found in calls.items() for name in names
                for f in found.get(name, ())}
    return {"generators": sites(*GENERATORS), "_row_rng": sites("_row_rng"),
            "_moment_rng": sites("_moment_rng"), "draws": sites(*DRAWS),
            "builders": sites("_eb_rows", "_pm_rows"), "linear_map": sites("linear_map")}


def test_the_sampler_physics_exists_once():
    """The sampler's physics is L alone: `_eb_rows` and `_pm_rows` build it
    and only `linear_map` calls them; the PM row draw (`simulate_pm`), the
    moment draw (`sample_moments`) and the exact law (`row_law`) take L from
    `linear_map`; the two makers of a generator are `_row_rng` (numpy's
    Philox), called only by the row draw, and `_moment_rng` (`random`),
    called only by the moment draw, and only the two draws draw, so the law
    draws nothing. So a second physics path, a hand-written L or a second
    row draw fails here."""
    sources = {p.stem: p.read_text() for p in sorted((ROOT / "src" / "cvmdi").glob("*.py"))}
    drawing = {"montecarlo.simulate_pm", "montecarlo.sample_moments"}
    expected = {
        "generators": {"montecarlo._row_rng", "montecarlo._moment_rng"},
        "_row_rng": {"montecarlo.simulate_pm"},
        "_moment_rng": {"montecarlo.sample_moments"},
        "draws": drawing,
        "builders": {"montecarlo.linear_map"},
        "linear_map": drawing | {"montecarlo.row_law"},
    }
    assert sampling_sites(sources) == expected
    stray = dict(sources, oracle=sources["oracle"] + (
        "\ndef _eb_rows_fast(s, seed):\n"
        "    u = _moment_rng(seed).gauss(0.0, 1.0)\n"
        "    return u * _eb_rows(s) @ _row_rng(seed).standard_normal((16, 4))\n"))
    found = sampling_sites(stray)
    strays = [found[role] - expected[role] for role in ("_row_rng", "_moment_rng", "builders")]
    assert strays + [found["draws"] - drawing] == [{"oracle._eb_rows_fast"}] * 4
    eb_rows = dict(sources, montecarlo=sources["montecarlo"] + (
        "\ndef _eb_row_draw(s, n, seed):\n"
        "    return linear_map(s, 'EB') @ _row_rng(seed).standard_normal((16, n))\n"))
    found = sampling_sites(eb_rows)
    assert [found[role] - expected[role] for role in ("_row_rng", "draws", "linear_map")] == [
        {"montecarlo._eb_row_draw"}] * 3


def readers(source: str, name: str) -> set[str]:
    """Qualified names of the functions whose bodies read `name`, as `name`
    or `x.name`; a read at module level is reported as '<module>'."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if (isinstance(child, (ast.Name, ast.Attribute)) and isinstance(child.ctx, ast.Load)
                    and name in (getattr(child, "id", None), getattr(child, "attr", None))):
                found.add(scope or "<module>")
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_each_pass_limit_has_one_reader():
    """The oracle's two pass limits are each read once: `Z_LIMIT` by the
    estimation suite, the one check of a sample, and `IDENTITY_TOL` by
    `_identity`, the one check of an exact identity."""
    assert readers("L = 1\ndef f():\n    return L\nclass C:\n    def g(self):\n"
                   "        return m.L < 2\nM = L\n", "L") == {"f", "C.g", "<module>"}
    sources = {p.stem: p.read_text() for p in sorted((ROOT / "src" / "cvmdi").glob("*.py"))}
    found = {name: {f"{m}.{f}" for m, text in sources.items() for f in readers(text, name)}
             for name in ("Z_LIMIT", "IDENTITY_TOL")}
    assert found == {"Z_LIMIT": {"oracle._estimation_suite"},
                     "IDENTITY_TOL": {"oracle._identity"}}


def definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """A module's top-level functions and classes and the methods of its
    classes, by qualified name."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found[node.name] = node
            if isinstance(node, ast.ClassDef):
                found.update({f"{node.name}.{m.name}": m for m in node.body
                              if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))})
    return found


def names_in(tree: ast.AST) -> Counter:
    """How often the code of tree reads each name, as a name or an attribute;
    strings and docstrings are not code."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def unused_definitions(sources: dict[str, str], users: list[str]) -> set[str]:
    """`module.name` of each definition of sources (module -> text) that the
    code of sources and users reads nowhere outside its own body. Dunder
    methods are exempt: Python calls them."""
    trees = {m: ast.parse(text) for m, text in sources.items()}
    read = sum((names_in(t) for t in [*trees.values(), *map(ast.parse, users)]), Counter())
    return {f"{m}.{qual}" for m, tree in trees.items() for qual, node in definitions(tree).items()
            if not (node.name.startswith("__") and node.name.endswith("__"))
            and read[node.name] <= names_in(node)[node.name]}


# definitions that no code of the package or the benchmark reads, and why they stay
PUBLIC_UNUSED = {
    "kernels.g_entropy": "the public bosonic entropy g(nu) in bits; the key rate reads "
                         "its nats form `_entropy` directly",
}


def test_no_test_only_code_in_src():
    """Each top-level function, class and method of the package is read by
    code of the package or of the benchmark, not only by tests, so a helper
    that only tests need lives in the tests; PUBLIC_UNUSED names the
    exceptions. A docstring or a string naming a function is no reference."""
    assert unused_definitions({"m": 'def f():\n    return f()\ndef g():\n    """f"""\n'
                                    "class C:\n    def m(self):\n        pass\n"
                                    "    def __eq__(self, other):\n        return h.m\n"
                                    "def h():\n    return C\n"}, ["g()"]) == {"m.f"}
    sources = {p.stem: p.read_text() for p in sorted((ROOT / "src" / "cvmdi").glob("*.py"))}
    users = [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    assert unused_definitions(sources, users) == set(PUBLIC_UNUSED)
    stray = dict(sources, montecarlo=sources["montecarlo"] + (
        "\ndef sample_block(v_a, t, eps, n):\n    return linear_map(v_a, 'EB')\n"))
    assert unused_definitions(stray, users) == set(PUBLIC_UNUSED) | {"montecarlo.sample_block"}
