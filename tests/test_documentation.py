"""Documentation-quality gates: every public module, class and function
carries a docstring, no module imports a name it never uses, and the
repo-level docs reference real artifacts."""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import re

import pytest

import repro

REPO_ROOT = pathlib.Path(repro.__file__).resolve().parent.parent.parent


def all_modules():
    names = ["repro"]
    package_dir = pathlib.Path(repro.__file__).parent
    for info in pkgutil.walk_packages([str(package_dir)], prefix="repro."):
        names.append(info.name)
    return names


@pytest.mark.parametrize("module_name", all_modules())
def test_every_module_has_a_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), module_name


@pytest.mark.parametrize("module_name", all_modules())
def test_public_classes_and_functions_documented(module_name):
    module = importlib.import_module(module_name)
    undocumented = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module_name:
            continue  # re-export
        if not (obj.__doc__ and obj.__doc__.strip()):
            undocumented.append(name)
    assert not undocumented, f"{module_name}: {undocumented}"


def _unused_imports(path):
    """Names a module imports at top level and never uses: neither as an
    ``ast.Name`` (which is also every ``ast.Attribute`` chain's root)
    nor inside a string annotation."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif (isinstance(node, ast.ImportFrom)
              and node.module != "__future__"):
            imported.update(alias.asname or alias.name
                            for alias in node.names)
    used, annotations = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            annotations.append(node.annotation)
        elif isinstance(node, ast.FunctionDef) and node.returns:
            annotations.append(node.returns)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(name.id for name in ast.walk(
                    ast.parse(node.value, mode="eval"))
                    if isinstance(name, ast.Name))
    return sorted(imported - used)


def test_no_module_imports_a_name_it_never_uses():
    package_dir = pathlib.Path(repro.__file__).parent
    unused = {}
    for path in sorted(package_dir.rglob("*.py")):
        names = [] if path.name == "__init__.py" else _unused_imports(path)
        if names:
            unused[str(path.relative_to(package_dir))] = names
    assert not unused, unused


class TestRepoDocs:
    def test_required_documents_exist(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
            assert (REPO_ROOT / name).is_file(), name

    def test_design_indexes_every_figure(self):
        text = (REPO_ROOT / "DESIGN.md").read_text()
        for anchor in ("Figure 6", "Figure 7", "Figure 8", "Table 1"):
            assert anchor in text

    def test_experiments_records_every_claim(self):
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text()
        for anchor in ("Figure 6", "Figure 7", "Figure 8", "Table 1",
                       "swaptions", "TSO", "oracle"):
            assert anchor in text

    def test_readme_quickstart_names_real_api(self):
        text = (REPO_ROOT / "README.md").read_text()
        for name in ("run_parallel_monitoring", "run_timesliced_monitoring",
                     "build_workload", "SimulationConfig"):
            assert name in text
            assert hasattr(repro, name)

    def test_design_module_map_points_at_real_packages(self):
        text = (REPO_ROOT / "DESIGN.md").read_text()
        packages = {path.parent.name for path in
                    (REPO_ROOT / "src" / "repro").glob("*/__init__.py")}
        module_map = text[text.index("## 3."):text.index("## 4.")]
        assert set(re.findall(r"`repro\.(\w+)`", module_map)) == packages
        # Every package DESIGN names anywhere must still exist.
        named = set(re.findall(r"`repro\.(\w+)", text))
        named |= set(re.findall(r"repro/(\w+)/", text))
        assert named <= packages, sorted(named - packages)
        for package in packages:
            importlib.import_module(f"repro.{package}")
