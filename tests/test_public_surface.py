"""Every name in a ``repro`` package's ``__all__`` resolves to its object.

Packages defer some re-exports (PEP 562), which has one trap: a deferred
name equal to a submodule's name is overwritten by the module object
once that submodule is imported.  The probe therefore resolves every
public name in a fresh interpreter twice — before anything else is
imported and after every module of the package tree has been — and
checks both times that the value is not a module and, unless the
package defines the name itself, is the object a submodule binds under
that name.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PROBE = """
import importlib, json, os, pkgutil, sys, types

def walk(path, prefix):  # (name, is package) of every module, importing none
    for info in pkgutil.iter_modules(path, prefix):
        yield info.name, info.ispkg
        if info.ispkg:
            subpath = os.path.join(path[0], info.name.rsplit(".", 1)[1])
            yield from walk([subpath], info.name + ".")

import repro
tree = [("repro", True), *walk(repro.__path__, "repro.")]
packages = [name for name, ispkg in tree if ispkg]
problems = []

def resolve():
    values = {}
    for package_name in packages:
        package = importlib.import_module(package_name)
        for name in package.__all__:
            value = getattr(package, name)
            if isinstance(value, types.ModuleType):
                problems.append(f"{package_name}.{name} is a module")
            values[package_name, name] = value
    return values

before = resolve()
for name, _ in tree:
    importlib.import_module(name)
after = resolve()
for (package_name, name), value in after.items():
    if before[package_name, name] is not value:
        problems.append(f"{package_name}.{name} changed once every submodule was imported")
    bound = [
        vars(module)[name]
        for module_name, module in list(sys.modules.items())
        if module_name.startswith(package_name + ".") and name in vars(module)
    ]
    if bound and not any(candidate is value for candidate in bound):
        problems.append(f"{package_name}.{name} is not what its submodules export")
print(json.dumps({"packages": len(packages), "names": len(after), "problems": problems}))
"""


def test_every_public_name_resolves_before_and_after_submodule_imports(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, cwd=str(tmp_path),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["problems"] == []
    assert report["packages"] >= 15 and report["names"] >= 200

