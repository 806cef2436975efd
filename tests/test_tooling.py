import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import superhilb


def _raises_assertion_error(node) -> bool:
    return (isinstance(node, ast.Raise) and node.exc is not None
            and any(isinstance(n, ast.Name) and n.id == "AssertionError"
                    for n in ast.walk(node.exc)))


def test_no_assert_statements_in_package():
    """Every check in the package must still run under python -O, which
    strips assert statements, and must raise a documented error of the
    package, never a bare AssertionError."""
    package = Path(superhilb.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert) or _raises_assertion_error(node)
    ]
    assert not found, found


def test_traced_methods_are_defined_on_their_classes():
    """perfbench/spans.py wraps each operator in its METHODS table by
    reading cls.__dict__[attr], so `perfbench/run.py --trace 1` installs
    only while each of them is defined on its class itself."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{layer}.{name}.{attr}"
        for layer, classes in spans.METHODS.items()
        for name, methods in classes.items()
        for attr in methods
        if attr not in vars(getattr(
            importlib.import_module(f"superhilb.{layer}"), name))
    ]
    assert spans.METHODS and not missing, missing


def test_benchmark_names_are_exported():
    """perfbench/workloads.py and perfbench/checks.py reach the package
    through `sh.<name>`, with sh the package once superhilb.cli is
    imported; a public function moved out of the package's namespace
    fails here rather than in the benchmark."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    names = {
        name
        for file in ("workloads.py", "checks.py")
        for name in re.findall(r"\bsh\.([A-Za-z_]\w*)",
                               (bench / file).read_text())
    }
    importlib.import_module("superhilb.cli")
    missing = sorted(name for name in names if not hasattr(superhilb, name))
    assert names and not missing, missing


def test_cli_import_loads_every_traced_layer():
    """`Tracer.install` in perfbench/spans.py indexes sys.modules by
    `superhilb.<layer>` for each name in its LAYERS, after the benchmark
    imports superhilb and superhilb.cli; a layer imported lazily would
    make `perfbench/run.py --trace 1` raise KeyError.  LAYERS is read as
    text, and the imports run in a fresh interpreter."""
    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    layers = next(
        ast.literal_eval(node.value)
        for node in ast.parse(spans.read_text()).body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "LAYERS"
                for t in node.targets)
    )
    src = str(Path(superhilb.__file__).resolve().parents[1])
    script = ("import json, sys, superhilb, superhilb.cli; "
              "print(json.dumps(sorted(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stdout))
    missing = [layer for layer in layers
               if f"superhilb.{layer}" not in loaded]
    assert layers and not missing, missing


def test_public_names_are_used_by_the_package():
    """Each public top-level function or class of the package is
    exported through an import in superhilb/__init__.py or named in
    package code outside its own definition, so code that only the tests
    call does not collect in the package."""
    package = Path(superhilb.__file__).resolve().parent
    defined, named = {}, set()
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            own = getattr(node, "name", None)
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not own.startswith("_")):
                defined[own] = f"{path.name}:{node.lineno}"
            named |= {
                sub.id if isinstance(sub, ast.Name)
                else sub.attr if isinstance(sub, ast.Attribute)
                else sub.name
                for sub in ast.walk(node)
                if isinstance(sub, (ast.Name, ast.Attribute, ast.alias))
            } - {own}
    unused = sorted(f"{where} {name}" for name, where in defined.items()
                    if name not in named)
    assert defined and not unused, unused


def _message_sites(raisers: dict):
    """(site, error, parts) for each call in the package to a callee of
    raisers, {callee: the error it raises}.  A site is "file:line", and
    the parts are those of the call's last argument: a literal's text, or
    an f-string's literal parts."""
    package = Path(superhilb.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            func = getattr(node, "func", None)
            error = raisers.get(getattr(func, "id", getattr(func, "attr",
                                                            None)))
            if error is None:
                continue
            what = node.args[-1]
            parts = ([part.value for part in what.values
                      if isinstance(part, ast.Constant)]
                     if isinstance(what, ast.JoinedStr) else [what.value])
            yield f"{path.name}:{node.lineno}", error, parts


def _untested_messages(raisers: dict) -> tuple:
    """(sites, untested) over the `_message_sites` of raisers, each as
    "file:line parts".  A site is untested unless its message has text
    and one test module that names its error holds every part of it in
    its string literals, adjacent literals joined."""
    tests = Path(__file__).resolve().parent
    texts = []
    for path in sorted(tests.glob("test_*.py")):
        text = path.read_text()
        texts.append((text, "\n".join(
            node.value for node in ast.walk(ast.parse(text, str(path)))
            if isinstance(node, ast.Constant) and isinstance(node.value, str))))
    sites, untested = [], []
    for where, error, parts in _message_sites(raisers):
        site = f"{where} {parts!r}"
        sites.append(site)
        if not any(parts) or not any(
                error in text and all(part in literals for part in parts)
                for text, literals in texts):
            untested.append(site)
    return sites, untested


def test_every_certificate_has_a_test_that_fires_it():
    """Each certificate's message appears in a test module that names
    CertificateError, so every `_certify` site has a test that makes it
    fail; a site no test can make fail is implied by the code before
    it."""
    sites, unfired = _untested_messages({"_certify": "CertificateError"})
    assert sites and not unfired, unfired


def test_certificate_messages_are_distinct():
    """No two `_certify` sites share the literal parts of their message,
    so the message a test asserts names one certificate, and each
    certificate maps to exactly one test that fires it."""
    seen = {}
    for where, _, parts in _message_sites({"_certify": "CertificateError"}):
        seen.setdefault(tuple(parts), []).append(where)
    shared = [sites for sites in seen.values() if len(sites) > 1]
    assert seen and not shared, shared


def test_every_guard_has_a_test_that_raises_it():
    """Each NotCanonicalizable, HigherOrderTerms and ChartMismatch message
    appears in a test module that names its error, so every check of a
    family's, a system's or an atlas's shape has a test that makes it
    raise."""
    sites, unraised = _untested_messages(
        {"NotCanonicalizable": "NotCanonicalizable",
         "HigherOrderTerms": "HigherOrderTerms",
         "ChartMismatch": "ChartMismatch"})
    assert sites and not unraised, unraised
