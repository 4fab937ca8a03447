#!/usr/bin/env python
"""Documentation lint: the docs may only promise what the code delivers.

Run from the repo root (``scripts/smoke.sh`` does)::

    PYTHONPATH=src python scripts/check_docs.py

Eight checks, all hard failures:

1. **Docstring coverage** — every public module under ``repro`` and every
   public top-level class/function in it carries a docstring (100%, no
   budget).
2. **Metric names** — every ``family.name`` metric token mentioned in
   ``docs/`` and ``README.md`` exists in code: either registered in the
   live metrics registry after importing every module, or present as a
   string literal in ``src/`` (covers metrics minted at runtime, e.g.
   per-oracle-kind breakdowns).
3. **CLI flags** — every ``--flag`` mentioned in the docs is accepted by
   the ``repro-sectors`` parser tree (any subcommand) or the repository
   benchmark's ``perfbench/run.py`` parser.
4. **Relative links** — every relative markdown link target exists on
   disk.
5. **Registry coverage** — every solver registered in the engine
   (:func:`repro.engine.specs`) is mentioned by name (as a ``code
   span``) in ``docs/ENGINE.md``, so the solver table there can never
   silently fall behind the registry.
6. **Wire ops** — every service wire op named in ``docs/SERVICE.md`` or
   ``docs/ONLINE.md`` is dispatched by the protocol handler in
   ``src/repro/service/server.py``, so the documented wire surface can
   never promise an op the server would answer with "unknown op".
7. **Constraint kinds** — every constraint kind registered in
   ``repro.model.constraints.CONSTRAINT_KINDS`` is documented (as a
   ``code span``) in ``docs/SCENARIOS.md``, so the constraint grammar
   there can never silently fall behind the wire registry.
8. **Unused imports** — no module-level import in ``src/``, ``tests/`` or
   ``scripts/`` goes unused (ruff's F401, re-checked with the stdlib
   ``ast`` so the contract holds where ruff is not installed; package
   ``__init__.py`` files re-export and are skipped, as in the
   ``per-file-ignores`` of ``pyproject.toml``).

Exit code 0 when clean; 1 with one line per violation otherwise.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import pkgutil
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DOC_FILES = sorted((ROOT / "docs").glob("*.md")) + [ROOT / "README.md"]

#: Metric families whose dotted names the docs must only mention if real.
METRIC_PREFIXES = {
    "oracle", "fptas", "sweep", "rotation", "solver", "phase", "lp",
    "engine", "resilience", "chaos", "parallel", "service",
}

#: Doc flags with no argparse home (pytest plugins, external tools).
FLAG_ALLOWLIST = {"--benchmark-only"}


def iter_public_modules():
    """Yield (name, module) for repro and every public submodule."""
    import repro

    yield "repro", repro
    prefix = "repro."
    for info in pkgutil.walk_packages(repro.__path__, prefix):
        if any(part.startswith("_") for part in info.name.split(".")):
            continue
        yield info.name, importlib.import_module(info.name)


def check_docstrings(problems: list) -> int:
    """Enforce 100% docstring coverage on the public surface; returns it."""
    total = 0
    for name, module in iter_public_modules():
        total += 1
        if not (module.__doc__ or "").strip():
            problems.append(f"docstring: module {name} has no docstring")
        public = getattr(module, "__all__", None)
        for attr in dir(module):
            if attr.startswith("_"):
                continue
            obj = getattr(module, attr)
            if getattr(obj, "__module__", None) != name:
                continue  # re-export; charged to its home module
            if not (isinstance(obj, type) or callable(obj)):
                continue
            if public is not None and attr not in public:
                continue
            total += 1
            if not (getattr(obj, "__doc__", None) or "").strip():
                problems.append(f"docstring: {name}.{attr} has no docstring")
    return total


_METRIC_TOKEN = re.compile(r"`([a-z_]+(?:\.[a-z0-9_]+)+)`")


def known_metric_names() -> set:
    """Ground truth: live registry names + every string literal in src."""
    from repro.obs import get_registry

    names = set(get_registry().snapshot())
    for path in SRC.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def check_metric_names(problems: list) -> int:
    """Every doc token that looks like a metric must exist in code."""
    known = known_metric_names()
    checked = 0
    for doc in DOC_FILES:
        for token in _METRIC_TOKEN.findall(doc.read_text(encoding="utf-8")):
            family = token.split(".", 1)[0]
            if family not in METRIC_PREFIXES:
                continue  # dotted code reference (repro.engine etc.), not a metric
            if "<" in token or "*" in token:
                continue  # pattern rows like oracle.calls.<kind>
            checked += 1
            if token not in known:
                problems.append(
                    f"metric: {doc.name} mentions `{token}` "
                    f"but no such metric exists in src/"
                )
    return checked


def known_cli_flags() -> set:
    """Every option string across the repro CLI tree + perfbench/run.py."""
    from repro.cli import build_parser

    flags = set(FLAG_ALLOWLIST)

    def walk(parser: argparse.ArgumentParser) -> None:
        for action in parser._actions:  # noqa: SLF001 - argparse has no public walk
            flags.update(o for o in action.option_strings if o.startswith("--"))
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    walk(sub)

    walk(build_parser())
    script = ROOT / "perfbench" / "run.py"
    for match in re.findall(r"add_argument\(\s*[\"'](--[\w-]+)",
                            script.read_text(encoding="utf-8")):
        flags.add(match)
    return flags


_FLAG_TOKEN = re.compile(r"(--[a-z][\w-]+)")


def check_cli_flags(problems: list) -> int:
    """Every --flag mentioned in the docs must be a real option."""
    known = known_cli_flags()
    checked = 0
    for doc in DOC_FILES:
        for flag in set(_FLAG_TOKEN.findall(doc.read_text(encoding="utf-8"))):
            checked += 1
            if flag not in known:
                problems.append(
                    f"cli-flag: {doc.name} mentions {flag} "
                    f"but no parser accepts it"
                )
    return checked


_LINK = re.compile(r"\[[^\]]*\]\(([^)#\s]+)(?:#[^)]*)?\)")


def check_links(problems: list) -> int:
    """Every relative markdown link target must exist on disk."""
    checked = 0
    for doc in DOC_FILES:
        for target in _LINK.findall(doc.read_text(encoding="utf-8")):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            checked += 1
            if not (doc.parent / target).exists():
                problems.append(f"link: {doc.name} -> {target} does not exist")
    return checked


def check_registry_docs(problems: list) -> int:
    """Every registered solver must appear as a code span in ENGINE.md."""
    from repro.engine import FAMILIES, specs

    engine_md = ROOT / "docs" / "ENGINE.md"
    text = engine_md.read_text(encoding="utf-8")
    checked = 0
    for family in FAMILIES:
        for spec in specs(family):
            checked += 1
            # Substring test rather than backtick-pair parsing: the code
            # fences in ENGINE.md would desync a pairing regex.
            if f"`{spec.name}`" not in text:
                problems.append(
                    f"registry: {family}/{spec.name} is registered but "
                    f"`{spec.name}` never appears in docs/ENGINE.md"
                )
    return checked


_OP_CELL = re.compile(r"^\|\s*`([a-z_]+)`")


def known_wire_ops() -> set:
    """Ground truth: op names the server's dispatch chain actually handles."""
    server = (SRC / "repro" / "service" / "server.py").read_text(
        encoding="utf-8"
    )
    ops = set(re.findall(r'op == "([a-z_]+)"', server))
    default = re.search(r'\.get\("op",\s*"([a-z_]+)"\)', server)
    if default:
        ops.add(default.group(1))
    return ops


def check_wire_ops(problems: list) -> int:
    """Every op named in the wire-op tables must be dispatched by the server.

    An "op table" is any markdown table in docs/SERVICE.md or
    docs/ONLINE.md whose first header cell is ``op``; the first-column
    code spans of its rows are the documented op names.
    """
    known = known_wire_ops()
    checked = 0
    for name in ("SERVICE.md", "ONLINE.md"):
        doc = ROOT / "docs" / name
        if not doc.exists():
            continue
        in_op_table = False
        for line in doc.read_text(encoding="utf-8").splitlines():
            if not line.startswith("|"):
                in_op_table = False
                continue
            first_cell = line.split("|")[1].strip() if "|" in line[1:] else ""
            if first_cell == "op":
                in_op_table = True
                continue
            if not in_op_table:
                continue
            match = _OP_CELL.match(line)
            if not match:
                continue
            checked += 1
            if match.group(1) not in known:
                problems.append(
                    f"wire-op: docs/{name} documents op `{match.group(1)}` "
                    f"but the server never dispatches it"
                )
    return checked


def check_constraint_docs(problems: list) -> int:
    """Every registered constraint kind must appear in SCENARIOS.md."""
    from repro.model.constraints import CONSTRAINT_KINDS

    scenarios_md = ROOT / "docs" / "SCENARIOS.md"
    if not scenarios_md.exists():
        problems.append("constraint: docs/SCENARIOS.md does not exist")
        return 0
    text = scenarios_md.read_text(encoding="utf-8")
    checked = 0
    for kind in CONSTRAINT_KINDS:
        checked += 1
        if f"`{kind}`" not in text:
            problems.append(
                f"constraint: kind {kind!r} is registered but `{kind}` "
                f"never appears in docs/SCENARIOS.md"
            )
    return checked


def _annotation_names(node: ast.AST) -> set:
    """Names used inside an annotation, including quoted (string) ones."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _annotation_names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def _used_names(tree: ast.Module) -> set:
    """Every name a module reads: loads, annotation strings, ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)
              and isinstance(node.value, (ast.List, ast.Tuple))):
            used.update(e.value for e in node.value.elts
                        if isinstance(e, ast.Constant))
    return used


def _module_imports(tree: ast.Module):
    """Yield ``(bound_name, lineno)`` for each module-level import."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.If, ast.Try)):
            stack.extend(node.body + node.orelse)
            stack.extend(getattr(node, "finalbody", []))
            for handler in getattr(node, "handlers", []):
                stack.extend(handler.body)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".", 1)[0]
                yield name, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def check_unused_imports(problems: list) -> int:
    """Every module-level import outside ``__init__.py`` must be used."""
    checked = 0
    for top in ("src", "tests", "scripts"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            text = path.read_text(encoding="utf-8")
            tree = ast.parse(text)
            lines = text.splitlines()
            used = _used_names(tree)
            for name, lineno in _module_imports(tree):
                checked += 1
                if name in used or "noqa" in lines[lineno - 1]:
                    continue
                problems.append(
                    f"import: {path.relative_to(ROOT)}:{lineno} imports "
                    f"{name!r} but never uses it"
                )
    return checked


def main() -> int:
    problems: list = []
    symbols = check_docstrings(problems)
    metrics = check_metric_names(problems)
    flags = check_cli_flags(problems)
    links = check_links(problems)
    solvers = check_registry_docs(problems)
    ops = check_wire_ops(problems)
    kinds = check_constraint_docs(problems)
    imports = check_unused_imports(problems)
    for p in problems:
        print(p, file=sys.stderr)
    print(
        f"check_docs: {symbols} public symbols, {metrics} metric mentions, "
        f"{flags} flag mentions, {links} links checked, "
        f"{solvers} registered solvers checked, {ops} wire ops checked, "
        f"{kinds} constraint kinds checked, {imports} imports checked, "
        f"{len(problems)} problem(s)"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
