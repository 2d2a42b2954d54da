"""Whole-program project model for repro-lint.

Cross-module reasoning (RL004's call-graph traversal, RL005's re-export
chains, RL006's serialized surfaces) shares one picture of the
project:

* :class:`ModuleInfo` — one parsed module with its alias table (local
  name → dotted origin), import bindings (relative imports normalised)
  and top-level definitions;
* :class:`ProjectModel` — module-name → :class:`ModuleInfo` with
  on-demand loading from source roots and name resolution through
  re-export chains.

The model imports nothing from the analysed packages (stdlib ``ast``
only), preserving the engine's founding rule that linting can never be
distorted by the code under analysis.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

#: Package prefixes considered "project-internal" for name resolution.
PROJECT_PREFIXES: Tuple[str, ...] = ("repro", "tests")

#: Bound on re-export chain resolution (matches RL005's historic cap).
MAX_RESOLVE_HOPS = 6


def module_name(path: Path) -> str:
    """Dotted module name for ``path`` (``src`` layout aware)."""
    parts = list(path.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    for anchor in PROJECT_PREFIXES:
        if anchor in parts:
            parts = parts[parts.index(anchor):]
            break
    return ".".join(parts) if parts else path.stem


def source_root(path: Path) -> Optional[Path]:
    """The directory that dotted imports resolve against, if any."""
    resolved = path.resolve()
    for parent in resolved.parents:
        if parent.name == "repro":
            return parent.parent
    return None


def _is_project(module: str) -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in PROJECT_PREFIXES
    )


def resolve_relative(
    module: str, is_package: bool, node: ast.ImportFrom
) -> str:
    """Absolute module path of a (possibly relative) ``from`` import."""
    if node.level == 0:
        return node.module or ""
    parts = module.split(".")
    # level 1 inside a module drops the module name itself; each extra
    # level drops one more package.  __init__ modules already name the
    # package, which module_name normalised for us.
    drop = node.level - 1 if is_package else node.level
    if drop >= len(parts):
        return node.module or ""
    base = parts[: len(parts) - drop]
    if node.module:
        base.append(node.module)
    return ".".join(base)


@dataclass
class ModuleInfo:
    """One parsed source file plus the derived lookups rules need."""

    module: str
    path: Path
    source: str
    tree: ast.Module
    #: Local name → dotted origin, for every import form in the file.
    aliases: Dict[str, str] = field(default_factory=dict)
    #: Local name → (module, original name) for ``from m import n``.
    import_bindings: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    #: Top-level function definitions by name.
    functions: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    #: Top-level class definitions by name.
    classes: Dict[str, ast.ClassDef] = field(default_factory=dict)
    #: Top-level simple assignments (``NAME = <expr>``) by name.
    constants: Dict[str, ast.Assign] = field(default_factory=dict)

    @property
    def is_package(self) -> bool:
        return self.path.name == "__init__.py"

    @classmethod
    def parse(cls, path: Path) -> Optional["ModuleInfo"]:
        try:
            source = path.read_bytes().decode("utf-8")
            tree = ast.parse(source, filename=str(path))
        except (OSError, SyntaxError, UnicodeDecodeError):
            return None
        info = cls(
            module=module_name(path), path=path, source=source, tree=tree
        )
        info._index()
        return info

    def _index(self) -> None:
        is_package = self.is_package
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    origin = (
                        alias.name if alias.asname
                        else alias.name.split(".")[0]
                    )
                    self.aliases[local] = origin
            elif isinstance(node, ast.ImportFrom):
                base = resolve_relative(self.module, is_package, node)
                for alias in node.names:
                    local = alias.asname or alias.name
                    if base:
                        self.aliases[local] = f"{base}.{alias.name}"
                        self.import_bindings[local] = (base, alias.name)
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[node.name] = node  # type: ignore[assignment]
            elif isinstance(node, ast.ClassDef):
                self.classes[node.name] = node
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.constants[target.id] = node

    def dotted_path(self, node: ast.AST) -> Optional[str]:
        """Resolve an attribute chain to a dotted origin, if static.

        ``np.random.default_rng`` → ``numpy.random.default_rng`` when
        ``np`` aliases ``numpy``; ``None`` when the chain roots at a
        name this module never imported.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.aliases.get(node.id)
        if root is None:
            return None
        parts.append(root)
        return ".".join(reversed(parts))


class ProjectModel:
    """Module-name → :class:`ModuleInfo` with name-resolution queries.

    Two populations of modules live here: the *linted set* (added via
    :meth:`add`) and on-demand *dependencies* loaded from a source root
    when a rule follows an import outside the linted paths (so a lint
    of ``src/repro/pipeline`` can still traverse into
    ``repro.analysis``).
    """

    def __init__(self) -> None:
        self._by_module: Dict[str, ModuleInfo] = {}
        self._linted: Set[str] = set()
        self._roots: List[Path] = []
        self._unresolvable: Set[str] = set()

    # -- population ----------------------------------------------------

    def add_root(self, root: Path) -> None:
        if root not in self._roots:
            self._roots.append(root)
            self._unresolvable.clear()

    def add(self, info: ModuleInfo, *, linted: bool = True) -> None:
        self._by_module[info.module] = info
        if linted:
            self._linted.add(info.module)

    # -- lookups -------------------------------------------------------

    def get(self, module: str) -> Optional[ModuleInfo]:
        """The info for ``module``, loading it from a root if needed."""
        info = self._by_module.get(module)
        if info is not None:
            return info
        if module in self._unresolvable or not module:
            return None
        relative = Path(*module.split("."))
        for root in self._roots:
            for candidate in (
                root / relative.with_suffix(".py"),
                root / relative / "__init__.py",
            ):
                if candidate.is_file():
                    loaded = ModuleInfo.parse(candidate)
                    if loaded is not None:
                        # Anchor the dotted name the caller asked for,
                        # even if module_name would differ.
                        loaded.module = module
                        self.add(loaded, linted=False)
                        return loaded
        self._unresolvable.add(module)
        return None

    def linted_modules(self) -> List[ModuleInfo]:
        return [self._by_module[m] for m in sorted(self._linted)]

    # -- name resolution -----------------------------------------------

    def resolve_name(
        self, module: str, name: str
    ) -> Optional[Tuple[ModuleInfo, ast.AST]]:
        """Follow re-export chains to the defining module, if resolvable.

        Returns ``(owner, node)`` where ``node`` is a function/class
        definition or the assignment that binds a module-level constant.
        """
        info = self.get(module)
        for _hop in range(MAX_RESOLVE_HOPS):
            if info is None:
                return None
            node: Optional[ast.AST] = (
                info.functions.get(name)
                or info.classes.get(name)
                or info.constants.get(name)
            )
            if node is not None:
                return info, node
            target = info.import_bindings.get(name)
            if target is None or not _is_project(target[0]):
                return None
            info, name = self.get(target[0]), target[1]
        return None


def build_model(files: Sequence[Path]) -> ProjectModel:
    """Index ``files`` into a fresh :class:`ProjectModel`."""
    model = ProjectModel()
    for path in files:
        root = source_root(path)
        if root is not None:
            model.add_root(root)
        info = ModuleInfo.parse(path)
        if info is not None:
            model.add(info)
    return model

