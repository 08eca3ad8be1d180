"""Exception types shared across the package."""

from __future__ import annotations


class RecipeError(Exception):
    """Base class for all errors raised by recipegraph."""


class SchemaError(RecipeError):
    """A document does not match the expected JSON shape.

    ``path`` locates the offending element, e.g. ``recipes[3].arcs[0]``.
    """

    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason


class UnknownReferenceError(RecipeError):
    """A bundle element refers to a node or type that is not declared."""


class HierarchyError(RecipeError):
    """Base class for type-hierarchy load failures.

    The message starts with ``where``, the location of the hierarchy document.
    """


class CycleDetectedError(HierarchyError):
    def __init__(self, cycle: tuple[str, ...], where: str):
        super().__init__(f"{where}: hierarchy contains a cycle: " + " -> ".join(cycle))
        self.cycle = cycle


class MultipleRootsError(HierarchyError):
    def __init__(self, roots: tuple[str, ...], where: str):
        super().__init__(f"{where}: hierarchy has multiple parentless nodes: " + ", ".join(roots))
        self.roots = roots


class NoRootError(HierarchyError):
    pass


class DanglingEdgeError(HierarchyError):
    def __init__(self, child: str, parent: str, where: str):
        super().__init__(f"{where}: edge {child!r} -> {parent!r} points outside the hierarchy")
        self.child = child
        self.parent = parent


class DuplicateAliasError(HierarchyError):
    def __init__(self, alias: str, targets: tuple[str, ...], where: str):
        super().__init__(
            f"{where}: alias {alias!r} is claimed by more than one type: " + ", ".join(targets)
        )
        self.alias = alias
        self.targets = targets


class UnknownTypeError(RecipeError):
    def __init__(self, type_text: str, kind: str | None = None):
        where = f" in the {kind} hierarchy" if kind else ""
        super().__init__(f"unknown type {type_text!r}{where}")
        self.type_text = type_text
        self.kind = kind


class UnknownNodeError(RecipeError):
    def __init__(self, node: str):
        super().__init__(f"unknown node {node!r}")
        self.node = node


class KindConflictError(RecipeError):
    """The same node id is used as a comestible in one place and an action in another."""

    def __init__(self, nodes: tuple[str, ...]):
        super().__init__("node ids registered with both kinds: " + ", ".join(sorted(nodes)))
        self.nodes = nodes


class InvalidRecipeError(RecipeError):
    """A graph or typing failed validation; ``violations`` carries the details."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        lines = "; ".join(str(v) for v in self.violations)
        super().__init__(f"invalid recipe: {lines}")


class NotIsomorphicError(RecipeError):
    pass


class NotSubrecipeError(RecipeError):
    pass


class BudgetExceededError(RecipeError):
    """A bounded search ran out of its expansion budget before concluding."""

    def __init__(self, budget: int):
        super().__init__(f"search budget of {budget} expansions exceeded")
        self.budget = budget


class NoSolutionError(RecipeError):
    """The search space was exhausted and no solution exists in it."""


class ClosureLimitError(RecipeError):
    """Closure computation hit a size limit; ``partial`` holds what was found."""

    def __init__(self, message: str, partial):
        super().__init__(message)
        self.partial = frozenset(partial)


class RewriteFailureError(RecipeError):
    """Raised when a rewrite sequence cannot even be applied; wraps the failure value."""

    def __init__(self, failure):
        super().__init__(str(failure))
        self.failure = failure
