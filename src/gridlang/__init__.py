"""Workbench for two-dimensional languages built from self-assembling tiles.

The package splits along the natural seams of the subject: `grid` holds
lattice words and contour geometry, `tiling` holds tile systems and
bounded language enumeration, `compose` holds contour-restricted word
composition, `expr` the expression DSL, `equations` the bounded
fixed-point solver, `interact` data-bearing scenario validation, and
`cli` the command-line front door.
"""

from importlib import import_module


def _exports(**by_module: str) -> dict:
    """{name: module} from each module's space-separated names."""
    return {name: module for module, names in by_module.items() for name in names.split()}


def _lazy(namespace: dict, exports: dict):
    """A module `__getattr__` (PEP 562) that imports each name of `exports`
    from its gridlang module on first lookup and keeps it in `namespace`,
    so that later lookups, and a value set over it, skip the hook."""

    def __getattr__(name: str):
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(f"gridlang.{module}"), name)
        return value

    return __getattr__


# The public names and the module defining each: `import gridlang` loads
# none of them, and `from gridlang import X` loads only X's module.
_EXPORTS = _exports(
    grid="Bounds Budget BudgetExhausted Element Selector Word contour corpus_text"
    " extreme_cells hv_components normalize render_ascii select translate word_sort_key",
    compose="Restriction compose_langs compose_words eval_restriction format_restriction"
    " parse_restriction star",
    tiling="LanguageDiff Nfa Scenario Tile TileSystem accepting count_language"
    " diff_against_language enumerate_language format_language_diff format_tile_system"
    " parse_tile_system parse_two_color project_to_nfa scenario_valid word_accepted",
    expr="EquationSystem Expr classify eval_expr format_expr format_system parse_expr"
    " parse_system",
    equations="Solution builtin_f02ac builtin_squares fixed_point_holds solve",
    interact="DataModule DataScenario ValidationReport builtin_protocol check_cell"
    " complete_scenario format_report format_scenario parse_module_library parse_scenario"
    " validate_scenario",
)
__all__ = sorted(_EXPORTS)
__getattr__ = _lazy(globals(), _EXPORTS)


def __dir__() -> list:
    return sorted(set(globals()) | set(_EXPORTS))
