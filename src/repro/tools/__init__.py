"""PDT static analysis utilities (paper Table 2).

========  ====================================================================
pdbconv   converts files in the compact PDB format into a more readable
          format (and validates them)
pdbhtml   automatically creates web-based documentation that enables
          navigation of code via HTML links
pdbmerge  merges PDB files from separate compilations into one PDB file,
          eliminating duplicate template instantiations in the process
pdbtree   displays file inclusion, class hierarchy, and call graph trees
========  ====================================================================

Plus ``cxxparse``, the front-end driver (source files -> PDB), which in
the real PDT distribution is the EDG front end + IL Analyzer pipeline.
Each module exposes both a library function and a CLI ``main()``.
"""

import importlib

#: re-exported name -> the tool module defining it.  Imported on first
#: access (module ``__getattr__``), so ``python -m repro.tools.<tool>``
#: does not find its module already imported by this package
_EXPORTS = {
    "convert_pdb": "pdbconv",
    "generate_html": "pdbhtml",
    "merge_pdbs": "pdbmerge",
    "print_func_tree": "pdbtree",
    "render_call_tree": "pdbtree",
    "render_class_tree": "pdbtree",
    "render_inclusion_tree": "pdbtree",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
