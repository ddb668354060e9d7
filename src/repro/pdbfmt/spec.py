"""PDB item types, prefixes, and attribute schemas — paper Table 1 as data.

=============  =======  =====================================================
Item type      Prefix   Attributes
=============  =======  =====================================================
SOURCE FILES   so       sinc (files included by source file), ssys
ROUTINES       ro       rloc, rclass/rnspace (parent), racs, rsig, rlink,
                        rstore, rvirt, rkind, rtempl (template from which
                        instantiated), rcall (functions called), rinline,
                        rstatic, rspecl, rpos
CLASSES        cl       cloc, ckind, ctempl, cnspace/cclass, cacs, cbase
                        (direct base classes), cfriend/cfrfunc (friends),
                        cfunc (member functions), cmem + cmloc/cmacs/cmkind/
                        cmtype (other members), cspecl, cpos
TYPES          ty       ykind, yikind, yref, ytref, yptr, yelem, ysize,
                        yrett, yargt, yellip, yqual, yexcep, yename/yeval
TEMPLATES      te       tloc, tnspace/tclass (parent), tacs, tkind,
                        ttext (text of template), tpos
NAMESPACES     na       nloc, nnspace, nmem (members), nalias, npos
MACROS         ma       maloc, makind, matext
FRONT ERRORS   ferr     ffile (file ref), floc, fsev, fkind, fmsg
=============  =======  =====================================================

``ferr`` records are this reproduction's extension for fault-tolerant
builds: a translation unit whose front end recovered from user-source
errors still contributes its IL, and each recorded diagnostic becomes a
``ferr`` item so tools can display "this file failed with these errors"
instead of choking (docs/FORMAT.md, "Frontend error records").

The header record ``<PDB 1.0>`` opens every file.  All items carry a
source position; "fat" items (routines, classes, templates, namespaces)
additionally carry header/body extents (the ``*pos`` attributes).

The attribute value grammars used by the reader/writer:

``ref``    — an item reference, ``so#6`` / ``NULL``
``loc``    — ``so#6 12 9`` (file ref, line, column); NULL file = unknown
``pos``    — two locations: header begin/end, then two more: body
``text``   — the rest of the line, verbatim
``words``  — whitespace-separated tokens
"""

from __future__ import annotations

PDB_VERSION = "1.0"

#: prefix -> human name (Table 1, "Item Type" column)
ITEM_TYPES: dict[str, str] = {
    "so": "SOURCE FILES",
    "ro": "ROUTINES",
    "cl": "CLASSES",
    "ty": "TYPES",
    "te": "TEMPLATES",
    "na": "NAMESPACES",
    "ma": "MACROS",
    "ferr": "FRONTEND ERRORS",
}

#: attribute key -> value grammar, per item prefix.
#: grammar in {"ref", "loc", "pos", "text", "words"}
ATTRIBUTE_SCHEMAS: dict[str, dict[str, str]] = {
    "so": {
        "sinc": "ref",    # a file this file directly includes
        "ssys": "words",  # "yes" for system (angle-include) files
    },
    "ro": {
        "rloc": "loc",     # location of the routine name
        "rclass": "ref",   # parent class (cl#)
        "rnspace": "ref",  # parent namespace (na#)
        "racs": "words",   # pub | prot | priv | NA
        "rsig": "ref",     # signature (ty# of function type)
        "rlink": "words",  # C++ | C | fortran ...
        "rstore": "words", # NA | static | extern
        "rvirt": "words",  # no | virt | pure
        "rkind": "words",  # func | memfunc | ctor | dtor | op | conv
        "rtempl": "ref",   # template from which instantiated (te#)
        "rarg": "words",   # parameter: type ref, name, D|- (has default)
        "ralias": "words",  # generic-interface alias names (Fortran 90)
        "rexit": "loc",    # routine exit point (Fortran instrumentation)
        "rfexec": "loc",   # first executable statement (Fortran entry)
        "rcall": "words",  # callee ref, virtual flag, call location
        "rinline": "words",
        "rstatic": "words",  # static member function: yes
        "rspecl": "words",   # explicit specialization: yes
        "rpos": "pos",
    },
    "cl": {
        "cloc": "loc",
        "ckind": "words",  # class | struct | union
        "ctempl": "ref",   # template from which instantiated
        "cnspace": "ref",
        "cclass": "ref",   # enclosing class for nested classes
        "cacs": "words",
        "cbase": "words",  # access, virtual flag, base class ref, loc
        "cfriend": "ref",  # friend class
        "cfrfunc": "ref",  # friend function
        "cfunc": "words",  # member function ref + its location
        "cmem": "text",    # data member name (followed by cm* details)
        "cmloc": "loc",
        "cmacs": "words",
        "cmkind": "words",  # var | svar | mut
        "cmtype": "ref",
        "cspecl": "words",  # explicit specialization: yes
        "cpos": "pos",
    },
    "ty": {
        "yloc": "loc",      # for named types (enums, typedefs)
        "ynspace": "ref",   # parent namespace
        "yclass": "ref",    # parent class
        "yacs": "words",    # access mode for member types
        "ykind": "words",   # bool/char/int/float/double/void/ptr/ref/tref/
                            # array/func/enum/typedef/wchar/unknown
        "yikind": "words",  # integer kind for builtins
        "yptr": "ref",      # pointee
        "yref": "ref",      # referenced type
        "ytref": "ref",     # qualified/aliased target
        "yelem": "ref",     # array element
        "ysize": "words",   # array extent
        "yrett": "ref",     # function return type
        "yargt": "words",   # function parameter type ref (+ F final marker)
        "yellip": "words",  # has ellipsis: yes
        "yqual": "words",   # const | volatile (function cv-quals too)
        "yexcep": "ref",    # exception class in a throw() spec
        "yename": "words",  # enumerator name + value
    },
    "te": {
        "tloc": "loc",
        "tnspace": "ref",
        "tclass": "ref",
        "tacs": "words",
        "tkind": "words",  # class | func | memfunc | statmem | memclass
        "ttext": "text",
        "tpos": "pos",
    },
    "na": {
        "nloc": "loc",
        "nnspace": "ref",  # parent namespace
        "nmem": "ref",     # one member item
        "nalias": "ref",   # alias target namespace
        "npos": "pos",
    },
    "ma": {
        "maloc": "loc",
        "makind": "words",  # def | undef
        "matext": "text",
    },
    "ferr": {
        "ffile": "ref",   # the file the diagnostic points into (so#)
        "floc": "loc",    # error position
        "fsev": "words",  # error | warning
        "fkind": "words", # parse | lex | include | limit (cascade bound)
        "fmsg": "text",   # the diagnostic message, verbatim
    },
}

#: attributes whose value embeds item references at fixed word positions
#: (used by pdbmerge id remapping): key -> indices of ref words.
EMBEDDED_REF_WORDS: dict[str, list[int]] = {
    "rcall": [0, 2],   # callee ref ... file ref of the location
    "cfunc": [0, 1],   # routine ref, file ref
    "cbase": [2, 3],   # access, virt, class ref, file ref
    "yargt": [0],
}
