"""The benchmark definition-file subsystem: the ``.hanoi`` text format.

This package turns the reproduction from a fixed 28-benchmark suite into an
open tool: a data structure plus a specification, written in one text file,
becomes a :class:`~repro.core.module.ModuleDefinition` the whole inference
stack accepts.

* :mod:`repro.spec.loader` parses and validates ``.hanoi`` files;
* :mod:`repro.spec.export` renders any definition back to the format;
* :mod:`repro.spec.pack` loads directories of files as registered benchmark
  packs;
* :mod:`repro.spec.errors` defines the line-anchored
  :class:`~repro.spec.errors.SpecFileError` diagnostics.

The CLI front ends are ``repro infer <file.hanoi>``, ``repro export`` and the
``--pack DIR`` option of ``repro run`` / ``repro list``.
"""

from .common import SPEC_FILE_SUFFIX, module_filename
from .errors import SpecFileError
from .export import export_all, export_benchmark, render_module
from .loader import load_module_file, load_module_text
from .pack import Pack, load_pack, register_pack, unregister_pack

__all__ = [
    "SPEC_FILE_SUFFIX",
    "SpecFileError",
    "load_module_file",
    "load_module_text",
    "render_module",
    "export_benchmark",
    "export_all",
    "module_filename",
    "Pack",
    "load_pack",
    "register_pack",
    "unregister_pack",
]
