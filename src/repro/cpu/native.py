"""Build and load the compiled core stages (``_kernel.c``).

The kernel is a CPython C-API extension built from this package's own
source, with the interpreter's own compiler and headers as ``sysconfig``
names them, the first time :mod:`repro.cpu` is imported.  The built file
lives in this package's ``__pycache__`` and is named by the SHA-256 of
the C source and the interpreter's extension suffix (``EXT_SUFFIX``), so
an edited source or another interpreter builds its own file and never
loads a stale one.  It is published through :mod:`repro.util.atomicio`,
so concurrent first imports are safe.  Loading a built file runs no
compiler and no subprocess.

Without a compiler, headers or write access, :func:`load` returns None
and the core runs its Python bodies, which are also the kernel's
reference (DESIGN.md §6).  No option chooses the path.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import os
import sys

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")
MODULE = "repro.cpu._kernel"

#: Why the last :func:`load` fell back to the Python bodies, or None.
failure: str | None = None


def built_path(source: bytes) -> str:
    """Where the kernel built from ``source`` lives."""
    digest = hashlib.sha256(source).hexdigest()[:16]
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    return os.path.join(
        os.path.dirname(SOURCE), "__pycache__", f"_kernel.{digest}{suffix}"
    )


def load():
    """The kernel module, built first if needed; None to run Python."""
    global failure
    failure = None
    try:
        with open(SOURCE, "rb") as fh:
            path = built_path(fh.read())
    except OSError as exc:
        failure = f"no kernel source: {exc}"
        return None
    if not os.path.exists(path) and not build(path):
        return None
    try:
        return _import(path)
    except ImportError as exc:
        failure = f"cannot load {path}: {exc}"
        return None


def build(path: str) -> bool:
    """Compile the kernel and publish it at ``path``; False on failure
    (the reason is in :data:`failure`)."""
    import subprocess
    import tempfile

    from repro.util import atomicio

    global failure
    try:
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, os.path.basename(path))
            _compile(command(out))
            with open(out, "rb") as fh:
                data = fh.read()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        atomicio.write_bytes(path, data)
    except subprocess.CalledProcessError as exc:
        stderr = (exc.stderr or b"").decode(errors="replace")
        failure = f"compiler failed: {stderr}"
        return False
    except (OSError, ValueError) as exc:
        failure = f"cannot build the kernel: {exc}"
        return False
    return True


def command(out: str) -> list[str]:
    """The compiler command line that builds the kernel into ``out``: the
    interpreter's shared-object link command, position-independent code
    and compile flags, and its header directories."""
    import shlex
    import sysconfig

    config = sysconfig.get_config_vars()
    link = config.get("LDSHARED")
    if not link:
        raise ValueError("the interpreter names no shared-object linker")
    paths = sysconfig.get_paths()
    return [
        *shlex.split(link),
        *shlex.split(config.get("CCSHARED") or ""),
        *shlex.split(config.get("CFLAGS") or ""),
        f"-I{paths['include']}",
        f"-I{paths['platinclude']}",
        SOURCE,
        "-o",
        out,
    ]


def _compile(argv: list[str]) -> None:
    """Run the compiler; raises CalledProcessError or OSError on failure."""
    import subprocess

    subprocess.run(
        argv, check=True, stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )


def _import(path: str):
    loader = importlib.machinery.ExtensionFileLoader(MODULE, path)
    spec = importlib.machinery.ModuleSpec(MODULE, loader, origin=path)
    module = loader.create_module(spec)
    loader.exec_module(module)
    sys.modules[MODULE] = module
    return module
