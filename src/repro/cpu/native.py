"""Build and load the compiled kernels: the core's per-cycle stages
(``cpu/_kernel.c``), the cache hierarchy's per-access path
(``cache/_kernel.c``), the event queue (``sim/_kernel.c``) and the DRAM
controller's per-edge path (``dram/_kernel.c``).

Each kernel is a CPython C-API extension built from its package's own
source, with the interpreter's own compiler and headers as ``sysconfig``
names them, the first time its package is imported.  The built file
lives in that package's ``__pycache__`` and is named by the SHA-256 of
the C source and the interpreter's extension suffix (``EXT_SUFFIX``), so
an edited source or another interpreter builds its own file and never
loads a stale one.  It is published through :mod:`repro.util.atomicio`,
so concurrent first imports are safe; a successful build then deletes
the same kernel's files built from other sources for this interpreter.
Loading a built file runs no compiler and no subprocess.

Without a compiler, headers or write access, :meth:`Kernel.load` returns
None and the package runs its Python bodies, which are also the
kernel's reference (DESIGN.md §6).  No option chooses the path.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import os
import re
import sys

_PACKAGES = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Kernel:
    """One compiled kernel: its C source, its module name and the
    directory its builds go to (the source package's ``__pycache__``)."""

    def __init__(self, source: str, module: str):
        self.source = source
        self.module = module
        self.build_dir = os.path.join(os.path.dirname(source), "__pycache__")
        #: Why the last :meth:`load` fell back to the Python bodies, or None.
        self.failure: str | None = None

    @property
    def stem(self) -> str:
        return os.path.splitext(os.path.basename(self.source))[0]

    def built_path(self, code: bytes) -> str:
        """Where the kernel built from the C source ``code`` lives."""
        digest = hashlib.sha256(code).hexdigest()[:16]
        return os.path.join(self.build_dir, f"{self.stem}.{digest}{_suffix()}")

    def load(self):
        """The kernel module, built first if needed; None to run Python."""
        self.failure = None
        try:
            with open(self.source, "rb") as fh:
                path = self.built_path(fh.read())
        except OSError as exc:
            self.failure = f"no kernel source: {exc}"
            return None
        exists = os.path.exists
        for attempt in range(2):
            if not exists(path) and not self.build(path):
                return None
            try:
                return _import(self.module, path)
            except ImportError as exc:
                # A build of another source may have pruned the file
                # between the check and the import: build it again.
                if attempt or exists(path):
                    self.failure = f"cannot load {path}: {exc}"
                    return None
        return None  # unreachable: the second attempt returns

    def build(self, path: str) -> bool:
        """Compile the kernel and publish it at ``path``; False on failure
        (the reason is in :attr:`failure`)."""
        import subprocess
        import tempfile

        from repro.util import atomicio

        try:
            with tempfile.TemporaryDirectory() as tmp:
                out = os.path.join(tmp, os.path.basename(path))
                _compile(self.command(out))
                with open(out, "rb") as fh:
                    data = fh.read()
            os.makedirs(os.path.dirname(path), exist_ok=True)
            atomicio.write_bytes(path, data)
        except subprocess.CalledProcessError as exc:
            stderr = (exc.stderr or b"").decode(errors="replace")
            self.failure = f"compiler failed: {stderr}"
            return False
        except (OSError, ValueError) as exc:
            self.failure = f"cannot build the kernel: {exc}"
            return False
        self._prune(path)
        return True

    def _prune(self, path: str) -> None:
        """Delete this kernel's builds of other sources for this
        interpreter; other interpreters' builds stay."""
        directory, keep = os.path.split(path)
        superseded = re.compile(
            re.escape(self.stem) + r"\.[0-9a-f]{16}" + re.escape(_suffix())
        )
        try:
            names = os.listdir(directory)
        except OSError:
            return
        for name in names:
            if name != keep and superseded.fullmatch(name):
                try:
                    os.unlink(os.path.join(directory, name))
                except OSError:  # repro-lint: disable=EXC002 pruned by another build, or not ours to delete
                    pass

    def command(self, out: str) -> list[str]:
        """The compiler command line that builds the kernel into ``out``:
        the interpreter's shared-object link command, position-independent
        code and compile flags, and its header directories."""
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
            self.source,
            "-o",
            out,
        ]


#: The core's per-cycle stages (:mod:`repro.cpu.core`).
CPU = Kernel(os.path.join(_PACKAGES, "cpu", "_kernel.c"), "repro.cpu._kernel")
#: The cache hierarchy's per-access path (:mod:`repro.cache.hierarchy`).
CACHE = Kernel(
    os.path.join(_PACKAGES, "cache", "_kernel.c"), "repro.cache._kernel"
)
#: The event queue (:mod:`repro.sim.events`).
EVENTS = Kernel(
    os.path.join(_PACKAGES, "sim", "_kernel.c"), "repro.sim._kernel"
)
#: The DRAM controller's per-edge path (:mod:`repro.dram.controller`).
DRAM = Kernel(
    os.path.join(_PACKAGES, "dram", "_kernel.c"), "repro.dram._kernel"
)


def _suffix() -> str:
    return importlib.machinery.EXTENSION_SUFFIXES[0]


def _compile(argv: list[str]) -> None:
    """Run the compiler; raises CalledProcessError or OSError on failure."""
    import subprocess

    subprocess.run(
        argv, check=True, stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )


def _import(module_name: str, path: str):
    loader = importlib.machinery.ExtensionFileLoader(module_name, path)
    spec = importlib.machinery.ModuleSpec(module_name, loader, origin=path)
    module = loader.create_module(spec)
    loader.exec_module(module)
    sys.modules[module_name] = module
    return module
