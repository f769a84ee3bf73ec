"""The fleet's compiled first-match kernel: ``fused.c``, built once per host
and opened with :mod:`ctypes`.

The paper's CPU row is a C loop — iterate, XOR, hash, compare. Around a
native digest the serving path pays one Python call, one ``bytes`` object
and one list append per candidate; :func:`load` moves the hash and the
compare of a whole rank range into one call (EXPERIMENTS.md, E-NATIVE).
Only the fleet's scan (:func:`repro.fleet.batcher.first_matches`) uses
it: the ``batch:`` reference engine and
:meth:`~repro.hashes.registry.HashAlgorithm.hash_seeds_batch` stay on
:mod:`repro.hashes.native`, so the equivalence tests set the two against
each other.

:func:`load` runs ``$CC`` (default ``cc``) in a subprocess and keeps the
library in a per-user cache file named by a digest of everything that
shapes the binary: the source, the flags, the compiler command, the
machine and the CPU's feature flags, since ``-march=native`` code runs
only on the CPU it was built for. The file ends with the SHA3-256 of what
precedes it, so that a truncated or damaged file is rebuilt instead of
mapped (``dlopen`` of a truncated library dies of ``SIGBUS``). Any
failure — no compiler, no private cache directory, a library whose
answers disagree with :mod:`repro.hashes.native` — returns ``None`` and
the caller hashes with ``hashlib``.

``ctypes``, not ``cffi``: opening a cached library (read, check,
``CDLL``, self-test) costs ≈ 2 ms and 0.22 MB of the process's peak
resident set, and the first build ≈ 0.19 s in the compiler's own
process; importing ``_cffi_backend`` alone raises the peak by 3.4 MB and
an in-process ``cffi`` build by 13 MB. ``ctypes`` releases the
interpreter lock for the call.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import platform
import shlex
import subprocess
import tempfile
from collections.abc import Callable
from pathlib import Path

import numpy as np

from repro.hashes import native

__all__ = ["Kernel", "describe", "library_path", "load"]

SOURCE = Path(__file__).with_name("fused.c")
#: SHA3-256 per core with gcc 12 on a Xeon: 2.3e6 H/s at plain ``-O3``,
#: 3.06e6 with ``-march=native``.
OPTIMIZE = ("-O3", "-march=native")
FLAGS = (*OPTIMIZE, "-shared", "-fPIC")

#: Registry name -> (C function, dtype and width of the target digest words).
_SCANS: dict[str, tuple[str, type[np.generic], int]] = {
    "sha1": ("sha1_first_match", np.uint32, 5),
    "sha3-256": ("sha3_first_match", np.uint64, 4),
}

_TRAILER = 32  # bytes of SHA3-256 after the library image


class Kernel:
    """The loaded library's first-match scans, one per compiled hash."""

    def __init__(self, library: ctypes.CDLL, command: list[str]):
        rows = np.ctypeslib.ndpointer(np.uint64, ndim=2, flags="C_CONTIGUOUS")
        self._scans: dict[str, Callable[..., int]] = {}
        for name, (symbol, dtype, width) in _SCANS.items():
            scan = getattr(library, symbol)
            target = np.ctypeslib.ndpointer(dtype, shape=(width,), flags="C_CONTIGUOUS")
            scan.argtypes = [rows, ctypes.c_size_t, target]
            scan.restype = ctypes.c_int64
            self._scans[name] = scan
        library.fused_compiler.restype = ctypes.c_char_p
        built_by = library.fused_compiler().decode()
        #: Hashes the kernel scans; any other hash stays on ``hashlib``.
        self.hashes = frozenset(self._scans)
        #: For records, e.g. ``cc -O3 -march=native (gcc 12.2.0)``.
        self.description = " ".join([*command, *OPTIMIZE]) + f" ({built_by})"
        self._library = library  # the scans' functions live in it

    def first_match(
        self, name: str, words: np.ndarray, target: np.ndarray
    ) -> int | None:
        """Lowest row of the ``(N, 4)`` uint64 seed words whose ``name``
        digest equals ``target`` (the registry's digest-word form); the C
        scan's ``-1`` for no match is ``None``."""
        if words.shape[1:] != (4,):
            raise ValueError("expected (N, 4) seed words")
        row = self._scans[name](words, words.shape[0], target)
        return None if row < 0 else int(row)


def _agrees_with_native(kernel: Kernel) -> bool:
    """Whether every scan finds what ``hashlib`` says is there."""
    words = np.arange(12, dtype=np.uint64).reshape(3, 4)
    return all(
        kernel.first_match(name, words, native.digest_batch(name, words)[1]) == 1
        for name in kernel.hashes
    )


def _cpu_flags() -> bytes:
    """The CPU's feature line from ``/proc/cpuinfo`` (empty elsewhere)."""
    try:
        with open("/proc/cpuinfo", "rb") as handle:
            for line in handle:
                if line.startswith((b"flags", b"Features")):
                    return line
    except OSError:
        pass
    return b""


def _cache_dir() -> Path | None:
    """A directory only this user can write: the user cache, else one
    under the system temp directory; ``None`` if neither will do."""
    home = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
    for directory in (
        Path(home) / "repro",
        Path(tempfile.gettempdir()) / f"repro-{os.getuid()}",
    ):
        try:
            directory.mkdir(mode=0o700, parents=True, exist_ok=True)
            status = directory.stat()
        except OSError:
            continue
        # Another user's (or a shared) directory could hand us their code.
        if (
            status.st_uid == os.getuid()
            and not status.st_mode & 0o022
            and os.access(directory, os.W_OK)
        ):
            return directory
    return None


def _command() -> list[str]:
    return shlex.split(os.environ.get("CC") or "cc")


def library_path() -> Path | None:
    """Where the library for this source, ``$CC`` and CPU is cached."""
    directory = _cache_dir()
    if directory is None:
        return None
    key = b"\0".join(
        [
            SOURCE.read_bytes(),
            " ".join(FLAGS).encode(),
            " ".join(_command()).encode(),
            platform.machine().encode(),
            _cpu_flags(),
        ]
    )
    return directory / f"fused-{native.sha3_256(key).hex()[:24]}.so"


def _open(path: Path) -> Kernel | None:
    """The kernel in ``path`` if the file is whole and its answers right."""
    try:
        image = path.read_bytes()
    except OSError:
        return None
    body, seal = image[:-_TRAILER], image[-_TRAILER:]
    if not body or native.sha3_256(body) != seal:
        return None
    try:
        kernel = Kernel(ctypes.CDLL(str(path)), _command())
    except (OSError, AttributeError):
        return None
    return kernel if _agrees_with_native(kernel) else None


def _build(path: Path) -> None:
    """Compile into a temp file beside ``path``, seal it, move it in place."""
    handle, temp = tempfile.mkstemp(dir=path.parent, suffix=".so")
    os.close(handle)
    try:
        subprocess.run(
            [*_command(), *FLAGS, "-o", temp, str(SOURCE)],
            check=True,
            capture_output=True,
            timeout=120,
        )
        seal = native.sha3_256(Path(temp).read_bytes())
        with open(temp, "ab") as library:
            library.write(seal)
        os.replace(temp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temp)


@functools.cache
def load() -> Kernel | None:
    """The compiled kernel, built on first use; ``None`` means ``hashlib``."""
    try:
        path = library_path()
        if path is None:
            return None
        kernel = _open(path)
        if kernel is None:
            _build(path)
            kernel = _open(path)
    except (OSError, ValueError, subprocess.SubprocessError):
        return None
    return kernel


def describe() -> str:
    """What the fleet's scan hashes with: the compiler line, or ``hashlib``."""
    kernel = load()
    return "hashlib" if kernel is None else kernel.description
