"""The fleet's compiled range scan: ``fused.c``, built once per host and
opened with :mod:`ctypes`.

The paper's CPU row is a C loop — unrank, iterate, XOR, hash, compare,
check the exit flag — run by every core at once (§4.3). Around a native
digest the serving path pays one Python call, one ``bytes`` object and
one list append per candidate; :func:`load` moves the walk, the hash and
the compare of a whole rank range into one call (EXPERIMENTS.md,
E-NATIVE and E-WALK), and that call spreads the range over the host's
cores: the calling thread and a process-wide pool of C helper threads
claim 512-row chunks of it, so no core waits on the interpreter lock
between ranges (E-POOL). Its SHA3-256 scan computes only what the
compare reads: eight candidates that differ in their last position are
built in the vector lanes, and the permutation's last round makes lane 0
alone unless it matches (E-LANES).
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
interpreter lock for the call. A scan's arguments are ints, two
``bytes`` (the seed and the digest, passed as pointers to their own
buffers) and the request's ``c_uint8`` stop byte (passed by reference):
no NumPy array crosses, since taking an array's address costs ≈ 3 µs
and the whole call ≈ 2.3 µs.
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
from pathlib import Path

from repro._bitutils import SEED_BITS, SEED_BYTES, flip_bits
from repro.combinatorics.algorithm515 import unrank_lexicographic
from repro.combinatorics.binomial import binomial
from repro.hashes import native
from repro.hashes.registry import get_hash

__all__ = ["Kernel", "describe", "library_path", "load"]

SOURCE = Path(__file__).with_name("fused.c")
#: SHA3-256 per core with gcc 12 on an AVX-512 Xeon: 1.5e7 H/s with
#: ``-march=native`` (an eight-lane word is one register), 2.3e6 built
#: for AVX2 (two), 2.3-2.4e6 at plain ``-O3`` (SSE2, four).
OPTIMIZE = ("-O3", "-march=native")
FLAGS = (*OPTIMIZE, "-shared", "-fPIC", "-pthread")

#: Registry name -> ``fused_scan``'s hash number (``HASH_SHA1``,
#: ``HASH_SHA3_256``); its digest is ``digest_size`` bytes.
_SCANS = {"sha1": 0, "sha3-256": 1}

_TRAILER = 32  # bytes of SHA3-256 after the library image


class Kernel:
    """The loaded library's range scans, one per compiled hash."""

    def __init__(self, library: ctypes.CDLL, command: list[str]):
        library.fused_scan.argtypes = [
            ctypes.c_int,
            ctypes.c_int,
            ctypes.c_uint64,
            ctypes.c_uint64,
            ctypes.c_char_p,
            ctypes.c_char_p,
            ctypes.POINTER(ctypes.c_uint8),
            ctypes.c_int,
        ]
        library.fused_scan.restype = ctypes.c_int64
        library.fused_unrank.argtypes = [
            ctypes.c_int,
            ctypes.c_uint64,
            ctypes.c_char_p,
            ctypes.c_char_p,
        ]
        library.fused_unrank.restype = None
        library.fused_pool_wake.restype = None
        self._scan = library.fused_scan
        self._unrank = library.fused_unrank
        self._digest_sizes = {name: get_hash(name).digest_size for name in _SCANS}
        library.fused_compiler.restype = ctypes.c_char_p
        built_by = library.fused_compiler().decode()
        #: Hashes the kernel scans; any other hash stays on ``hashlib``.
        self.hashes = frozenset(_SCANS)
        #: The deepest shell a scan walks (C(256, d) must fit an int64).
        self.max_distance: int = library.fused_max_distance()
        #: For records, e.g. ``cc -O3 -march=native (gcc 12.2.0)``.
        self.description = " ".join([*command, *OPTIMIZE]) + f" ({built_by})"
        self._library = library  # the scans' functions live in it

    def _check_shell(self, distance: int, lo: int, hi: int, seed: bytes) -> None:
        """Refuse a shell, a rank range or a seed the C walk would trust."""
        if not 0 <= distance <= self.max_distance:
            raise ValueError(f"distance {distance} outside 0..{self.max_distance}")
        if not 0 <= lo <= hi <= binomial(SEED_BITS, distance):
            raise ValueError(f"ranks [{lo}, {hi}) outside shell {distance}")
        if type(seed) is not bytes or len(seed) != SEED_BYTES:
            raise ValueError(f"seed must be {SEED_BYTES} bytes")

    def scan(
        self,
        name: str,
        distance: int,
        lo: int,
        hi: int,
        seed: bytes,
        digest: bytes,
        stop: ctypes.c_uint8,
        workers: int = 1,
    ) -> tuple[int | None, int]:
        """Ranks ``[lo, hi)`` of the ``distance`` shell around ``seed``,
        walked in lexicographic order: the row (from ``lo``) of the first
        candidate whose ``name`` digest is ``digest``, or ``None``, and
        the rows scanned — through the match, else ``hi - lo`` unless
        ``stop`` was set, which every scanning thread reads once per
        eight rows (then the rows they scanned in all).

        The calling thread scans with up to ``workers - 1`` of the pool's
        helpers, each claiming 512-row chunks; the lowest match wins. A
        range of one chunk, ``workers=1``, or a pool another call is
        using: the caller scans alone. Arguments are checked here, so
        nothing out of range reaches C."""
        self._check_shell(distance, lo, hi, seed)
        if type(digest) is not bytes or len(digest) != self._digest_sizes[name]:
            raise ValueError(f"{name} digests are {self._digest_sizes[name]} bytes")
        if type(stop) is not ctypes.c_uint8:
            raise ValueError("stop must be a ctypes.c_uint8")
        if workers < 1:
            raise ValueError("workers must be positive")
        row = self._scan(
            _SCANS[name], distance, lo, hi - lo, seed, digest, stop, workers
        )
        return (row, row + 1) if row >= 0 else (None, ~row)

    def unrank(self, seed: bytes, distance: int, rank: int) -> bytes:
        """The candidate at ``rank`` (lexicographic) of the ``distance``
        shell around ``seed``: what a scan's matching row is."""
        self._check_shell(distance, rank, rank + 1, seed)
        out = ctypes.create_string_buffer(SEED_BYTES)
        self._unrank(distance, rank, seed, out)
        return out.raw

    def wake(self) -> None:
        """Have the pool's idle helpers spin for the next scan (≈ 2 ms)
        instead of sleeping through its start."""
        self._library.fused_pool_wake()

    def helpers(self) -> int:
        """The pool's helper threads: one fewer than the cpuset's CPUs."""
        return int(self._library.fused_pool_helpers())

    def busy(self) -> bool:
        """Whether a pooled scan holds the pool right now."""
        return bool(self._library.fused_pool_busy())


def _agrees_with_native(kernel: Kernel) -> bool:
    """Whether every scan finds what ``hashlib`` says is there, and the
    unrank names it: a walk across a prefix of shell 3, in a lane of its
    first eight-row group (whose prefix moves on), of its second (built
    in the vector lanes) and of its short last group."""
    seed = bytes(range(SEED_BYTES))
    # Rank 253 is (0, 1, 255), rank 254 is (0, 2, 3) and rank 261 is
    # (0, 2, 10): rows 8-15 differ in their last position alone.
    lo, hi = 253, 272
    never = ctypes.c_uint8(0)
    for name in kernel.hashes:
        for row in (1, 9, 17):
            candidate = flip_bits(seed, unrank_lexicographic(SEED_BITS, 3, lo + row))
            if kernel.unrank(seed, 3, lo + row) != candidate:
                return False
            digest = native.digest(name, candidate)
            if kernel.scan(name, 3, lo, hi, seed, digest, never) != (row, row + 1):
                return False
    return True


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
