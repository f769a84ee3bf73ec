"""The CA's encrypted PUF-image database.

The threat model stores every client's enrollment image (reference bits,
ternary mask, instability estimates) in an encrypted database inside the
secure CA. Records are serialized and encrypted with the from-scratch
AES-128 in CTR mode under a database master key; each record uses a
per-record nonce derived from the client identifier *and a per-record
version counter*, so re-enrolling a client never reuses a keystream
(CTR nonce reuse would hand an attacker the XOR of the two plaintexts).

Version 0 keeps the historical identifier-only nonce, so databases saved
before versioning existed still decrypt.

A record's plaintext is a fixed little-endian layout, ordered so that
what both protocol legs read comes first (``n`` cells, ``p = ceil(n/8)``):

======================  ==========  ====================================
offset                  bytes       field
======================  ==========  ====================================
0                       4           magic ``93 50 55 46`` (no JSON
                                    document and no UTF-8 text opens so)
4                       8           ``address``, u64
12                      4           ``n``, u32
16                      ``p``       ``usable``, packed MSB first
16 + ``p``              ``p``       ``reference``, packed MSB first
16 + 2 ``p``            8 ``n``     ``instability``, float64
======================  ==========  ====================================

The deployed 2 048-cell image is 16 912 bytes, and its leading 528 —
33 cipher blocks — hold everything a handshake or a digest leg reads.
CTR is seekable, so the one read path,
:meth:`EncryptedImageDatabase.decrypt_record` (a :meth:`lookup` is that
on the stored record), decrypts exactly that leading span in one
:meth:`repro.keygen.aes.AES128.ctr_transform` call (≈ 0.2 ms; the cell
count follows from the ciphertext length, the header confirms it) and
leaves ``instability`` as ciphertext until something reads the
attribute: the same keystream under the same ``(client, version)``
nonce, fewer blocks of it. Nothing decrypted is kept by the store: each
look-up decrypts the stored ciphertext again.

Records written before this layout are JSON text (the plaintext opens
with ``{``); the decrypted magic picks the decoder per record, so
snapshots, WAL segments, checkpoints and replica transfers written by
any earlier version of this module stay readable and one store may hold
both kinds. **A stored record is never re-encoded in place**: the same
nonce over a different plaintext is exactly the keystream reuse the
tripwire exists to refuse, so a JSON record becomes binary only when its
client next enrolls — under the next version.

This is a reproduction-grade container — it demonstrates the protocol's
data flow (enrollment writes, validation reads, nothing is ever decrypted
outside the CA), not hardened storage.
"""

from __future__ import annotations

import json
import os
import pathlib
import struct

import numpy as np

from repro.hashes.native import sha3_256
from repro.keygen.aes import AES128
from repro.puf.ternary import TernaryMask

__all__ = ["EncryptedImageDatabase", "NonceReuseError"]

#: On-disk / snapshot format tags. v1 predates record versioning.
_FORMAT_V1 = "repro-image-db/1"
_FORMAT_V2 = "repro-image-db/2"

#: Record plaintext header: magic, ``address``, cell count.
_HEADER = struct.Struct("<4sQI")
_MAGIC = b"\x93PUF"


def _cells_in(length: int) -> int | None:
    """The cell count of a ``length``-byte record, None if no count fits.

    After the header every 8 cells are 66 bytes — one packed byte each of
    ``usable`` and ``reference``, 64 of ``instability`` — and a last
    partial group of ``r`` cells is ``2 + 8 r``, so the length names the
    count and the read path knows its leading span before it decrypts.
    """
    groups, rest = divmod(length - _HEADER.size, 66)
    if groups < 0 or (rest and (rest < 10 or (rest - 2) % 8)):
        return None
    return 8 * groups + (rest // 8 if rest else 0)


class _StoredImage(TernaryMask):
    """What a look-up returns: ``instability`` is decrypted at first read.

    It is created without the ``instability`` attribute; ``__getattr__``
    runs only while an attribute is missing, so the first read fills the
    field in and every later one is a plain attribute.
    """

    #: What opens the tail: cipher, nonce, the record's ciphertext and the
    #: offset ``instability`` starts at.
    _sealed: tuple[AES128, bytes, bytes, int]

    def __getattr__(self, name: str) -> np.ndarray:
        if name != "instability":
            raise AttributeError(name)
        cipher, nonce, blob, offset = self._sealed
        value = np.frombuffer(
            cipher.ctr_transform(blob, nonce), dtype="<f8", offset=offset
        ).astype(float)
        object.__setattr__(self, "instability", value)
        return value

    def _plain(self) -> TernaryMask:
        return TernaryMask(
            self.address, self.usable, self.reference, self.instability
        )

    # The dataclass's own methods compare and print the exact class.
    def __eq__(self, other: object) -> bool:
        if isinstance(other, _StoredImage):
            other = other._plain()
        return self._plain() == other

    def __repr__(self) -> str:
        return repr(self._plain())


class NonceReuseError(AssertionError):
    """The tripwire: an enrollment was about to reuse a CTR keystream.

    Raised when :meth:`EncryptedImageDatabase.enroll` computes a record
    version at or below the highest version this store has ever seen a
    ciphertext for — encrypting fresh plaintext under that nonce would
    hand an attacker the XOR of two plaintexts. In a correctly recovered
    store this can never fire: recovery restores the version counters
    (and the floor) from durable state, so the next enrollment always
    encrypts under a fresh keystream. Firing means state was rolled back
    (e.g. a crash-restart that lost the version counters) and the
    enrollment must be refused, not served.
    """

    def __init__(self, client_id: str, version: int, floor: int):
        super().__init__(
            f"CTR nonce reuse for client {client_id!r}: version {version} "
            f"was already used for encryption (floor {floor}); "
            "refusing to reuse a keystream"
        )
        self.client_id = client_id
        self.version = version
        self.floor = floor


class EncryptedImageDatabase:
    """In-memory encrypted store of client PUF enrollment images."""

    def __init__(self, master_key: bytes):
        if len(master_key) != 16:
            raise ValueError("master key must be 16 bytes (AES-128)")
        self._cipher = AES128(master_key)
        self._records: dict[str, bytes] = {}
        #: Per-record re-enrollment counter, mixed into the CTR nonce.
        self._versions: dict[str, int] = {}
        #: Highest version a ciphertext is *known to exist* for, per
        #: client — the nonce-reuse tripwire's floor. Fed by enrollments,
        #: imports, restores, and (crucially) WAL recovery.
        self._nonce_floor: dict[str, int] = {}
        #: How many times the tripwire fired (it also raises).
        self.nonce_reuse_trips = 0

    def _nonce(self, client_id: str, version: int = 0) -> bytes:
        if version == 0:
            # Legacy derivation: keeps pre-versioning saves decryptable.
            return sha3_256(client_id.encode())[:8]
        return sha3_256(
            client_id.encode() + b"\x00" + version.to_bytes(8, "big")
        )[:8]

    @staticmethod
    def _serialize(mask: TernaryMask) -> bytes:
        """The record plaintext for ``mask`` (layout in the module doc)."""
        usable = np.asarray(mask.usable, dtype=bool)
        reference = np.asarray(mask.reference, dtype=np.uint8)
        instability = np.asarray(mask.instability, dtype="<f8")
        cells = usable.shape[0] if usable.ndim == 1 else -1
        if not (reference.shape == instability.shape == (cells,)):
            raise ValueError(
                "usable, reference and instability must be one-dimensional "
                "and of one length"
            )
        if not (0 <= mask.address < 1 << 64 and cells < 1 << 32):
            raise ValueError("address must fit u64 and the cell count u32")
        if cells and reference.max() > 1:
            raise ValueError("reference bits must be 0 or 1")
        return b"".join(
            (
                _HEADER.pack(_MAGIC, mask.address, cells),
                np.packbits(usable).tobytes(),
                np.packbits(reference).tobytes(),
                instability.tobytes(),
            )
        )

    @staticmethod
    def _deserialize_json(raw: bytes) -> TernaryMask:
        """A record written before the binary layout (never written now)."""
        payload = json.loads(raw.decode())
        return TernaryMask(
            address=payload["address"],
            usable=np.array(payload["usable"], dtype=bool),
            reference=np.array(payload["reference"], dtype=np.uint8),
            instability=np.array(payload["instability"], dtype=float),
        )

    def enroll(self, client_id: str, mask: TernaryMask) -> None:
        """Store (encrypted) the enrollment image for ``client_id``.

        Re-enrolling bumps the record's version counter so the fresh
        ciphertext is produced under a fresh keystream. The nonce-reuse
        tripwire refuses (raising :class:`NonceReuseError`) if the
        computed version does not clear every version a ciphertext is
        already known to exist for — the failure a crash-restart that
        rolled back the version counters would otherwise cause silently.
        """
        version = self._versions.get(client_id, -1) + 1
        floor = self._nonce_floor.get(client_id, -1)
        if version <= floor:
            self.nonce_reuse_trips += 1
            raise NonceReuseError(client_id, version, floor)
        plaintext = self._serialize(mask)
        self._records[client_id] = self._cipher.ctr_transform(
            plaintext, self._nonce(client_id, version)
        )
        self._versions[client_id] = version
        self._nonce_floor[client_id] = version

    def lookup(self, client_id: str) -> TernaryMask:
        """Decrypt and return the enrollment image for ``client_id``."""
        blob, version = self.export_record(client_id)
        return self.decrypt_record(client_id, blob, version)

    def version_of(self, client_id: str) -> int:
        """Current re-enrollment counter for ``client_id`` (0 = first)."""
        if client_id not in self._records:
            raise KeyError(f"client {client_id!r} not enrolled")
        return self._versions.get(client_id, 0)

    def __contains__(self, client_id: str) -> bool:
        return client_id in self._records

    def __len__(self) -> int:
        return len(self._records)

    def client_ids(self) -> tuple[str, ...]:
        """All enrolled identifiers (sorted, no plaintext involved)."""
        return tuple(sorted(self._records))

    def encrypted_record(self, client_id: str) -> bytes:
        """The raw ciphertext (what an attacker stealing the DB sees)."""
        return self._records[client_id]

    # -- stateless record codec (for replicated stores) -------------------

    def encrypt_record(
        self, client_id: str, mask: TernaryMask, version: int
    ) -> bytes:
        """Ciphertext for ``(client_id, mask, version)`` — pure function.

        Does not touch this store's contents. A replicated directory uses
        it to encrypt once and install the identical ciphertext on every
        replica under a directory-assigned version.
        """
        if version < 0:
            raise ValueError("record version must be non-negative")
        return self._cipher.ctr_transform(
            self._serialize(mask), self._nonce(client_id, version)
        )

    def decrypt_record(
        self, client_id: str, blob: bytes, version: int
    ) -> TernaryMask:
        """Open one record — the read path, inverse of :meth:`encrypt_record`.

        Decrypts the leading span that holds the header, ``usable`` and
        ``reference`` in one keystream call; ``instability`` is decrypted
        when the returned image's attribute is first read. A record whose
        plaintext opens with ``{`` goes to the JSON decoder instead. Raises
        ``ValueError`` for anything that is not a record under this key,
        client and version.
        """
        if version < 0:
            raise ValueError("record version must be non-negative")
        nonce = self._nonce(client_id, version)
        # No binary record has a length no cell count fits: nothing to read.
        cells = _cells_in(len(blob))
        packed = -(-(cells or 0) // 8)
        lead = _HEADER.size + 2 * packed
        head = b""
        if cells is not None:
            head = self._cipher.ctr_transform(blob[:lead], nonce)
        if not head.startswith(_MAGIC):
            plaintext = self._cipher.ctr_transform(blob, nonce)
            if not plaintext.startswith(b"{"):
                raise ValueError(
                    f"no enrollment record for client {client_id!r} at "
                    f"version {version} under this key"
                )
            return self._deserialize_json(plaintext)
        _magic, address, count = _HEADER.unpack_from(head)
        if count != cells:
            raise ValueError(
                f"record of {len(blob)} bytes holds {cells} cells, "
                f"its header says {count}"
            )
        bits = np.frombuffer(head, dtype=np.uint8, offset=_HEADER.size)
        image = _StoredImage.__new__(_StoredImage)
        image.__dict__.update(
            address=address,
            usable=np.unpackbits(bits[:packed], count=cells).view(bool),
            reference=np.unpackbits(bits[packed:], count=cells),
            _sealed=(self._cipher, nonce, blob, lead),
        )
        return image

    # -- replica transfer (records stay encrypted) ------------------------

    def export_record(self, client_id: str) -> tuple[bytes, int]:
        """One record as ``(ciphertext, version)`` for replica transfer.

        The nonce is a pure function of (client_id, version), so the
        ciphertext is portable between stores sharing a master key.
        """
        if client_id not in self._records:
            raise KeyError(f"client {client_id!r} not enrolled")
        return self._records[client_id], self._versions.get(client_id, 0)

    def import_record(self, client_id: str, blob: bytes, version: int) -> None:
        """Install a still-encrypted record exported from a peer store.

        The imported ciphertext exists under (client, version), so the
        nonce floor rises too — a later local enrollment must clear it.
        """
        if version < 0:
            raise ValueError("record version must be non-negative")
        self._records[client_id] = blob
        self._versions[client_id] = version
        self.register_used_version(client_id, version)

    def register_used_version(self, client_id: str, version: int) -> None:
        """Raise the nonce-reuse floor: a ciphertext exists at ``version``.

        Recovery calls this for every version the durable log ever
        acknowledged, so the tripwire in :meth:`enroll` can prove the
        restored counters are monotone with durable history.
        """
        if version > self._nonce_floor.get(client_id, -1):
            self._nonce_floor[client_id] = version

    # -- persistence (records stay encrypted at rest) --------------------

    def snapshot(self) -> bytes:
        """The whole store as one still-encrypted byte blob.

        Shard replicas and the chaos storm clone stores from this — the
        master key is *not* part of the snapshot and no record is
        decrypted to produce it.
        """
        payload = {
            "format": _FORMAT_V2,
            "records": {
                client_id: blob.hex() for client_id, blob in self._records.items()
            },
            "versions": dict(self._versions),
        }
        return json.dumps(payload).encode()

    def restore(self, snapshot: bytes) -> None:
        """Replace this store's contents from a :meth:`snapshot` blob."""
        payload = json.loads(snapshot.decode())
        if payload.get("format") not in (_FORMAT_V1, _FORMAT_V2):
            raise ValueError("unrecognized image-db snapshot format")
        self._records = {
            client_id: bytes.fromhex(blob)
            for client_id, blob in payload["records"].items()
        }
        self._versions = {
            client_id: int(version)
            for client_id, version in payload.get("versions", {}).items()
        }
        # A record the snapshot names no version for — every record of a
        # `/1` file — is at version 0, and that keystream is spent: its
        # client's next enrollment must be version 1, not 0 again.
        for client_id in self._records:
            self._versions.setdefault(client_id, 0)
        for client_id, version in self._versions.items():
            self.register_used_version(client_id, version)

    @classmethod
    def from_snapshot(
        cls, snapshot: bytes, master_key: bytes
    ) -> EncryptedImageDatabase:
        """A new store cloned from a snapshot (the replica-spawn path)."""
        db = cls(master_key)
        db.restore(snapshot)
        return db

    def save(self, path: str | os.PathLike[str]) -> None:
        """Write the database to disk; records remain ciphertext."""
        pathlib.Path(path).write_text(self.snapshot().decode())

    @classmethod
    def load(
        cls, path: str | os.PathLike[str], master_key: bytes
    ) -> EncryptedImageDatabase:
        """Load a saved database; the master key is needed to *use* it."""
        raw = pathlib.Path(path).read_text().encode()
        try:
            db = cls.from_snapshot(raw, master_key)
        except ValueError:
            raise ValueError("unrecognized image-db file format") from None
        return db
