"""Batch original-RBC engine and the adapters (original-RBC, nonce-bound)
over the one Algorithm 1 body."""

import re
from pathlib import Path

import numpy as np
import pytest

from repro._bitutils import flip_bits
from repro.combinatorics.ranking import rank_lexicographic
from repro.core.original_rbc import OriginalRBCSearch
from repro.engines import build_engine
from repro.hashes.registry import get_hash
from repro.keygen.interface import get_keygen
from repro.net.session import _NonceBindingEngine
from repro.runtime.original_batch import BATCH_KEYGEN_CHOICES, BatchOriginalRBCSearch


class TestBatchOriginalRBC:
    @pytest.mark.parametrize("name", BATCH_KEYGEN_CHOICES)
    def test_finds_planted_seed(self, base_seed, name):
        gen = get_keygen(name)
        client = flip_bits(base_seed, [3, 250])
        engine = BatchOriginalRBCSearch(name, batch_size=4096)
        result = engine.search(base_seed, gen.public_key(client), 2)
        assert result.found and result.seed == client and result.distance == 2

    @pytest.mark.parametrize("name", BATCH_KEYGEN_CHOICES)
    def test_distance_zero(self, base_seed, name):
        gen = get_keygen(name)
        engine = BatchOriginalRBCSearch(name)
        result = engine.search(base_seed, gen.public_key(base_seed), 1)
        assert result.found and result.distance == 0 and result.seeds_hashed == 1

    def test_not_found(self, base_seed, rng):
        gen = get_keygen("speck-128")
        engine = BatchOriginalRBCSearch("speck-128", batch_size=2048)
        result = engine.search(base_seed, gen.public_key(rng.bytes(32)), 1)
        assert not result.found
        assert result.seeds_hashed == 1 + 256

    def test_batch_matches_scalar_registry(self, rng):
        """The batch response kernel must equal the scalar KeyGenerator."""
        from repro._bitutils import seed_to_words

        for name in BATCH_KEYGEN_CHOICES:
            gen = get_keygen(name)
            engine = BatchOriginalRBCSearch(name)
            seed = rng.bytes(32)
            batch = engine.response_batch(seed_to_words(seed)[None, :])
            scalar = gen.public_key(seed)
            assert batch[0].tobytes() == scalar[: batch.shape[1]], name

    def test_timeout(self, base_seed, rng):
        engine = BatchOriginalRBCSearch("aes-128", batch_size=256)
        gen = get_keygen("aes-128")
        result = engine.search(
            base_seed, gen.public_key(rng.bytes(32)), 2, time_budget=0.0
        )
        assert result.timed_out

    def test_response_length_validation(self, base_seed):
        engine = BatchOriginalRBCSearch("aes-128")
        with pytest.raises(ValueError):
            engine.search(base_seed, b"\x00" * 5, 1)

    def test_unknown_keygen_rejected(self):
        with pytest.raises(ValueError):
            BatchOriginalRBCSearch("dilithium3")  # scalar-only by design

    def test_throughput_probe(self):
        assert BatchOriginalRBCSearch("speck-128").throughput_probe(2000) > 0


# -- the two adapters over the one Algorithm 1 body ------------------------

ADAPTERS = [*BATCH_KEYGEN_CHOICES, "sha1", "sha256", "sha3-256", "sha512"]
NONCE = b"\x5a" * 16
#: Narrower than shell 1, so a count shows which rank batch the walk stopped in.
BATCH = 100
SHELL_SIZES = [1, 256, 32640]


def _adapter(name, batch_size=BATCH):
    """The original-RBC engine for a cipher, the nonce-bound one for a hash."""
    if name in BATCH_KEYGEN_CHOICES:
        return BatchOriginalRBCSearch(name, batch_size=batch_size)
    return _NonceBindingEngine(
        build_engine("batch", hash_name=name, batch_size=batch_size), name, NONCE
    )


def _target(name, seed):
    """The public value, from the scalar references rather than the engine."""
    if name in BATCH_KEYGEN_CHOICES:
        return get_keygen(name).public_key(seed)
    return get_hash(name).scalar(seed + NONCE)


class TestAdaptersOverTheOneBody:
    @pytest.mark.parametrize("name", ADAPTERS)
    @pytest.mark.parametrize("positions", [(), (130,), (0, 201)], ids=["d0", "d1", "d2"])
    def test_planted_seed_is_found_at_its_rank_batch(self, base_seed, name, positions):
        distance = len(positions)
        rank = rank_lexicographic(256, positions)
        batch_end = min((rank // BATCH + 1) * BATCH, SHELL_SIZES[distance])
        client = flip_bits(base_seed, list(positions))
        engine = _adapter(name)
        result = engine.search(base_seed, _target(name, client), 2)
        assert (result.found, result.seed, result.distance) == (True, client, distance)
        assert result.seeds_hashed == sum(SHELL_SIZES[:distance]) + batch_end
        assert [(s.distance, s.seeds_hashed) for s in result.shells] == [
            *((d, SHELL_SIZES[d]) for d in range(distance)), (distance, batch_end)
        ]
        assert result.engine == engine.describe()
        assert not result.timed_out

    @pytest.mark.parametrize("name", ADAPTERS)
    def test_absent_target_exhausts_the_ball(self, base_seed, rng, name):
        absent = _target(name, rng.bytes(32))
        engine = _adapter(name, batch_size=4096)
        assert engine.search(base_seed, absent, 1).seeds_hashed == 1 + 256
        result = engine.search(base_seed, absent, 2)
        assert not result.found and not result.timed_out
        assert result.seeds_hashed == 1 + 256 + 32640
        assert [s.seeds_hashed for s in result.shells] == SHELL_SIZES

    @pytest.mark.parametrize("name", ADAPTERS)
    def test_zero_budget_stops_after_one_shell_one_batch(self, base_seed, rng, name):
        result = _adapter(name).search(
            base_seed, _target(name, rng.bytes(32)), 2, time_budget=0
        )
        assert result.timed_out and not result.found
        assert result.seeds_hashed == 1 + BATCH
        assert [(s.distance, s.seeds_hashed) for s in result.shells] == [
            (0, 1), (1, BATCH)
        ]

    @pytest.mark.parametrize("name", BATCH_KEYGEN_CHOICES)
    def test_wrong_length_cipher_target(self, base_seed, name):
        engine = BatchOriginalRBCSearch(name)
        size = engine.algo.digest_size
        with pytest.raises(ValueError, match=f"^{name} responses are {size} bytes$"):
            engine.search(base_seed, b"\x00" * (size - 1), 1)

    @pytest.mark.parametrize("positions", [(), (77,)], ids=["d0", "d1"])
    def test_batch_original_agrees_with_the_scalar_reference(self, base_seed, positions):
        """Same seed at the same distance; the scalar engine walks Chase
        order, so the counts are not compared."""
        keygen = get_keygen("aes-128")
        target = keygen.public_key(flip_bits(base_seed, list(positions)))
        batch = BatchOriginalRBCSearch("aes-128", batch_size=BATCH).search(
            base_seed, target, 1
        )
        scalar = OriginalRBCSearch(keygen).search(base_seed, target, 1)
        assert scalar.found
        assert (batch.found, batch.seed, batch.distance) == (
            scalar.found, scalar.seed, scalar.distance
        )

    def test_no_second_copy_of_the_walk(self):
        """The vectorized unrank is called by the mask pipeline and the
        executor's stage probe; a search that calls it has written the
        loop again."""
        root = Path(__file__).resolve().parents[1]
        call = re.compile(r"(?<!def )unrank_lexicographic_batch\(")
        calls = {}
        for path in (root / "src" / "repro").rglob("*.py"):
            found = call.findall(path.read_text())
            if found:
                calls[path.name] = len(found)
        assert calls == {"maskplan.py": 1, "executor.py": 1}
        executor = (root / "src/repro/runtime/executor.py").read_text()
        # The probe is the module's last method, below the search body.
        assert call.search(executor).start() > executor.index("def throughput_probe(")
        deleted = ("Subspace" + "Report", "search_" + "subspace")
        for folder in ("src", "tests", "examples", "benchmarks"):
            for path in (root / folder).rglob("*.py"):
                text = path.read_text()
                assert not any(name in text for name in deleted), path
