"""Core complexity math (Eqs. 1-3) and salting schemes."""

import pytest

from repro.core.complexity import (
    opponent_search_space,
    server_search_space,
    table1_rows,
    tractable_distance,
)
from repro.core.salting import HashChainSalt, RotateSalt, XorSalt


class TestComplexity:
    def test_opponent_space_is_2_256(self):
        assert opponent_search_space() == 1 << 256

    def test_server_vs_opponent_asymmetry(self):
        # The tractability argument: even d=5 is ~10^67 times smaller.
        ratio = opponent_search_space() / server_search_space(5)
        assert ratio > 1e60

    def test_table1_rows_structure(self):
        rows = table1_rows(5)
        assert [r.d for r in rows] == [1, 2, 3, 4, 5]
        assert rows[0].exhaustive == 257
        assert rows[0].average == 129

    def test_average_flag(self):
        assert server_search_space(3, average=True) < server_search_space(3)

    def test_tractable_distance_gpu_sha3(self):
        # Paper anchor: the A100 searches d=5 (9e9 seeds) in 4.67 s,
        # comfortably under T=20 s, but d=6 (3.7e11) would not fit.
        throughput = 8987138113 / 4.67
        assert tractable_distance(throughput, 20.0) == 5

    def test_tractable_distance_cpu_sha3(self):
        # Paper: SALTED-CPU at 60.68 s does NOT meet T=20 for d=5.
        throughput = 8987138113 / 60.68
        assert tractable_distance(throughput, 20.0) == 4

    def test_tractable_distance_validation(self):
        with pytest.raises(ValueError):
            tractable_distance(0, 20.0)


class TestSalting:
    @pytest.fixture(params=[RotateSalt(96), XorSalt(b"\xa5" * 32), HashChainSalt()],
                    ids=["rotate", "xor", "hash-chain"])
    def scheme(self, request):
        return request.param

    def test_deterministic(self, scheme, rng):
        seed = rng.bytes(32)
        assert scheme(seed) == scheme(seed)

    def test_changes_seed(self, scheme, rng):
        seed = rng.bytes(32)
        assert scheme(seed) != seed

    def test_output_is_seed_sized(self, scheme, rng):
        assert len(scheme(rng.bytes(32))) == 32

    def test_input_length_validation(self, scheme):
        with pytest.raises(ValueError):
            scheme(b"\x00" * 16)

    def test_rotate_is_rotation(self):
        from repro._bitutils import rotate_left_int, seed_to_int

        seed = bytes(range(32))
        salted = RotateSalt(8).apply(seed)
        assert seed_to_int(salted) == rotate_left_int(seed_to_int(seed), 8)

    def test_rotate_rejects_identity(self):
        with pytest.raises(ValueError):
            RotateSalt(0)
        with pytest.raises(ValueError):
            RotateSalt(256)

    def test_xor_rejects_zero_pad(self):
        with pytest.raises(ValueError):
            XorSalt(bytes(32))

    def test_xor_pad_length(self):
        with pytest.raises(ValueError):
            XorSalt(b"\x01" * 31)

    def test_hash_chain_context_separation(self, rng):
        seed = rng.bytes(32)
        assert HashChainSalt(b"ctx-a").apply(seed) != HashChainSalt(b"ctx-b").apply(seed)

    def test_hash_chain_salted_seed_is_pinned_to_from_spec_sha3(self):
        """Issued keys derive from S': it is the from-spec digest, byte for byte."""
        from repro.hashes.sha3 import sha3_256

        seed = bytes(range(32))
        salted = HashChainSalt().apply(seed)
        assert salted == bytes.fromhex(
            "385ddb0aec8d7e19a3360dbce9027534719cca4780c3be4546c8fee7b8bdbfb0"
        )
        assert salted == sha3_256(seed + b"rbc-salted/v1")

    def test_hash_chain_requires_context(self):
        with pytest.raises(ValueError):
            HashChainSalt(b"")

    def test_digest_key_decoupling(self, scheme, rng):
        """The protocol property: digest and public key share no seed."""
        from repro.hashes.sha3 import sha3_256
        from repro.keygen.interface import get_keygen

        seed = rng.bytes(32)
        digest_input = seed              # what the search matches on
        keygen_input = scheme(seed)      # what the key derives from
        assert digest_input != keygen_input
        # and the key from the raw seed differs from the deployed key
        keygen = get_keygen("aes-128")
        assert keygen.public_key(seed) != keygen.public_key(keygen_input)
