"""Key-generation substrate: known-answer vectors and the interface."""

import numpy as np
import pytest

from repro.keygen.aes import AES128, aes128_ctr_keystream, aes128_decrypt_block, aes128_encrypt_block
from repro.keygen.chacha20 import chacha20_block, chacha20_encrypt, chacha20_keystream
from repro.keygen.interface import available_keygens, get_keygen
from repro.keygen.lwe import LWE_PRESETS, ToyModuleLWE
from repro.keygen.speck import Speck128, speck128_encrypt_block


def ctr_scalar_oracle(cipher: AES128, data: bytes, nonce: bytes) -> bytes:
    """CTR spelled out block by block over the FIPS-197 scalar cipher."""
    keystream = b"".join(
        cipher.encrypt_block(nonce + i.to_bytes(8, "big"))
        for i in range(-(-len(data) // 16))
    )
    return bytes(d ^ k for d, k in zip(data, keystream))


class TestAES:
    def test_fips197_vector(self):
        key = bytes(range(16))
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert aes128_encrypt_block(key, plaintext) == expected

    def test_decrypt_inverts_encrypt(self, rng):
        key, block = rng.bytes(16), rng.bytes(16)
        assert aes128_decrypt_block(key, aes128_encrypt_block(key, block)) == block

    def test_block_size_validation(self):
        with pytest.raises(ValueError):
            aes128_encrypt_block(bytes(16), bytes(15))
        with pytest.raises(ValueError):
            AES128(bytes(15))

    def test_ctr_roundtrip(self, rng):
        cipher = AES128(rng.bytes(16))
        data = rng.bytes(100)
        nonce = rng.bytes(8)
        assert cipher.ctr_transform(cipher.ctr_transform(data, nonce), nonce) == data

    def test_ctr_nonce_separation(self, rng):
        cipher = AES128(rng.bytes(16))
        data = rng.bytes(64)
        assert cipher.ctr_transform(data, b"A" * 8) != cipher.ctr_transform(data, b"B" * 8)

    def test_ctr_keystream_length(self):
        assert len(aes128_ctr_keystream(bytes(16), bytes(8), 33)) == 33

    @pytest.mark.parametrize("length", [0, 1, 15, 16, 17, 4096, 22821])
    def test_ctr_matches_scalar_oracle(self, rng, length):
        """The vectorized kernel against per-block ``encrypt_block``."""
        key, nonce, data = rng.bytes(16), rng.bytes(8), rng.bytes(length)
        cipher = AES128(key)
        expected = ctr_scalar_oracle(cipher, data, nonce)
        ciphertext = cipher.ctr_transform(data, nonce)
        assert ciphertext == expected
        assert cipher.ctr_transform(ciphertext, nonce) == data
        assert cipher.ctr_transform(bytearray(data), nonce) == expected
        assert cipher.ctr_transform(memoryview(data), nonce) == expected
        assert aes128_ctr_keystream(key, nonce, length) == ctr_scalar_oracle(
            cipher, bytes(length), nonce
        )

    @pytest.mark.parametrize("nonce", [b"", bytes(7), bytes(9), bytes(16)])
    def test_ctr_rejects_a_nonce_that_is_not_8_bytes(self, nonce):
        with pytest.raises(ValueError):
            AES128(bytes(16)).ctr_transform(b"data", nonce)
        with pytest.raises(ValueError):
            aes128_ctr_keystream(bytes(16), nonce, 4)


class TestChaCha20:
    def test_rfc8439_block_vector(self):
        key = bytes(range(32))
        nonce = bytes.fromhex("000000090000004a00000000")
        expected = bytes.fromhex(
            "10f1e7e4d13b5915500fdd1fa32071c4"
            "c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2"
            "b5129cd1de164eb9cbd083e8a2503c4e"
        )
        assert chacha20_block(key, 1, nonce) == expected

    def test_encrypt_is_involution(self, rng):
        key, nonce, data = rng.bytes(32), rng.bytes(12), rng.bytes(130)
        assert chacha20_encrypt(key, nonce, chacha20_encrypt(key, nonce, data)) == data

    def test_keystream_counter_advances(self):
        key, nonce = bytes(32), bytes(12)
        long_stream = chacha20_keystream(key, nonce, 128, counter=1)
        second_block = chacha20_block(key, 2, nonce)
        assert long_stream[64:] == second_block

    def test_key_nonce_validation(self):
        with pytest.raises(ValueError):
            chacha20_block(bytes(31), 0, bytes(12))
        with pytest.raises(ValueError):
            chacha20_block(bytes(32), 0, bytes(11))


class TestSpeck:
    def test_speck_paper_vector(self):
        key = bytes.fromhex("0f0e0d0c0b0a09080706050403020100")
        plaintext = bytes.fromhex("6c617669757165207469206564616d20")
        expected = bytes.fromhex("a65d9851797832657860fedf5c570d18")
        assert speck128_encrypt_block(key, plaintext) == expected

    def test_decrypt_inverts_encrypt(self, rng):
        cipher = Speck128(rng.bytes(16))
        block = rng.bytes(16)
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block

    def test_validation(self):
        with pytest.raises(ValueError):
            Speck128(bytes(8))
        with pytest.raises(ValueError):
            Speck128(bytes(16)).encrypt_block(bytes(8))


class TestToyLWE:
    def test_deterministic(self):
        lwe = ToyModuleLWE("light")
        assert lwe.public_key(b"\x05" * 32) == lwe.public_key(b"\x05" * 32)

    def test_seed_sensitivity(self):
        lwe = ToyModuleLWE("light")
        assert lwe.public_key(b"\x05" * 32) != lwe.public_key(b"\x06" * 32)

    def test_presets_exist(self):
        for preset in LWE_PRESETS:
            ToyModuleLWE(preset)
        with pytest.raises(KeyError):
            ToyModuleLWE("kyber")

    def test_public_key_size_scales_with_rank(self):
        light = ToyModuleLWE("light").public_key(b"\x01" * 32)
        dil = ToyModuleLWE("dilithium3").public_key(b"\x01" * 32)
        assert len(dil) == 3 * len(light)  # rank 6 vs rank 2

    def test_keypair_lwe_relation_residual_is_small(self):
        # b - A*s = e must be bounded by eta (the injected noise).
        lwe = ToyModuleLWE("light")
        seed = b"\x09" * 32
        public, secret = lwe.keypair(seed)
        a = lwe._expand_matrix(seed)
        recomputed = np.zeros_like(public)
        for i in range(lwe.rank):
            acc = np.zeros(lwe.degree, dtype=np.int64)
            for j in range(lwe.rank):
                acc = (acc + lwe._polymul(a[i, j], secret[j])) % lwe.modulus
            recomputed[i] = acc
        error = (public - recomputed) % lwe.modulus
        centered = np.where(error > lwe.modulus // 2, error - lwe.modulus, error)
        assert np.abs(centered).max() <= lwe.eta

    def test_seed_length_validation(self):
        with pytest.raises(ValueError):
            ToyModuleLWE("light").public_key(b"short")


class TestKeyGeneratorInterface:
    def test_registry_contents(self):
        names = available_keygens()
        for expected in ("aes-128", "chacha20", "speck-128", "lightsaber", "saber", "dilithium3"):
            assert expected in names

    def test_unknown_keygen(self):
        with pytest.raises(KeyError):
            get_keygen("rsa")

    @pytest.mark.parametrize("name", ["aes-128", "chacha20", "speck-128"])
    def test_cipher_keygens_deterministic(self, name, rng):
        gen = get_keygen(name)
        seed = rng.bytes(32)
        assert gen.public_key(seed) == gen.public_key(seed)

    def test_seed_length_enforced(self):
        with pytest.raises(ValueError):
            get_keygen("aes-128").public_key(b"\x00" * 16)

    def test_pqc_costs_dominate_ciphers(self):
        # The Table 7 premise: lattice keygen orders of magnitude above ciphers.
        aes = get_keygen("aes-128").relative_cost
        saber = get_keygen("lightsaber").relative_cost
        dilithium = get_keygen("dilithium3").relative_cost
        assert saber > 50 * aes
        assert dilithium > saber
