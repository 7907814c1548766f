"""Tests for repro.crypto.aes, anchored on the FIPS-197 known answers."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import aes
from repro.crypto.aes import (
    AESKey,
    aes_cbc_decrypt,
    aes_cbc_encrypt,
    decrypt_block,
    encrypt_block,
    generate_aes_key,
    pkcs7_pad,
    pkcs7_unpad,
)
from repro.errors import DecryptionError, KeyMaterialError, PaddingError

FIPS_PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS_VECTORS = [
    # (key hex, expected ciphertext hex) — FIPS-197 appendix C
    (
        "000102030405060708090a0b0c0d0e0f",
        "69c4e0d86a7b0430d8cdb78070b4c55a",
    ),
    (
        "000102030405060708090a0b0c0d0e0f1011121314151617",
        "dda97ca4864cdfe06eaf70a0ec0d7191",
    ),
    (
        "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
        "8ea2b7ca516745bfeafc49904b496089",
    ),
]


class TestKnownAnswers:
    @pytest.mark.parametrize("key_hex,ct_hex", FIPS_VECTORS)
    def test_fips197_encrypt(self, key_hex, ct_hex):
        key = AESKey(bytes.fromhex(key_hex))
        assert encrypt_block(FIPS_PLAINTEXT, key.round_keys()).hex() == ct_hex

    @pytest.mark.parametrize("key_hex,ct_hex", FIPS_VECTORS)
    def test_fips197_decrypt(self, key_hex, ct_hex):
        key = AESKey(bytes.fromhex(key_hex))
        assert (
            decrypt_block(bytes.fromhex(ct_hex), key.round_keys()) == FIPS_PLAINTEXT
        )


class TestMultiplicationTables:
    @pytest.mark.parametrize("factor", [2, 3, 9, 11, 13, 14])
    def test_table_matches_gmul(self, factor):
        table = getattr(aes, f"_MUL{factor}")
        assert len(table) == 256
        assert all(table[x] == aes._gmul(x, factor) for x in range(256))


class TestAESKey:
    @pytest.mark.parametrize("bits", [128, 192, 256])
    def test_valid_sizes(self, bits, rng):
        key = generate_aes_key(rng, bits)
        assert key.bits == bits

    def test_default_is_192_per_paper(self, rng):
        assert generate_aes_key(rng).bits == 192

    def test_rejects_bad_sizes(self, rng):
        with pytest.raises(KeyMaterialError):
            AESKey(b"short")
        with pytest.raises(KeyMaterialError):
            generate_aes_key(rng, 64)

    def test_block_functions_reject_bad_length(self, rng):
        key = generate_aes_key(rng, 128)
        with pytest.raises(ValueError):
            encrypt_block(b"tooshort", key.round_keys())
        with pytest.raises(ValueError):
            decrypt_block(b"x" * 17, key.round_keys())


class TestPKCS7:
    def test_pad_always_adds(self):
        assert pkcs7_pad(b"") == b"\x10" * 16
        assert pkcs7_pad(b"x" * 16)[-1] == 16
        assert len(pkcs7_pad(b"x" * 16)) == 32

    def test_roundtrip(self):
        for length in range(0, 33):
            data = bytes(range(length % 256))[:length]
            assert pkcs7_unpad(pkcs7_pad(data)) == data

    def test_rejects_bad_padding(self):
        with pytest.raises(PaddingError):
            pkcs7_unpad(b"x" * 15 + b"\x00")
        with pytest.raises(PaddingError):
            pkcs7_unpad(b"x" * 15 + b"\x11")
        with pytest.raises(PaddingError):
            pkcs7_unpad(b"x" * 14 + b"\x03\x02")
        with pytest.raises(PaddingError):
            pkcs7_unpad(b"x" * 15)  # not a block multiple
        with pytest.raises(PaddingError):
            pkcs7_unpad(b"")


class TestCBC:
    def test_roundtrip(self, rng):
        key = generate_aes_key(rng)
        for plaintext in (b"", b"short", b"x" * 16, b"y" * 1000):
            ciphertext = aes_cbc_encrypt(key, plaintext, rng)
            assert aes_cbc_decrypt(key, ciphertext) == plaintext

    def test_iv_randomizes_ciphertext(self, rng):
        key = generate_aes_key(rng)
        a = aes_cbc_encrypt(key, b"same message", rng)
        b = aes_cbc_encrypt(key, b"same message", rng)
        assert a != b

    def test_wrong_key_fails(self, rng):
        key_a = generate_aes_key(rng)
        key_b = generate_aes_key(rng)
        ciphertext = aes_cbc_encrypt(key_a, b"secret", rng)
        with pytest.raises(DecryptionError):
            aes_cbc_decrypt(key_b, ciphertext)

    def test_corrupt_ciphertext_fails(self, rng):
        key = generate_aes_key(rng)
        ciphertext = bytearray(aes_cbc_encrypt(key, b"secret data", rng))
        ciphertext[-1] ^= 0x01
        with pytest.raises(DecryptionError):
            aes_cbc_decrypt(key, bytes(ciphertext))

    def test_truncated_ciphertext_fails(self, rng):
        key = generate_aes_key(rng)
        ciphertext = aes_cbc_encrypt(key, b"secret", rng)
        with pytest.raises(DecryptionError):
            aes_cbc_decrypt(key, ciphertext[:16])
        with pytest.raises(DecryptionError):
            aes_cbc_decrypt(key, ciphertext[:-1])

    @given(st.binary(max_size=256), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, plaintext, seed):
        rng = random.Random(seed)
        key = generate_aes_key(rng, 192)
        assert aes_cbc_decrypt(key, aes_cbc_encrypt(key, plaintext, rng)) == plaintext
