"""Pure-Python AES-128/192/256 with CBC mode and PKCS#7 padding.

The paper encrypts traces with 192-bit AES keys (section 6).  This is a
straightforward FIPS-197 implementation: byte-oriented, with the S-boxes
and six GF(2^8) multiplication tables (for MixColumns and its inverse)
built once at import.  The simulator charges virtual time from the
calibrated cost model, not from the wall clock, so the tables change only
the host cost of a run, never its simulated results.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import CryptoInputError, DecryptionError, KeyMaterialError, PaddingError

BLOCK_SIZE = 16

# --- S-boxes (FIPS-197) ------------------------------------------------------


def _build_sboxes() -> tuple[bytes, bytes]:
    """Construct the AES S-box and its inverse from GF(2^8) arithmetic."""
    # multiplicative inverse table via exp/log over generator 3
    exp = [0] * 512
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        # multiply by generator 0x03 in GF(2^8)
        x ^= (x << 1) ^ (0x1B if x & 0x80 else 0)
        x &= 0xFF
    for i in range(255, 512):
        exp[i] = exp[i - 255]

    sbox = bytearray(256)
    inv_sbox = bytearray(256)
    for value in range(256):
        inv = 0 if value == 0 else exp[255 - log[value]]
        # affine transformation
        s = inv
        result = inv
        for _ in range(4):
            s = ((s << 1) | (s >> 7)) & 0xFF
            result ^= s
        result ^= 0x63
        sbox[value] = result
        inv_sbox[result] = value
    return bytes(sbox), bytes(inv_sbox)


_SBOX, _INV_SBOX = _build_sboxes()
_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36, 0x6C, 0xD8, 0xAB, 0x4D)


def _xtime(a: int) -> int:
    """Multiply by x (i.e. 0x02) in GF(2^8)."""
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _gmul(a: int, b: int) -> int:
    """General GF(2^8) multiplication (peasant algorithm)."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


def _mul_table(factor: int) -> bytes:
    """``_gmul(x, factor)`` for every byte ``x``."""
    return bytes(_gmul(x, factor) for x in range(256))


_MUL2, _MUL3, _MUL9, _MUL11, _MUL13, _MUL14 = (
    _mul_table(factor) for factor in (2, 3, 9, 11, 13, 14)
)


# --- key schedule ------------------------------------------------------------


def _expand_key(key: bytes) -> list[list[int]]:
    """AES key expansion: returns round keys as lists of 16 ints."""
    nk = len(key) // 4
    rounds = {4: 10, 6: 12, 8: 14}[nk]
    words: list[list[int]] = [list(key[4 * i : 4 * i + 4]) for i in range(nk)]
    for i in range(nk, 4 * (rounds + 1)):
        temp = list(words[i - 1])
        if i % nk == 0:
            temp = temp[1:] + temp[:1]
            temp = [_SBOX[b] for b in temp]
            temp[0] ^= _RCON[i // nk - 1]
        elif nk > 6 and i % nk == 4:
            temp = [_SBOX[b] for b in temp]
        words.append([words[i - nk][j] ^ temp[j] for j in range(4)])
    round_keys: list[list[int]] = []
    for r in range(rounds + 1):
        rk: list[int] = []
        for w in words[4 * r : 4 * r + 4]:
            rk.extend(w)
        round_keys.append(rk)
    return round_keys


# --- block operations ---------------------------------------------------------
# State is a flat list of 16 bytes in column-major order, matching FIPS-197:
# state[r + 4*c] is row r, column c.


def _add_round_key(state: list[int], rk: list[int]) -> None:
    for i in range(16):
        state[i] ^= rk[i]


def _sub_bytes(state: list[int], box: bytes) -> None:
    for i in range(16):
        state[i] = box[state[i]]


_SHIFT_MAP = [0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11]
_INV_SHIFT_MAP = [0, 13, 10, 7, 4, 1, 14, 11, 8, 5, 2, 15, 12, 9, 6, 3]


def _shift_rows(state: list[int]) -> list[int]:
    return [state[_SHIFT_MAP[i]] for i in range(16)]


def _inv_shift_rows(state: list[int]) -> list[int]:
    return [state[_INV_SHIFT_MAP[i]] for i in range(16)]


def _mix_columns(state: list[int]) -> None:
    for c in range(4):
        i = 4 * c
        a0, a1, a2, a3 = state[i : i + 4]
        state[i + 0] = _MUL2[a0] ^ _MUL3[a1] ^ a2 ^ a3
        state[i + 1] = a0 ^ _MUL2[a1] ^ _MUL3[a2] ^ a3
        state[i + 2] = a0 ^ a1 ^ _MUL2[a2] ^ _MUL3[a3]
        state[i + 3] = _MUL3[a0] ^ a1 ^ a2 ^ _MUL2[a3]


def _inv_mix_columns(state: list[int]) -> None:
    for c in range(4):
        i = 4 * c
        a0, a1, a2, a3 = state[i : i + 4]
        state[i + 0] = _MUL14[a0] ^ _MUL11[a1] ^ _MUL13[a2] ^ _MUL9[a3]
        state[i + 1] = _MUL9[a0] ^ _MUL14[a1] ^ _MUL11[a2] ^ _MUL13[a3]
        state[i + 2] = _MUL13[a0] ^ _MUL9[a1] ^ _MUL14[a2] ^ _MUL11[a3]
        state[i + 3] = _MUL11[a0] ^ _MUL13[a1] ^ _MUL9[a2] ^ _MUL14[a3]


def encrypt_block(block: bytes, round_keys: list[list[int]]) -> bytes:
    """Encrypt one 16-byte block."""
    if len(block) != BLOCK_SIZE:
        raise CryptoInputError(f"block must be {BLOCK_SIZE} bytes")
    state = list(block)
    _add_round_key(state, round_keys[0])
    for r in range(1, len(round_keys) - 1):
        _sub_bytes(state, _SBOX)
        state = _shift_rows(state)
        _mix_columns(state)
        _add_round_key(state, round_keys[r])
    _sub_bytes(state, _SBOX)
    state = _shift_rows(state)
    _add_round_key(state, round_keys[-1])
    return bytes(state)


def decrypt_block(block: bytes, round_keys: list[list[int]]) -> bytes:
    """Decrypt one 16-byte block."""
    if len(block) != BLOCK_SIZE:
        raise CryptoInputError(f"block must be {BLOCK_SIZE} bytes")
    state = list(block)
    _add_round_key(state, round_keys[-1])
    for r in range(len(round_keys) - 2, 0, -1):
        state = _inv_shift_rows(state)
        _sub_bytes(state, _INV_SBOX)
        _add_round_key(state, round_keys[r])
        _inv_mix_columns(state)
    state = _inv_shift_rows(state)
    _sub_bytes(state, _INV_SBOX)
    _add_round_key(state, round_keys[0])
    return bytes(state)


# --- key object, CBC mode, padding -------------------------------------------


@dataclass(frozen=True, slots=True)
class AESKey:
    """An AES key of 128, 192 (the paper's choice) or 256 bits."""

    material: bytes

    def __post_init__(self) -> None:
        if len(self.material) not in (16, 24, 32):
            raise KeyMaterialError(
                f"AES key must be 16/24/32 bytes, got {len(self.material)}"
            )

    @property
    def bits(self) -> int:
        return len(self.material) * 8

    def round_keys(self) -> list[list[int]]:
        return _expand_key(self.material)


def generate_aes_key(rng: random.Random, bits: int = 192) -> AESKey:
    """Fresh random AES key; default 192 bits per the paper."""
    if bits not in (128, 192, 256):
        raise KeyMaterialError(f"AES key size must be 128/192/256, got {bits}")
    return AESKey(bytes(rng.randrange(256) for _ in range(bits // 8)))


def pkcs7_pad(data: bytes, block_size: int = BLOCK_SIZE) -> bytes:
    """Append PKCS#7 padding (always at least one byte)."""
    pad = block_size - (len(data) % block_size)
    return data + bytes([pad]) * pad


def pkcs7_unpad(data: bytes, block_size: int = BLOCK_SIZE) -> bytes:
    """Strip and validate PKCS#7 padding."""
    if not data or len(data) % block_size:
        raise PaddingError("padded data length not a multiple of block size")
    pad = data[-1]
    if pad < 1 or pad > block_size:
        raise PaddingError(f"invalid padding byte {pad}")
    if data[-pad:] != bytes([pad]) * pad:
        raise PaddingError("inconsistent padding bytes")
    return data[:-pad]


def aes_cbc_encrypt(key: AESKey, plaintext: bytes, rng: random.Random) -> bytes:
    """CBC-encrypt with PKCS#7 padding; the random IV is prepended."""
    round_keys = key.round_keys()
    iv = bytes(rng.randrange(256) for _ in range(BLOCK_SIZE))
    padded = pkcs7_pad(plaintext)
    out = bytearray(iv)
    prev = iv
    for i in range(0, len(padded), BLOCK_SIZE):
        block = bytes(a ^ b for a, b in zip(padded[i : i + BLOCK_SIZE], prev, strict=True))
        prev = encrypt_block(block, round_keys)
        out += prev
    return bytes(out)


def aes_cbc_decrypt(key: AESKey, ciphertext: bytes) -> bytes:
    """Inverse of :func:`aes_cbc_encrypt`; raises on corrupt input."""
    if len(ciphertext) < 2 * BLOCK_SIZE or len(ciphertext) % BLOCK_SIZE:
        raise DecryptionError(
            f"ciphertext length {len(ciphertext)} invalid for CBC"
        )
    round_keys = key.round_keys()
    iv = ciphertext[:BLOCK_SIZE]
    out = bytearray()
    prev = iv
    for i in range(BLOCK_SIZE, len(ciphertext), BLOCK_SIZE):
        block = ciphertext[i : i + BLOCK_SIZE]
        plain = decrypt_block(block, round_keys)
        out += bytes(a ^ b for a, b in zip(plain, prev, strict=True))
        prev = block
    return pkcs7_unpad(bytes(out))
