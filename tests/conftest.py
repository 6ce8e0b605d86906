import pytest

from pfalab.aes import key_expand
from pfalab.rng import Rng
from pfalab.sbox import AES_INV_SBOX, AES_SBOX
from pfalab.sbox_analysis import build_detection_pair, build_redundant_tables

from helpers import with_entry


@pytest.fixture(scope="session")
def pair():
    return build_detection_pair(AES_SBOX)


@pytest.fixture(scope="session")
def tables():
    return build_redundant_tables(AES_SBOX)


@pytest.fixture(scope="session")
def faulted_cases():
    """64 seeded (index, round keys, block, table, inverse table) cases,
    each table with three entries overwritten."""
    rng = Rng(2024)
    cases = []
    for i in range(64):
        rk = key_expand(rng.randbytes(16))
        block = rng.randbytes(16)
        table, inv_table = AES_SBOX, AES_INV_SBOX
        for _ in range(3):
            table = with_entry(table, rng.randrange(256),
                               rng.randrange(256))
            inv_table = with_entry(inv_table, rng.randrange(256),
                                   rng.randrange(256))
        cases.append((i, rk, block, table, inv_table))
    return cases
