import random
import sys
from pathlib import Path

import pytest

# allow running pytest from a fresh clone without installing the package
SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


@pytest.fixture(scope="session")
def prime_pair_128():
    """Two seeded 64-bit primes: their product is a 128-bit modulus that no
    trial division or rho budget can factor."""
    from edr.rings import is_prime

    rng = random.Random(128)
    primes = []
    while len(primes) < 2:
        v = rng.getrandbits(64) | (1 << 63) | 1
        if is_prime(v):
            primes.append(v)
    return tuple(primes)
