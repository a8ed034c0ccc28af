"""Schnorr groups: the modp backend of the paper's discrete-log setting
(§2.3).

A :class:`SchnorrGroup` wraps parameters ``(p, q, g)`` — a prime-order-q
multiplicative subgroup of ``Z_p^*`` — and provides the group and scalar
arithmetic the protocols need: exponentiation, scalar field operations
mod q, random scalars, and (de)serialization with stable byte sizes so
the metrics layer can meter communication complexity.  It implements the
backend interface of :class:`repro.crypto.backend.AbstractGroup`; the
elliptic-curve sibling is :class:`repro.crypto.ec.EcGroup`, reachable
from the same :func:`group_by_name` registry under ``"secp256k1"``.

Three kinds of parameter sets are exposed:

* :func:`toy_group`, :func:`small_group`, :func:`medium_group` —
  deterministically generated small parameters used by tests and
  benchmarks, where protocol logic rather than bignum arithmetic should
  dominate the runtime;
* :data:`RFC5114_1024_160` and :func:`large_group` — standardized /
  generated MODP groups with prime-order subgroups, for realistic-size
  runs;
* ``group_by_name("secp256k1")`` — the elliptic-curve backend at
  matched ~128-bit security against 2048-bit modp groups.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.crypto.intops import invert, powmod
from repro.crypto import metering
from repro.crypto.multiexp import (
    CombPair,
    SharedBases,
    fixed_base_table,
    multiexp,
)
from repro.crypto.primes import SchnorrParams, generate_schnorr_params


@dataclass(frozen=True)
class SchnorrGroup:
    """A prime-order multiplicative subgroup of Z_p^*.

    Group elements are plain ints in ``[1, p)``; scalars are ints in
    ``[0, q)``.  All methods are pure.
    """

    p: int
    q: int
    g: int
    name: str = field(default="custom", compare=False)

    # -- scalar field (Z_q) ------------------------------------------------

    def scalar(self, x: int) -> int:
        """Reduce an integer into the scalar field Z_q."""
        return x % self.q

    def scalar_add(self, a: int, b: int) -> int:
        return (a + b) % self.q

    def scalar_sub(self, a: int, b: int) -> int:
        return (a - b) % self.q

    def scalar_mul(self, a: int, b: int) -> int:
        return (a * b) % self.q

    def scalar_neg(self, a: int) -> int:
        return (-a) % self.q

    def scalar_inv(self, a: int) -> int:
        """Multiplicative inverse in Z_q; raises ZeroDivisionError on 0."""
        if a % self.q == 0:
            raise ZeroDivisionError("0 has no inverse in Z_q")
        return invert(a, self.q)

    def random_scalar(self, rng: random.Random) -> int:
        """Uniform scalar in [0, q)."""
        return rng.randrange(self.q)

    def random_nonzero_scalar(self, rng: random.Random) -> int:
        """Uniform scalar in [1, q)."""
        return rng.randrange(1, self.q)

    # -- group (G subset of Z_p^*) -----------------------------------------

    @property
    def identity(self) -> int:
        return 1

    def power(self, base: int, exponent: int) -> int:
        """base ** exponent mod p (exponent reduced mod q)."""
        metering.MODP.power += 1
        return powmod(base, exponent % self.q, self.p)

    def commit(self, exponent: int) -> int:
        """g ** exponent mod p — the Feldman commitment of one scalar.

        Routed through the process-wide fixed-base window table for
        ``g`` (built once per parameter set), which replaces the
        squaring chain of ``pow`` with ~|q|/5 multiplications.
        """
        metering.MODP.commit += 1
        return fixed_base_table(self.p, self.q, self.g).pow(exponent)

    def commit_many(self, exponents) -> list[int]:
        """``[self.commit(e) for e in exponents]``, metered alike."""
        exponents = list(exponents)
        metering.MODP.commit += len(exponents)
        return fixed_base_table(self.p, self.q, self.g).pow_many(exponents)

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        return invert(a, self.p)

    def is_element(self, a: int) -> bool:
        """Membership test: a in [1, p) and a^q == 1 (prime-order subgroup)."""
        return (
            isinstance(a, int) and 0 < a < self.p
            and powmod(a, self.q, self.p) == 1
        )

    # -- multiexp engines (the backend-generic entry points) -----------------

    def multiexp(self, pairs) -> int:
        """``prod_i base_i^{exp_i}`` via the shared-squaring-chain engine."""
        metering.MODP.multiexp += 1
        return multiexp(pairs, self.p, self.q)

    def fixed_base(self, base: int):
        return fixed_base_table(self.p, self.q, base)

    def shared_bases(self, bases) -> SharedBases:
        return SharedBases(tuple(bases), self.p, self.q)

    def comb_pair(self, base: int) -> CombPair:
        return CombPair(self.p, self.q, self.g, base)

    def batch_verifier(self, entries, base: int | None = None):
        from repro.crypto.backend import BatchedClaimVerifier

        return BatchedClaimVerifier(self, entries, base)

    # -- sizes (for communication metering) ---------------------------------

    @property
    def element_bytes(self) -> int:
        """Serialized size of one group element."""
        return (self.p.bit_length() + 7) // 8

    @property
    def scalar_bytes(self) -> int:
        """Serialized size of one scalar."""
        return (self.q.bit_length() + 7) // 8

    @property
    def security_bits(self) -> int:
        """kappa: the bit length of the subgroup order q."""
        return self.q.bit_length()

    # -- serialization -------------------------------------------------------

    def element_to_bytes(self, a: int) -> bytes:
        return a.to_bytes(self.element_bytes, "big")

    def element_from_bytes(self, raw: bytes) -> int:
        a = int.from_bytes(raw, "big")
        if not self.is_element(a):
            raise ValueError("bytes do not encode a group element")
        return a

    def element_decode(self, raw: bytes) -> int:
        """Wire-grade structural decode: cheap range parse, no subgroup
        check (verification rejects non-elements downstream, exactly as
        the pre-backend codec behaved)."""
        return int.from_bytes(raw, "big")

    def scalar_to_bytes(self, x: int) -> bytes:
        return (x % self.q).to_bytes(self.scalar_bytes, "big")

    def scalar_from_bytes(self, raw: bytes) -> int:
        return int.from_bytes(raw, "big") % self.q

    # -- hashing into the scalar field ---------------------------------------

    def hash_to_scalar(self, *parts: bytes) -> int:
        # Lazy import: repro.crypto.hashing imports feldman, which
        # imports this module.
        from repro.crypto.hashing import hash_to_scalar

        return hash_to_scalar(self.q, *parts)

    def validate(self) -> None:
        SchnorrParams(self.p, self.q, self.g).validate()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SchnorrGroup({self.name}, |q|={self.q.bit_length()} bits)"


# Every seeded group this process has generated, by self-reported name:
# the generators' memo, and all that :func:`known_group` may look in.
_built: dict[str, SchnorrGroup] = {}


def _seeded_group(family: str, seed: int, q_bits: int, p_bits: int) -> SchnorrGroup:
    name = f"{family}-{seed}"
    group = _built.get(name)
    if group is None:
        params = generate_schnorr_params(q_bits=q_bits, p_bits=p_bits, seed=seed)
        group = _built[name] = SchnorrGroup(params.p, params.q, params.g, name=name)
    return group


def toy_group(seed: int = 0) -> SchnorrGroup:
    """64-bit-q group: fast enough for whole-protocol property tests."""
    return _seeded_group("toy", seed, 64, 128)


def small_group(seed: int = 0) -> SchnorrGroup:
    """160-bit-q group: matches the classic DSA parameter shape."""
    return _seeded_group("small", seed, 160, 512)


def medium_group(seed: int = 0) -> SchnorrGroup:
    """256-bit-q group in a 1024-bit field: realistic modern shape."""
    return _seeded_group("medium", seed, 256, 1024)


# RFC 5114 section 2.1: 1024-bit MODP group with 160-bit prime-order subgroup.
RFC5114_1024_160 = SchnorrGroup(
    p=int(
        "B10B8F96A080E01DDE92DE5EAE5D54EC52C99FBCFB06A3C69A6A9DCA52D23B61"
        "6073E28675A23D189838EF1E2EE652C013ECB4AEA906112324975C3CD49B83BF"
        "ACCBDD7D90C4BD7098488E9C219A73724EFFD6FAE5644738FAA31A4FF55BCCC0"
        "A151AF5F0DC8B4BD45BF37DF365C1A65E68CFDA76D4DA708DF1FB2BC2E4A4371",
        16,
    ),
    q=int("F518AA8781A8DF278ABA4E7D64B7CB9D49462353", 16),
    g=int(
        "A4D1CBD5C3FD34126765A442EFB99905F8104DD258AC507FD6406CFF14266D31"
        "266FEA1E5C41564B777E690F5504F213160217B4B01B886A5E91547F9E2749F4"
        "D7FBD7D3B9A92EE1909D0D2263F80A76A6A24C087A091F531DBF0A0169B6A28A"
        "D662A4D18E73AFA32D779D5918D08BC8858F4DCEF97C2A24855E6EEB22B3B2E5",
        16,
    ),
    name="rfc5114-1024-160",
)

# RFC 5114 section 2.3: 2048-bit MODP group with 256-bit prime-order
# subgroup — the standardized reference shape for the paper's
# realistic-size runs (the deterministic ``large_group(0)`` generates
# the same |p|/|q| shape when an independent parameter set is wanted).
RFC5114_2048_256 = SchnorrGroup(
    p=int(
        "87A8E61DB4B6663CFFBBD19C651959998CEEF608660DD0F25D2CEED4435E3B00"
        "E00DF8F1D61957D4FAF7DF4561B2AA3016C3D91134096FAA3BF4296D830E9A7C"
        "209E0C6497517ABD5A8A9D306BCF67ED91F9E6725B4758C022E0B1EF4275BF7B"
        "6C5BFC11D45F9088B941F54EB1E59BB8BC39A0BF12307F5C4FDB70C581B23F76"
        "B63ACAE1CAA6B7902D52526735488A0EF13C6D9A51BFA4AB3AD8347796524D8E"
        "F6A167B5A41825D967E144E5140564251CCACB83E6B486F6B3CA3F7971506026"
        "C0B857F689962856DED4010ABD0BE621C3A3960A54E710C375F26375D7014103"
        "A4B54330C198AF126116D2276E11715F693877FAD7EF09CADB094AE91E1A1597",
        16,
    ),
    q=int(
        "8CF83642A709A097B447997640129DA299B1A47D1EB3750BA308B0FE64F5FBD3",
        16,
    ),
    g=int(
        "3FB32C9B73134D0B2E77506660EDBD484CA7B18F21EF205407F4793A1A0BA125"
        "10DBC15077BE463FFF4FED4AAC0BB555BE3A6C1B0C6B47B1BC3773BF7E8C6F62"
        "901228F8C28CBB18A55AE31341000A650196F931C77A57F2DDF463E5E9EC144B"
        "777DE62AAAB8A8628AC376D282D6ED3864E67982428EBC831D14348F6F2F9193"
        "B5045AF2767164E1DFC967C1FB3F2E55A4BD1BFFE83B9C80D052B985D182EA0A"
        "DB2A3B7313D3FE14C8484B1E052588B9B7D2BBD2DF016199ECD06E1557CD0915"
        "B3353BBB64E0EC377FD028370DF92B52C7891428CDC67EB6184B523D1DB246C3"
        "2F63078490F00EF8D647D148D47954515E2327CFEF98C582664B4C0F6CC41659",
        16,
    ),
    name="rfc5114-2048-256",
)


def large_group(seed: int = 0) -> SchnorrGroup:
    """256-bit-q group in a 2048-bit field (slow to generate; lazy+cached)."""
    return _seeded_group("large", seed, 256, 2048)


GROUP_REGISTRY = {
    "toy": toy_group,
    "small": small_group,
    "medium": medium_group,
    "large": large_group,
}

BACKENDS = ("modp", "secp256k1")


def known_group(name: str):
    """The group ``name`` denotes if finding out costs no parameter
    search — a fixed-parameter set, or a seeded group this process has
    already built — else ``None``.  What an untrusted name may reach."""
    if name == "rfc5114-1024-160":
        return RFC5114_1024_160
    if name == "rfc5114-2048-256":
        return RFC5114_2048_256
    if name == "secp256k1":
        from repro.crypto.ec import secp256k1_group

        return secp256k1_group()
    return _built.get(name)


def group_by_name(name: str, seed: int = 0):
    """Look up a named parameter set, generating it if need be.

    modp sets: toy/small/medium/large (seeded) and the rfc5114 groups;
    ``"secp256k1"`` resolves to the elliptic-curve backend
    (:class:`repro.crypto.ec.EcGroup`) at matched ~128-bit security
    against 2048-bit modp groups.  A group's self-reported name
    (``"toy-3"``: family and seed) resolves too, so a name recorded in
    a capture or a STATUS response leads back to its group.  For names
    the caller trusts: a ``large-<seed>`` is a multi-second parameter
    search.  Bytes off the network go through :func:`known_group`.
    """
    if name in GROUP_REGISTRY:
        return GROUP_REGISTRY[name](seed)
    group = known_group(name)
    if group is not None:
        return group
    family, sep, digits = name.rpartition("-")
    if sep and family in GROUP_REGISTRY and digits.isascii() and digits.isdigit():
        return GROUP_REGISTRY[family](int(digits))
    raise KeyError(f"unknown group {name!r}")
