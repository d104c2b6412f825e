"""Pluggable randomness sources with deterministic replay.

Three kinds: a seeded PRNG (PCG64), a raw bit file, and beacon-style
hex records. All sources expose the same two primitives:

* ``bit()`` -- one fair bit (0 or 1);
* ``uniform()`` -- one float in [0, 1).

Bit-backed sources consume their stream most-significant-bit first and
build uniforms from 53 bits; the PRNG derives bits by thresholding one
double at 1/2, so every primitive advances the underlying stream by a
fixed, documented amount. Finite sources raise once exhausted; a bit
shortfall is never papered over with pseudo-random fill.

Sessions draw through one more primitive, ``draw_rounds(rounds, n,
outcome)``: whole game rounds at once, each one x uniform, n y bits and,
when ``outcome`` is set, one outcome uniform. It returns exactly what the
same sequence of ``uniform()``/``bit()`` calls would, and advances the
stream by as much. A finite source that cannot fund every requested round
consumes the rest of its stream and raises with the whole rounds it could
have funded in ``rounds_completed``.
"""

from __future__ import annotations

from collections.abc import Sequence
from numbers import Integral
from pathlib import Path

import numpy as np

from .errors import RandomnessExhaustedError, ValidationError

RECORD_BITS = 512
RECORD_HEX_CHARS = RECORD_BITS // 4
UNIFORM_BITS = 53
# Place values of a uniform's bits, most significant first.
_UNIFORM_WEIGHTS = np.uint64(1) << np.arange(UNIFORM_BITS - 1, -1, -1, dtype=np.uint64)
# Raw stream data: anything else (an int, a bool, a list of ints) is refused,
# since bytes() would turn a number into that many zero bytes.
_BYTES_LIKE = (bytes, bytearray, memoryview)


class RandomnessSource:
    """Base interface; see module docstring for the stream contract."""

    kind = "abstract"

    def bit(self) -> int:
        raise NotImplementedError

    def uniform(self) -> float:
        raise NotImplementedError

    def draw_rounds(self, rounds: int, n: int, outcome: bool):
        """x uniforms ``(rounds,)``, y bits ``(rounds, n)`` as int8 0/1, and
        outcome uniforms ``(rounds,)`` if ``outcome`` (else None)."""
        raise NotImplementedError

    def describe(self) -> dict:
        return {"kind": self.kind}


class SeededPrng(RandomnessSource):
    """PCG64 stream; one double per ``uniform()`` and per ``bit()``."""

    kind = "seeded-prng"

    def __init__(self, seed: int):
        if isinstance(seed, bool) or not isinstance(seed, Integral) or seed < 0:
            raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
        self.seed = int(seed)
        self._rng = np.random.Generator(np.random.PCG64(self.seed))

    def bit(self) -> int:
        return 1 if self._rng.random() >= 0.5 else 0

    def uniform(self) -> float:
        return float(self._rng.random())

    def uniform_array(self, shape) -> np.ndarray:
        return self._rng.random(shape)

    def draw_rounds(self, rounds: int, n: int, outcome: bool):
        draws = self.uniform_array((rounds, n + 1 + int(outcome)))
        y = (draws[:, 1:n + 1] >= 0.5).astype(np.int8)
        return draws[:, 0], y, draws[:, n + 1] if outcome else None

    def describe(self) -> dict:
        return {"kind": self.kind, "generator": "pcg64", "seed": self.seed}


class BitStreamSource(RandomnessSource):
    """Finite stream of raw bits, consumed MSB-first byte by byte; the data
    must be bytes, a bytearray or a memoryview."""

    kind = "bit-stream"

    def __init__(self, data: bytes, origin: str = "<memory>"):
        if not isinstance(data, _BYTES_LIKE):
            raise ValidationError(f"bit stream data must be bytes-like, got {type(data).__name__}")
        self._bits = np.unpackbits(np.frombuffer(bytes(data), dtype=np.uint8))
        self.origin = str(origin)
        self.cursor = 0

    @property
    def bits_total(self) -> int:
        return int(self._bits.shape[0])

    def bit(self) -> int:
        if self.cursor >= self._bits.shape[0]:
            raise RandomnessExhaustedError(
                f"bit stream from {self.origin} exhausted after {self.cursor} bits",
                bits_consumed=self.cursor)
        value = int(self._bits[self.cursor])
        self.cursor += 1
        return value

    def uniform(self) -> float:
        value = 0
        for _ in range(UNIFORM_BITS):
            value = (value << 1) | self.bit()
        return value / float(1 << UNIFORM_BITS)

    def draw_rounds(self, rounds: int, n: int, outcome: bool):
        stride = UNIFORM_BITS + n + (UNIFORM_BITS if outcome else 0)
        funded = (self.bits_total - self.cursor) // stride
        if funded < rounds:
            self.cursor = self.bits_total
            raise RandomnessExhaustedError(
                f"bit stream from {self.origin} exhausted after {self.cursor} bits",
                bits_consumed=self.cursor, rounds_completed=funded)
        block = self._bits[self.cursor:self.cursor + rounds * stride].reshape(rounds, stride)
        self.cursor += rounds * stride
        y_end = UNIFORM_BITS + n
        return (_uniforms(block[:, :UNIFORM_BITS]), block[:, UNIFORM_BITS:y_end].astype(np.int8),
                _uniforms(block[:, y_end:]) if outcome else None)

    def describe(self) -> dict:
        return {"kind": self.kind, "origin": self.origin, "bits": self.bits_total}


def _uniforms(bits: np.ndarray) -> np.ndarray:
    """Uniforms from rows of 53 bits; exact, as the integers stay below 2^53."""
    return (bits @ _UNIFORM_WEIGHTS) / float(1 << UNIFORM_BITS)


class BitFileSource(BitStreamSource):
    """Raw binary file treated as a bit stream."""

    kind = "bit-file"

    def __init__(self, path):
        path = Path(path)
        super().__init__(path.read_bytes(), origin=str(path))


class BeaconRecordsSource(BitStreamSource):
    """Concatenated 512-bit beacon records, in record order."""

    kind = "beacon-records"

    def __init__(self, records: list[bytes], origin: str = "<memory>"):
        if isinstance(records, (str, *_BYTES_LIKE)) or not isinstance(records, Sequence):
            raise ValidationError("beacon records must be a sequence of bytes-like records, "
                                  f"got {type(records).__name__}")
        for k, record in enumerate(records):
            if not isinstance(record, _BYTES_LIKE):
                raise ValidationError(f"record {k} must be bytes-like, got {type(record).__name__}")
            if len(record) != RECORD_BITS // 8:
                raise ValidationError(f"record {k} has {len(record)} bytes, expected 64")
        super().__init__(b"".join(records), origin=origin)

    def describe(self) -> dict:
        return {"kind": self.kind, "origin": self.origin,
                "records": self.bits_total // RECORD_BITS, "bits": self.bits_total}


def parse_beacon_records(text: str, origin: str = "<memory>") -> list[bytes]:
    """Parse newline-separated 128-hex-character records.

    Malformed or truncated input raises with the byte offset of the
    offending line within the document.
    """
    records = []
    offset = 0
    for line in text.splitlines(keepends=True):
        stripped = line.strip()
        if stripped:
            if len(stripped) != RECORD_HEX_CHARS:
                raise ValidationError(
                    f"{origin}: record at byte offset {offset} has {len(stripped)} hex chars, "
                    f"expected {RECORD_HEX_CHARS}")
            try:
                records.append(bytes.fromhex(stripped))
            except ValueError:
                raise ValidationError(
                    f"{origin}: record at byte offset {offset} is not valid hex") from None
        offset += len(line)
    if not records:
        raise ValidationError(f"{origin}: no beacon records found")
    return records


def beacon_load(source, cache_path=None) -> BeaconRecordsSource:
    """Load beacon records from a local file or fetch them from a URL.

    Fetched documents are written verbatim to ``cache_path`` (required in
    fetch mode) so later runs can replay offline from the cached file.
    Network or parse failures raise; the protocol never falls back to a
    PRNG on its own.
    """
    source = str(source)
    if source.startswith(("http://", "https://", "file://")):
        if cache_path is None:
            raise ValidationError("fetching beacon records requires cache_path for replay")
        import urllib.request  # costs tens of ms at import; only fetching needs it

        try:
            with urllib.request.urlopen(source) as response:
                text = response.read().decode("ascii")
        except Exception as exc:
            raise ValidationError(f"failed to fetch beacon records from {source}: {exc}") from exc
        records = parse_beacon_records(text, origin=source)
        Path(cache_path).write_text(text)
        return BeaconRecordsSource(records, origin=source)
    path = Path(source)
    try:
        text = path.read_text(encoding="ascii")
    except UnicodeDecodeError:
        raise ValidationError(f"{path}: beacon records must be ASCII hex text") from None
    records = parse_beacon_records(text, origin=str(path))
    return BeaconRecordsSource(records, origin=str(path))
