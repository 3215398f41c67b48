"""Corruption and crash-recovery: the decoder must fail closed.

Every fixture damages a valid segment a different way; the reader must
raise the typed :class:`CaptureFormatError` — never crash with an
unrelated exception, never return wrong columns.  The crash-recovery
tests check the flip side: damage confined to the *tail* segment (what a
killed writer leaves behind) must not take down the completed segments
before it.
"""

import random
import struct
import zlib

import numpy as np
import pytest

from repro.capture import CaptureFormatError, CaptureReader, CaptureWriter
from repro.capture.format import (
    DIR_DTYPE,
    DIR_ENTRY_SIZE,
    HEADER_SIZE,
    TRAILER_SIZE,
    TRAILER_STRUCT,
    unpack_trailer,
)

pytestmark = pytest.mark.capture


@pytest.fixture
def store(tmp_path):
    """One healthy single-segment store plus its segment path."""
    path = tmp_path / "cap"
    with CaptureWriter(path) as writer:
        rng = np.random.default_rng(11)
        now = 0.0
        for k in range(8):
            now += 25.0
            times = np.sort(rng.uniform(now - 40, now, 16))
            writer.on_push(f"sig{k % 3}", times, rng.standard_normal(16), now)
    (segment,) = sorted(path.glob("*.gseg"))
    return path, segment


def read_everything(path, **kwargs):
    """Force full decode: open, walk every block, read every signal."""
    reader = CaptureReader(path, **kwargs)
    for _, block in reader.iter_blocks():
        assert block.times.shape == block.values.shape
    for name in reader.names:
        reader.read_signal(name)
    return reader


def rewrite_directory(segment, mutate):
    """Patch directory entries (and re-seal dir_crc) to forge bogus
    metadata that plain bit-flips could not reach past the CRC."""
    raw = bytearray(segment.read_bytes())
    dir_offset, _ = unpack_trailer(bytes(raw[-TRAILER_SIZE:]))
    dir_end = len(raw) - TRAILER_SIZE
    directory = np.frombuffer(bytes(raw[dir_offset:dir_end]), dtype=DIR_DTYPE).copy()
    mutate(directory)
    dir_bytes = directory.tobytes()
    raw[dir_offset:dir_end] = dir_bytes
    raw[-TRAILER_SIZE:] = TRAILER_STRUCT.pack(
        dir_offset, zlib.crc32(dir_bytes), b"GSCF"
    )
    segment.write_bytes(bytes(raw))


class TestFailClosed:
    def test_truncated_segment(self, store):
        path, segment = store
        raw = segment.read_bytes()
        segment.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CaptureFormatError):
            read_everything(path)

    def test_mid_header_eof(self, store):
        path, segment = store
        segment.write_bytes(segment.read_bytes()[: HEADER_SIZE // 2])
        with pytest.raises(CaptureFormatError, match="truncated"):
            read_everything(path)

    def test_mid_name_table_eof(self, store):
        path, segment = store
        segment.write_bytes(segment.read_bytes()[: HEADER_SIZE + 2])
        with pytest.raises(CaptureFormatError):
            read_everything(path)

    def test_flipped_header_byte(self, store):
        path, segment = store
        raw = bytearray(segment.read_bytes())
        raw[20] ^= 0xFF  # inside t_min: header CRC must catch it
        segment.write_bytes(bytes(raw))
        with pytest.raises(CaptureFormatError, match="header CRC"):
            read_everything(path)

    def test_flipped_block_payload_byte(self, store):
        path, segment = store
        raw = bytearray(segment.read_bytes())
        raw[HEADER_SIZE + 40] ^= 0x01  # a sample byte in the body
        segment.write_bytes(bytes(raw))
        with pytest.raises(CaptureFormatError, match="payload CRC"):
            read_everything(path)

    def test_flipped_stored_crc_byte(self, store):
        """Flipping a stored CRC byte (inside the directory) must fail
        at the directory checksum, before any column is decoded."""
        path, segment = store
        raw = bytearray(segment.read_bytes())
        dir_offset, _ = unpack_trailer(bytes(raw[-TRAILER_SIZE:]))
        crc_field = dir_offset + DIR_DTYPE.fields["crc"][1]
        raw[crc_field] ^= 0x10
        segment.write_bytes(bytes(raw))
        with pytest.raises(CaptureFormatError, match="directory CRC"):
            read_everything(path)

    def test_forged_block_crc_fails_on_block(self, store):
        """A *consistently re-sealed* wrong block CRC gets past the
        directory checksum and must then fail on the block itself."""
        path, segment = store

        def forge(directory):
            directory["crc"][3] ^= 0xDEAD

        rewrite_directory(segment, forge)
        with pytest.raises(CaptureFormatError, match="payload CRC"):
            read_everything(path)

    def test_bogus_count(self, store):
        path, segment = store

        def forge(directory):
            directory["count"][2] += 1000

        rewrite_directory(segment, forge)
        with pytest.raises(CaptureFormatError, match="bogus count|tile"):
            read_everything(path)

    def test_bogus_name_id(self, store):
        path, segment = store

        def forge(directory):
            directory["name_id"][1] = 999

        rewrite_directory(segment, forge)
        with pytest.raises(CaptureFormatError, match="name id"):
            read_everything(path)

    def test_bogus_offset(self, store):
        path, segment = store

        def forge(directory):
            directory["offset"][0] += 8

        rewrite_directory(segment, forge)
        with pytest.raises(CaptureFormatError, match="tile"):
            read_everything(path)

    def test_forged_non_finite_push_instant(self, store):
        """A NaN push instant would become a NaN replay deadline and
        wedge the event loop; the reader must reject it at open."""
        path, segment = store

        def forge(directory):
            directory["push_now"][1] = float("nan")

        rewrite_directory(segment, forge)
        with pytest.raises(CaptureFormatError, match="non-finite push instant"):
            read_everything(path)

    def test_forged_t_max_fails_on_seek(self, store):
        """A re-sealed directory t_max promising samples the payload
        lacks must raise the typed error at seek, not an assert."""
        path, segment = store
        reader = CaptureReader(path)
        honest_max = reader.end_time_ms
        reader.close()

        def forge(directory):
            directory["t_max"][-1] = honest_max + 1_000.0

        rewrite_directory(segment, forge)
        with pytest.raises(CaptureFormatError, match="promises a sample"):
            CaptureReader(path).seek(honest_max + 500.0)

    def test_flipped_trailer_magic(self, store):
        path, segment = store
        raw = bytearray(segment.read_bytes())
        raw[-1] ^= 0xFF
        segment.write_bytes(bytes(raw))
        with pytest.raises(CaptureFormatError, match="trailer magic|torn"):
            read_everything(path)

    def test_wrong_segment_ordinal(self, store):
        path, segment = store
        segment.rename(path / "00000005.gseg")
        with pytest.raises(CaptureFormatError, match="expected"):
            read_everything(path)

    def test_fuzz_random_byte_flips_never_crash(self, store):
        """Any single flipped byte either reads back clean-equal or
        raises CaptureFormatError — nothing else escapes."""
        path, segment = store
        pristine = segment.read_bytes()
        reference = CaptureReader(path)
        ref_columns = reference.columns()
        rng = random.Random(42)
        for _ in range(60):
            index = rng.randrange(len(pristine))
            raw = bytearray(pristine)
            raw[index] ^= 1 << rng.randrange(8)
            segment.write_bytes(bytes(raw))
            try:
                reader = read_everything(path)
            except CaptureFormatError:
                continue  # failed closed, as required
            # Survivable flips may only touch redundant metadata —
            # the decoded columns must still be byte-identical.
            got = reader.columns()
            for a, b in zip(ref_columns, got):
                np.testing.assert_array_equal(a, b)
        segment.write_bytes(pristine)


class TestCrashRecovery:
    def multi_segment_store(self, tmp_path, segments=4):
        path = tmp_path / "cap"
        writer = CaptureWriter(path, segment_samples=16)
        now = 0.0
        for k in range(segments * 2):  # 2 blocks of 8 per segment
            now += 10.0
            times = np.linspace(now - 5, now, 8)
            writer.on_push("sig", times, times * 2, now)
        writer.close()
        assert writer.segments_written == segments
        return path

    def test_torn_tail_segment_recoverable(self, tmp_path):
        path = self.multi_segment_store(tmp_path)
        files = sorted(path.glob("*.gseg"))
        tail = files[-1]
        tail_bytes = tail.read_bytes()
        # Simulate a writer killed mid-flush: the tail is half-written.
        tail.write_bytes(tail_bytes[: len(tail_bytes) // 3])

        # Strict mode fails closed ...
        with pytest.raises(CaptureFormatError):
            CaptureReader(path)
        # ... recovery mode reads every completed segment.
        reader = CaptureReader(path, recover_tail=True)
        assert reader.skipped_tail == tail.name
        assert len(reader.segments) == len(files) - 1
        times, values = reader.read_signal("sig")
        assert times.shape[0] == (len(files) - 1) * 16
        np.testing.assert_array_equal(values, times * 2)

    def test_recovery_never_hides_mid_store_damage(self, tmp_path):
        path = self.multi_segment_store(tmp_path)
        files = sorted(path.glob("*.gseg"))
        middle = files[1]
        middle.write_bytes(middle.read_bytes()[:40])
        with pytest.raises(CaptureFormatError):
            CaptureReader(path, recover_tail=True)

    def test_torn_tail_catch_up_never_replays_partial_blocks(self, tmp_path):
        """Catch-up over a torn store delivers every completed block's
        samples exactly once and the torn tail's samples zero times —
        and a second catch-up pass (a restart of the restart) replays
        the identical set, so a partial block can never sneak in twice.
        """
        from repro.capture import catch_up
        from repro.eventloop.loop import MainLoop

        path = self.multi_segment_store(tmp_path)
        files = sorted(path.glob("*.gseg"))
        tail = files[-1]
        tail_bytes = tail.read_bytes()
        tail.write_bytes(tail_bytes[: len(tail_bytes) // 3])

        class Recorder:
            def __init__(self):
                self.times = []

            def push_samples(self, name, times, values):
                self.times.append(np.array(times, copy=True))
                return len(times)

        def run_catch_up():
            loop = MainLoop()
            target = Recorder()
            reader = CaptureReader(path, recover_tail=True)
            assert reader.skipped_tail == tail.name
            catch_up(reader, target, loop, through_ms=1e9)
            return np.concatenate(target.times)

        first = run_catch_up()
        # Exactly the completed segments' samples, each exactly once.
        assert first.shape[0] == (len(files) - 1) * 16
        assert np.unique(first).shape[0] == first.shape[0]
        # Second pass: byte-identical, still nothing from the torn tail.
        np.testing.assert_array_equal(run_catch_up(), first)

    def test_unflushed_pending_blocks_are_lost_not_corrupting(self, tmp_path):
        path = tmp_path / "cap"
        writer = CaptureWriter(path, segment_samples=16)
        now = 0.0
        for k in range(3):  # flushes one 16-sample segment, leaves 8 pending
            now += 10.0
            writer.on_push("sig", np.linspace(now - 5, now, 8), np.ones(8), now)
        # No close(): the writer dies with blocks pending.  Whatever hit
        # the disk is a complete, valid store.
        reader = CaptureReader(path)
        assert reader.sample_count == 16


class TestReadPathModes:
    """The native gather (CRC check and copy in one C pass) and the numpy
    fallback (``REPRO_NATIVE=0``, the oracle) read identical bytes and
    fail on the same block."""

    @pytest.fixture
    def modes(self, monkeypatch):
        from repro.capture import reader as reader_module
        from repro.core import native

        def use(mode):
            if mode == "numpy":
                monkeypatch.setenv("REPRO_NATIVE", "0")
            else:
                monkeypatch.delenv("REPRO_NATIVE", raising=False)
            native.reset()
            gather = reader_module._native_gather()
            if mode == "native" and gather is None:
                pytest.skip("no C toolchain with zlib: native gather unavailable")
            assert (gather is None) == (mode == "numpy")

        yield use
        native.reset()

    @staticmethod
    def write_store(path):
        rng = np.random.default_rng(5)
        with CaptureWriter(path, segment_samples=40) as writer:
            now = 0.0
            for k in range(30):
                now += 10.0
                n = int(rng.integers(1, 9))
                times = np.sort(rng.uniform(now - 20, now, n))
                writer.on_push(f"sig{k % 3}", times, rng.standard_normal(n), now)
            writer.on_push("once", np.array([1.0]), np.array([2.0]), now)

    @staticmethod
    def read(path):
        reader = CaptureReader(path)
        assert len(reader.segments) > 2
        # Pre-verify some blocks so the gather meets both kinds.
        for segment in reader.segments[::2]:
            segment.verify_block(0)
        together = reader.columns_for(reader.names)
        return {
            name: [column.tobytes() for column in together[name] + reader.read_signal(name)]
            for name in reader.names
        }

    def test_native_and_numpy_read_identical_bytes(self, tmp_path, modes):
        path = tmp_path / "cap"
        self.write_store(path)
        modes("native")
        native_bytes = self.read(path)
        modes("numpy")
        assert self.read(path) == native_bytes
        assert set(native_bytes) == {"sig0", "sig1", "sig2", "once"}

    def test_flipped_payload_byte_names_same_block(self, tmp_path, modes):
        path = tmp_path / "cap"
        self.write_store(path)
        reader = CaptureReader(path)
        segment = reader.segments[1]
        name_id = segment.names.index("sig1")
        hits = np.flatnonzero(segment.directory["name_id"] == name_id)
        assert hits.size > 1
        bad = int(hits[-1])  # not the first block of the gather
        offset = int(segment.directory["offset"][bad])
        seg_path = segment.path
        reader.close()
        raw = bytearray(seg_path.read_bytes())
        raw[offset + 3] ^= 0x40
        seg_path.write_bytes(bytes(raw))
        expected = f"{seg_path.name}: block {bad} payload CRC mismatch"
        for mode in ("native", "numpy"):
            modes(mode)
            with pytest.raises(CaptureFormatError, match=expected):
                CaptureReader(path).columns_for(["sig0", "sig1"])
