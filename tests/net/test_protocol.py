"""Tests for the wire protocols (text tuple lines and binary frames)."""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.tuples import TupleFormatError
from repro.net.protocol import (
    FRAME_HEADER,
    FrameDecoder,
    FrameKind,
    LineDecoder,
    MAGIC,
    MAX_FRAME_SAMPLES,
    MAX_NAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    WireDecoder,
    decode_lines,
    encode_binary_samples,
    encode_hello,
    encode_name_def,
    encode_sample,
)


class TestEncode:
    def test_frame_shape(self):
        assert encode_sample(100, 42, "CWND") == b"100 42 CWND\n"

    def test_unnamed_sample(self):
        assert encode_sample(100, 42) == b"100 42\n"


class TestLineDecoder:
    def test_complete_lines(self):
        dec = LineDecoder()
        assert dec.feed(b"a\nb\n") == ["a", "b"]
        assert dec.pending == b""

    def test_partial_line_carried(self):
        dec = LineDecoder()
        assert dec.feed(b"hel") == []
        assert dec.pending == b"hel"
        assert dec.feed(b"lo\n") == ["hello"]

    def test_multiple_partials(self):
        dec = LineDecoder()
        out = []
        for chunk in (b"1 2", b" a\n3 ", b"4 b", b"\n"):
            out.extend(dec.feed(chunk))
        assert out == ["1 2 a", "3 4 b"]


class TestDecodeLines:
    def test_tuples_parsed(self):
        tuples, dec = decode_lines(b"10 1 x\n20 2 y\n")
        assert [(t.time_ms, t.value, t.name) for t in tuples] == [
            (10.0, 1.0, "x"),
            (20.0, 2.0, "y"),
        ]

    def test_comments_skipped(self):
        tuples, _ = decode_lines(b"# hello\n10 1 x\n\n")
        assert len(tuples) == 1

    def test_partial_tuple_not_emitted_early(self):
        tuples, dec = decode_lines(b"10 1 x\n20 2")
        assert len(tuples) == 1
        tuples, dec = decode_lines(b" y\n", dec)
        assert [(t.time_ms, t.name) for t in tuples] == [(20.0, "y")]

    def test_malformed_raises(self):
        with pytest.raises(TupleFormatError):
            decode_lines(b"not a tuple at all\n")

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e6, allow_nan=False),
                st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            ),
            min_size=1,
            max_size=30,
        ),
        st.integers(min_value=1, max_value=7),
    )
    def test_arbitrary_chunking_preserves_stream(self, samples, chunk_size):
        """However the network fragments the stream, the decoded tuples
        are exactly the encoded ones, in order."""
        wire = b"".join(encode_sample(t, v, "s") for t, v in samples)
        decoder = LineDecoder()
        out = []
        for i in range(0, len(wire), chunk_size):
            tuples, decoder = decode_lines(wire[i : i + chunk_size], decoder)
            out.extend(tuples)
        assert [(t.time_ms, t.value) for t in out] == [
            (float(t), float(v)) for t, v in samples
        ]


class TestLineDecoderBound:
    def test_partial_at_cap_is_fine(self):
        dec = LineDecoder(max_line_bytes=16)
        assert dec.feed(b"x" * 16) == []
        assert dec.feed(b"\n") == ["x" * 16]

    def test_partial_past_cap_is_protocol_error(self):
        dec = LineDecoder(max_line_bytes=16)
        with pytest.raises(ProtocolError, match="cap"):
            dec.feed(b"x" * 17)
        # The oversized partial is discarded, not retained.
        assert dec.pending == b""

    def test_cap_reached_across_many_feeds(self):
        """A peer trickling a newline-free stream cannot grow memory."""
        dec = LineDecoder(max_line_bytes=64)
        with pytest.raises(ProtocolError):
            for _ in range(100):
                dec.feed(b"abcdefgh")

    def test_complete_lines_unaffected_by_cap(self):
        dec = LineDecoder(max_line_bytes=8)
        # Long *terminated* lines pass; only the carried partial is bounded.
        assert dec.feed(b"1 2 a\n3 4 b\n") == ["1 2 a", "3 4 b"]

    def test_default_cap_is_64k(self):
        assert LineDecoder().max_line_bytes == 64 * 1024


class TestBinaryEncode:
    def test_hello_frame_shape(self):
        frame = encode_hello()
        assert len(frame) == FRAME_HEADER.size
        magic, version, kind, name_id, count = FRAME_HEADER.unpack(frame)
        assert (magic, version, kind, name_id, count) == (
            MAGIC,
            PROTOCOL_VERSION,
            FrameKind.HELLO,
            0,
            0,
        )

    def test_name_def_carries_utf8_payload(self):
        frame = encode_name_def(3, "CWND")
        assert frame[FRAME_HEADER.size :] == b"CWND"
        _, _, kind, name_id, count = FRAME_HEADER.unpack_from(frame)
        assert (kind, name_id, count) == (FrameKind.NAME_DEF, 3, 4)

    def test_samples_payload_is_contiguous_columns(self):
        times = np.array([1.0, 2.0, 3.0])
        values = np.array([10.0, 20.0, 30.0])
        frame = encode_binary_samples(7, times, values)
        header, payload = frame[: FRAME_HEADER.size], frame[FRAME_HEADER.size :]
        _, _, kind, name_id, count = FRAME_HEADER.unpack(header)
        assert (kind, name_id, count) == (FrameKind.SAMPLES, 7, 3)
        columns = times.astype("<f8").tobytes() + values.astype("<f8").tobytes()
        # v2 payload: the two columns followed by their crc32 trailer.
        assert payload == columns + struct.pack("<I", zlib.crc32(columns))

    def test_empty_batch_encodes_to_nothing(self):
        assert encode_binary_samples(0, [], []) == b""

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError):
            encode_binary_samples(0, [1.0, 2.0], [1.0])

    def test_whitespace_name_rejected(self):
        with pytest.raises(ProtocolError):
            encode_name_def(0, "bad name")

    def test_empty_name_rejected(self):
        with pytest.raises(ProtocolError):
            encode_name_def(0, "")

    def test_oversized_batch_splits_into_multiple_frames(self):
        n = MAX_FRAME_SAMPLES + 5
        t = np.arange(n, dtype=np.float64)
        wire = encode_binary_samples(1, t, t)
        frames = FrameDecoder().feed(wire)
        assert [len(f) for f in frames] == [MAX_FRAME_SAMPLES, 5]
        np.testing.assert_array_equal(
            np.concatenate([f.times for f in frames]), t
        )


class TestFrameDecoder:
    def roundtrip(self, wire, chunk_size):
        dec = FrameDecoder()
        frames = []
        for i in range(0, len(wire), chunk_size):
            frames.extend(dec.feed(wire[i : i + chunk_size]))
        return dec, frames

    def test_single_byte_fragmentation(self):
        """The harshest chunking — one byte per feed — decodes the
        stream identically to one big feed."""
        times = np.linspace(0.0, 99.0, 100)
        values = np.sin(times)
        wire = (
            encode_hello()
            + encode_name_def(0, "sig")
            + encode_binary_samples(0, times, values)
        )
        dec, frames = self.roundtrip(wire, 1)
        assert [f.kind for f in frames] == [
            FrameKind.HELLO,
            FrameKind.NAME_DEF,
            FrameKind.SAMPLES,
        ]
        assert frames[1].name == "sig"
        np.testing.assert_array_equal(frames[2].times, times)
        np.testing.assert_array_equal(frames[2].values, values)
        assert dec.pending == 0

    @given(st.integers(min_value=1, max_value=37))
    def test_arbitrary_chunking_preserves_stream(self, chunk_size):
        rng = np.random.default_rng(chunk_size)
        wire = b"".join(
            encode_name_def(i, f"s{i}")
            + encode_binary_samples(i, rng.random(9), rng.random(9))
            for i in range(4)
        )
        _, frames = self.roundtrip(wire, chunk_size)
        assert len(frames) == 8
        assert [f.name for f in frames[::2]] == ["s0", "s1", "s2", "s3"]

    def test_bad_magic_raises_immediately(self):
        dec = FrameDecoder()
        with pytest.raises(ProtocolError, match="magic"):
            dec.feed(b"\x00" * FRAME_HEADER.size)

    def test_bad_version_raises(self):
        frame = FRAME_HEADER.pack(MAGIC, 99, FrameKind.HELLO, 0, 0)
        with pytest.raises(ProtocolError, match="version"):
            FrameDecoder().feed(frame)

    def test_unknown_kind_raises(self):
        frame = FRAME_HEADER.pack(MAGIC, PROTOCOL_VERSION, 42, 0, 0)
        with pytest.raises(ProtocolError, match="kind"):
            FrameDecoder().feed(frame)

    def test_absurd_sample_count_rejected_from_header_alone(self):
        """A corrupt count must fail fast, not wait for 60 GiB."""
        frame = FRAME_HEADER.pack(
            MAGIC, PROTOCOL_VERSION, FrameKind.SAMPLES, 0, 0xFFFFFFFF
        )
        with pytest.raises(ProtocolError, match="cap"):
            FrameDecoder().feed(frame)

    def test_absurd_name_length_rejected(self):
        frame = FRAME_HEADER.pack(
            MAGIC, PROTOCOL_VERSION, FrameKind.NAME_DEF, 0, MAX_NAME_BYTES + 1
        )
        with pytest.raises(ProtocolError, match="cap"):
            FrameDecoder().feed(frame)

    def test_non_utf8_name_rejected(self):
        frame = FRAME_HEADER.pack(MAGIC, PROTOCOL_VERSION, FrameKind.NAME_DEF, 0, 2)
        with pytest.raises(ProtocolError, match="UTF-8"):
            FrameDecoder().feed(frame + b"\xff\xfe")

    def test_incomplete_header_pends(self):
        dec = FrameDecoder()
        assert dec.feed(encode_hello()[:5]) == []
        assert dec.pending == 5

    def test_decoded_columns_survive_buffer_compaction(self):
        """Column arrays must stay valid after the decoder's internal
        buffer is compacted by later feeds."""
        dec = FrameDecoder()
        times = np.arange(1000.0)
        first = dec.feed(encode_binary_samples(0, times, times))[0]
        snapshot = first.times.copy()
        for _ in range(200):  # push enough through to force compaction
            dec.feed(encode_binary_samples(0, times, times))
        np.testing.assert_array_equal(first.times, snapshot)


class TestWireNegotiation:
    def test_binary_first_byte_selects_binary(self):
        dec = WireDecoder()
        tuples, frames = dec.feed(encode_hello())
        assert dec.mode == "binary"
        assert tuples == [] and len(frames) == 1

    def test_text_first_byte_selects_text(self):
        dec = WireDecoder()
        tuples, frames = dec.feed(b"10 1 x\n")
        assert dec.mode == "text"
        assert frames == [] and len(tuples) == 1

    def test_one_byte_first_read_still_negotiates(self):
        dec = WireDecoder()
        wire = encode_name_def(0, "a") + encode_binary_samples(0, [1.0], [2.0])
        collected = []
        for i in range(len(wire)):
            _, frames = dec.feed(wire[i : i + 1])
            collected.extend(frames)
        assert dec.mode == "binary"
        assert [f.kind for f in collected] == [FrameKind.NAME_DEF, FrameKind.SAMPLES]

    def test_comment_led_text_stream_negotiates_text(self):
        dec = WireDecoder()
        tuples, _ = dec.feed(b"# header comment\n5 6 m\n")
        assert dec.mode == "text"
        assert [(t.time_ms, t.value) for t in tuples] == [(5.0, 6.0)]

    def test_empty_feed_leaves_mode_undecided(self):
        dec = WireDecoder()
        assert dec.feed(b"") == ([], [])
        assert dec.mode is None


class TestQueryFrames:
    """QUERY frames: the JSON continuous-query channel (v2-only)."""

    def test_round_trip(self):
        from repro.net.protocol import encode_query

        payload = {
            "op": "query",
            "id": "q7",
            "text": "s = ewma(a, $al)",
            "params": {"al": 0.9},
        }
        frames = FrameDecoder().feed(encode_query(payload))
        assert len(frames) == 1
        assert frames[0].kind is FrameKind.QUERY
        assert frames[0].control == payload

    def test_single_byte_fragmentation(self):
        from repro.net.protocol import encode_query

        wire = encode_query({"op": "subscribe", "id": "q0"}) + encode_query(
            {"op": "unsubscribe", "id": "q1"}
        )
        decoder = FrameDecoder()
        collected = []
        for i in range(len(wire)):
            collected.extend(decoder.feed(wire[i : i + 1]))
        assert [f.control["op"] for f in collected] == ["subscribe", "unsubscribe"]
        assert all(f.kind is FrameKind.QUERY for f in collected)

    def test_v1_query_frame_rejected(self):
        from repro.net.protocol import encode_query

        frame = bytearray(encode_query({"op": "subscribe", "id": "q0"}))
        frame[2] = 1  # rewrite the header's version byte to v1
        with pytest.raises(ProtocolError, match="require protocol version 2"):
            FrameDecoder().feed(bytes(frame))

    def test_non_json_payload_rejected(self):
        header = FRAME_HEADER.pack(MAGIC, 2, FrameKind.QUERY, 0, 4)
        with pytest.raises(ProtocolError, match="QUERY"):
            FrameDecoder().feed(header + b"\xff\xfe\xfd\xfc")

    def test_interleaves_with_sample_frames(self):
        from repro.net.protocol import encode_query

        wire = (
            encode_name_def(0, "a")
            + encode_query({"op": "query", "id": "q0", "text": "s = ewma(a, 0.5)"})
            + encode_binary_samples(0, [1.0, 2.0], [3.0, 4.0])
        )
        kinds = [f.kind for f in FrameDecoder().feed(wire)]
        assert kinds == [FrameKind.NAME_DEF, FrameKind.QUERY, FrameKind.SAMPLES]
