"""Robustness: corrupted migration payloads must fail controlled.

A migration receiver faces untrusted bytes; random corruption must
surface as a typed error (wire/restore/memory/checkpoint error classes),
never as an unhandled crash, an infinite loop, or — worst — a silently
corrupted process that resumes with wrong data *and* no exception while
claiming success.  The property tests flip/truncate/duplicate bytes and
check the restorer either rejects the payload or produces a process
whose observable behaviour is checked.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import DEC5000, SPARC20
from repro.migration.engine import (
    MigrationError,
    collect_state,
    restore_state,
    restore_state_stream,
)
from repro.msr.collect import Collector
from repro.msr.msrlt import MSRLTError
from repro.msr.restore import RestoreError
from repro.msr.wire import (
    FLAG_FLAT,
    ChunkDecoder,
    WireFrameError,
    encode_chunk,
    encode_end_of_stream,
)
from repro.vm.memory import MemoryFault
from repro.vm.process import Process
from repro.vm.program import compile_program
from repro.workloads import hashtable_source, structgrid_source

PROGRAM = """
struct link { int v; struct link *next; };
struct link *chain;
double numbers[8];
int main() {
    int i;
    for (i = 0; i < 6; i++) {
        struct link *e = (struct link *) malloc(sizeof(struct link));
        e->v = i; e->next = chain; chain = e;
        numbers[i] = i * 1.5;
    }
    migrate_here();
    { int s = 0; struct link *p;
      for (p = chain; p != NULL; p = p->next) s += p->v;
      printf("%d %.1f", s, numbers[5]); }
    return 0;
}
"""

_PROG = compile_program(PROGRAM, poll_strategy="user")

#: every exception class a malformed payload may legitimately raise
CONTROLLED = (
    MigrationError,
    RestoreError,
    MSRLTError,
    MemoryFault,
    ValueError,
    EOFError,
    KeyError,
    IndexError,
    OverflowError,
    UnicodeDecodeError,
)


def _payload() -> bytes:
    proc = Process(_PROG, DEC5000)
    proc.start()
    proc.migration_pending = True
    assert proc.run().status == "poll"
    payload, _ = collect_state(proc)
    return payload


_PAYLOAD = _payload()


def _try_restore(data: bytes):
    dest = Process(_PROG, SPARC20)
    restore_state(_PROG, data, dest)
    return dest


class TestCorruption:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=len(_PAYLOAD) - 1),
        st.integers(min_value=1, max_value=255),
    )
    def test_single_byte_flip_is_controlled(self, pos, xor):
        data = bytearray(_PAYLOAD)
        data[pos] ^= xor
        try:
            dest = _try_restore(bytes(data))
        except CONTROLLED:
            return  # rejected: good
        # accepted: the flip hit pure data (a tag value, a float byte…);
        # the process must still run to completion or fail controlled
        try:
            dest.run(max_steps=200_000)
        except CONTROLLED:
            pass

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=len(_PAYLOAD) - 1))
    def test_truncation_is_controlled(self, cut):
        with pytest.raises(CONTROLLED):
            _try_restore(_PAYLOAD[:cut])

    @settings(max_examples=15, deadline=None)
    @given(st.binary(min_size=1, max_size=64))
    def test_appended_garbage_rejected(self, tail):
        with pytest.raises(CONTROLLED):
            _try_restore(_PAYLOAD + tail)

    @settings(max_examples=15, deadline=None)
    @given(st.binary(min_size=0, max_size=300))
    def test_random_bytes_rejected(self, blob):
        with pytest.raises(CONTROLLED):
            _try_restore(blob)

    def test_pristine_payload_still_works(self):
        """Guard for the fixture itself."""
        dest = _try_restore(_PAYLOAD)
        dest.run()
        assert dest.stdout == "15 7.5"


# -- streamed chunk-frame corruption -----------------------------------------

_CHUNK = 97  # deliberately odd so records straddle chunk boundaries


def _frames() -> list[bytes]:
    """The payload as a pristine framed chunk stream (incl. terminator)."""
    chunks = [_PAYLOAD[i : i + _CHUNK] for i in range(0, len(_PAYLOAD), _CHUNK)]
    frames = [encode_chunk(seq, c) for seq, c in enumerate(chunks)]
    frames.append(encode_end_of_stream(len(chunks)))
    return frames


def _try_stream_restore(frames):
    """Decode frames exactly the way a channel receiver does, feeding the
    surviving payloads into an incremental restore."""
    decoder = ChunkDecoder()

    def payloads():
        for frame in frames:
            chunk = decoder.decode(frame)
            if chunk is None:
                return
            yield chunk

    dest = Process(_PROG, SPARC20)
    restore_state_stream(_PROG, payloads(), dest)
    return dest


class TestContentsFlags:
    """A block record's flags byte must be exactly ``FLAG_FLAT`` for a
    flat destination type and 0 otherwise; anything else is a typed
    ``RestoreError`` before a single contents byte is read."""

    @pytest.mark.parametrize(
        "source, polls, labels",
        [
            (
                structgrid_source(64, 24), 12,
                {"struct probe", "struct probe *", "struct cell * [24]"},
            ),
            (hashtable_source(120), 60, {"struct entry"}),
        ],
        ids=["structgrid", "hashtable"],
    )
    def test_flat_flag_on_non_flat_record_rejected(self, source, polls, labels):
        prog = compile_program(source, poll_strategy="user")
        proc = Process(prog, DEC5000)
        proc.start()
        proc.migration_pending = True
        proc.migrate_after_polls = polls
        assert proc.run().status == "poll"

        flags_at = []

        class Recording(Collector):
            def _save_contents(self, block, info):
                if info.flat_kind is None:
                    flags_at.append((self.buf.nbytes, info.label))
                return super()._save_contents(block, info)

        # with the plans off every record passes through _save_contents;
        # the payload is byte-identical either way
        proc.ti.plans_enabled = False
        try:
            recorded, _ = collect_state(proc, collector_factory=Recording)
        finally:
            proc.ti.plans_enabled = True
        payload, _ = collect_state(proc)
        assert payload == recorded
        assert labels <= {label for _, label in flags_at}

        for pos, label in flags_at:
            assert payload[pos] == 0, label
            bad = bytearray(payload)
            bad[pos] = FLAG_FLAT
            with pytest.raises(RestoreError, match="flags"):
                restore_state(prog, bytes(bad), Process(prog, SPARC20))


class TestStreamCorruption:
    """Mid-stream damage must surface as the typed wire-frame errors —
    the CRC/seq framing catches what a monolithic receiver cannot."""

    def test_pristine_stream_still_works(self):
        dest = _try_stream_restore(_frames())
        dest.run()
        assert dest.stdout == "15 7.5"

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_frame_bit_flip_rejected_typed(self, data):
        """Any single-bit flip anywhere in any frame is caught by the
        framing layer itself (magic, seq, length, or CRC check)."""
        frames = _frames()
        idx = data.draw(st.integers(min_value=0, max_value=len(frames) - 1))
        frame = bytearray(frames[idx])
        pos = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        frame[pos] ^= 1 << data.draw(st.integers(min_value=0, max_value=7))
        frames[idx] = bytes(frame)
        with pytest.raises(WireFrameError):
            _try_stream_restore(frames)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_frame_truncation_rejected(self, data):
        """A frame cut short mid-wire (crashed sender) fails typed."""
        frames = _frames()
        idx = data.draw(st.integers(min_value=0, max_value=len(frames) - 2))
        cut = data.draw(st.integers(min_value=0, max_value=len(frames[idx]) - 1))
        truncated = frames[:idx] + [frames[idx][:cut]]
        with pytest.raises((WireFrameError, EOFError, MigrationError)):
            _try_stream_restore(truncated)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_frame_reordering_rejected(self, data):
        frames = _frames()
        i = data.draw(st.integers(min_value=0, max_value=len(frames) - 2))
        j = data.draw(
            st.integers(min_value=0, max_value=len(frames) - 2).filter(
                lambda x: x != i
            )
        )
        frames[i], frames[j] = frames[j], frames[i]
        with pytest.raises(WireFrameError):
            _try_stream_restore(frames)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_frame_duplication_rejected(self, seed):
        frames = _frames()
        idx = seed % (len(frames) - 1)
        frames.insert(idx, frames[idx])
        with pytest.raises(WireFrameError):
            _try_stream_restore(frames)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_frame_drop_rejected(self, seed):
        frames = _frames()
        del frames[seed % (len(frames) - 1)]
        with pytest.raises((WireFrameError, EOFError, MigrationError)):
            _try_stream_restore(frames)

    def test_missing_terminator_is_truncation(self):
        """A stream that just stops (no end-of-stream frame) restores
        everything — the *transport* is what notices the missing
        terminator; the payload itself is complete and consistent."""
        dest = _try_stream_restore(_frames()[:-1])
        dest.run()
        assert dest.stdout == "15 7.5"
