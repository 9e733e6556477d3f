"""Property-based tests for the WAL's framing and escaping layers.

Two claims the reliability subsystem rests on:

* ``_escape`` / ``_unescape`` form an exact inverse pair for *any* text
  (a journal line must survive tabs, newlines, and — the historical
  trap — literal backslash sequences like ``"\\n"`` in message bodies),
  so the message row ``encode_row`` / ``decode_row`` round-trips any
  user and text;
* the CRC32 framing detects every single-byte corruption, so a record
  that replays is provably the record that was written.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.message import decode_row, encode_row, parse_message
from repro.reliability.fsio import escape_field as _escape
from repro.reliability.fsio import frame_line as _frame
from repro.reliability.fsio import parse_framed
from repro.reliability.fsio import unescape_field as _unescape
from repro.storage.wal import MessageJournal, ReplayStats


def _parse_line(line):
    """A journal line by the journal's own rule: ``(seq, message,
    legacy)``, or ``None`` for damage."""
    record, legacy = parse_framed(line, MessageJournal.parse_payload,
                                  unframed=MessageJournal.unframed)
    return None if record is None else (*record, legacy)

texts = st.text(min_size=0, max_size=80)
#: Text biased toward the characters escaping actually touches,
#: including pre-escaped-looking sequences such as ``\n`` and ``\\t``.
tricky_texts = st.text(
    alphabet=st.sampled_from(list("ab\\nt\n\t\r")), min_size=0, max_size=40)


class TestEscapeRoundTrip:
    @given(text=texts)
    @settings(max_examples=200, deadline=None)
    def test_unescape_inverts_escape(self, text):
        assert _unescape(_escape(text)) == text

    @given(text=tricky_texts)
    @settings(max_examples=300, deadline=None)
    def test_round_trip_on_escape_dense_text(self, text):
        assert _unescape(_escape(text)) == text

    @given(user=st.text(min_size=1), text=st.text(),
           msg_id=st.integers(min_value=0, max_value=2**53),
           date=st.floats(min_value=0.0, max_value=4e9),
           event_id=st.none() | st.integers(min_value=0),
           parent_id=st.none() | st.integers(min_value=0))
    @settings(deadline=None)  # examples: the profile's (1500 under ci)
    def test_message_row_round_trips(self, user, text, msg_id, date,
                                     event_id, parent_id):
        """The one on-disk message row decodes to the message it
        encoded, whatever the user and the text hold."""
        message = parse_message(msg_id, user, date, text,
                                event_id=event_id, parent_id=parent_id)
        row = encode_row(message)
        assert len(row.split("\t")) == 6 and "\n" not in row
        assert decode_row(row) == message

    @given(text=texts)
    @settings(max_examples=200, deadline=None)
    def test_escaped_text_is_single_line(self, text):
        escaped = _escape(text)
        assert "\n" not in escaped
        assert "\t" not in escaped
        assert "\r" not in escaped

    @given(text=tricky_texts)
    @settings(max_examples=200, deadline=None)
    def test_journal_record_round_trips_text(self, text, tmp_path_factory):
        """The full append → replay path preserves the message verbatim."""
        from dataclasses import replace

        path = tmp_path_factory.mktemp("wal") / "round.wal"
        message = replace(parse_message(1, "prop", 0.0, "placeholder"),
                          text=text)
        with MessageJournal(path, sync_every=1) as journal:
            journal.append(message)
        replayed = list(MessageJournal.replay_entries(path))
        assert len(replayed) == 1
        assert replayed[0][1].text == text


class TestCrcFraming:
    @given(payload=st.text(
        alphabet=st.characters(blacklist_characters="\n\r",
                               blacklist_categories=("Cs",)),
        min_size=1, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_intact_frame_parses(self, payload):
        framed = _frame(f"7\t1\tprop\t0.0\t\t\t{_escape(payload)}")
        parsed = _parse_line(framed)
        assert parsed is not None
        seq, message, legacy = parsed
        assert seq == 7 and not legacy
        assert message.text == payload

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_any_single_byte_corruption_is_rejected(self, data):
        """Flip one byte anywhere in a framed record: it must not parse
        back to a *different* record — either the CRC rejects it, or the
        line is no longer attributable to this seq."""
        text = data.draw(st.text(alphabet="abc#xyz ", min_size=1,
                                 max_size=30), label="text")
        line = _frame(f"3\t11\tprop\t42.0\t\t\t{_escape(text)}")
        raw = bytearray(line.encode("utf-8"))
        position = data.draw(st.integers(min_value=0,
                                         max_value=len(raw) - 1),
                             label="position")
        delta = data.draw(st.integers(min_value=1, max_value=255),
                          label="delta")
        raw[position] = (raw[position] + delta) % 256
        try:
            mutated = raw.decode("utf-8")
        except UnicodeDecodeError:
            return  # undecodable lines never reach _parse_line intact
        if "\n" in mutated or "\r" in mutated:
            return  # a line break splits the record: neither half has
            #         a valid CRC over its remaining payload
        parsed = _parse_line(mutated)
        if parsed is None:
            return  # detected — the expected outcome
        seq, message, legacy = parsed
        # The only undetectable mutations are those the framing is not
        # *supposed* to catch: a corrupted line that happens to look like
        # a (CRC-less) legacy v0 record.  A CRC-framed parse must match
        # the original exactly.
        if not legacy:
            assert seq == 3
            assert message.msg_id == 11
            assert message.text == text

    @given(count=st.integers(min_value=1, max_value=12),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_replay_after_corruption_yields_subset(self, count, data,
                                                   tmp_path_factory):
        """Corrupt one byte of a journal: every surviving replayed record
        must be one of the originals, bit-for-bit."""
        path = tmp_path_factory.mktemp("wal") / "corrupt.wal"
        originals = [parse_message(i, f"u{i % 3}", float(i), f"body {i} #t")
                     for i in range(count)]
        with MessageJournal(path, sync_every=1) as journal:
            for message in originals:
                journal.append(message)
        raw = bytearray(path.read_bytes())
        position = data.draw(st.integers(min_value=0,
                                         max_value=len(raw) - 1),
                             label="position")
        delta = data.draw(st.integers(min_value=1, max_value=255),
                          label="delta")
        raw[position] = (raw[position] + delta) % 256
        path.write_bytes(bytes(raw))

        by_id = {message.msg_id: message for message in originals}
        stats = ReplayStats()
        for _, replayed in MessageJournal.replay_entries(path, stats=stats):
            original = by_id.get(replayed.msg_id)
            assert original is not None, "replay invented a message id"
            assert replayed == original, "replay returned a mutated record"
        assert stats.records + stats.skipped_corrupt >= count - 1
