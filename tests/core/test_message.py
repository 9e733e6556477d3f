"""Tests for the message model and entity extraction (Definition 1)."""

from __future__ import annotations

import gc
import pickle
import tracemalloc

import pytest

from repro.core.errors import MessageError
from repro.core.message import (NO_INDICANTS, Message, extract_hashtags,
                                extract_mentions, extract_rt_users,
                                extract_urls, parse_message, strip_entities)
from tests.conftest import BASE_DATE, make_message


class TestExtractHashtags:
    def test_simple_hashtag(self):
        assert extract_hashtags("go #redsox") == frozenset({"redsox"})

    def test_multiple_hashtags(self):
        tags = extract_hashtags("#Yankee beats #redsox tonight #MLB")
        assert tags == frozenset({"yankee", "redsox", "mlb"})

    def test_hashtags_are_lowercased(self):
        assert extract_hashtags("#RedSox") == frozenset({"redsox"})

    def test_no_hashtags(self):
        assert extract_hashtags("plain text message") == frozenset()

    def test_hash_alone_is_not_a_tag(self):
        assert extract_hashtags("number # 42") == frozenset()

    def test_numeric_and_underscore_tags(self):
        assert extract_hashtags("#h1n1 #swine_flu") == frozenset(
            {"h1n1", "swine_flu"})

    def test_duplicate_tags_deduplicated(self):
        assert extract_hashtags("#a #a #a") == frozenset({"a"})


class TestExtractUrls:
    def test_http_url(self):
        assert extract_urls("see http://example.com/page") == frozenset(
            {"example.com/page"})

    def test_https_prefix_stripped(self):
        assert extract_urls("https://Example.com/Page") == frozenset(
            {"example.com/Page"})

    def test_bare_shortener(self):
        assert extract_urls("photos bit.ly/Uvcpr here") == frozenset(
            {"bit.ly/Uvcpr"})

    def test_shortener_with_scheme_equals_bare(self):
        with_scheme = extract_urls("http://bit.ly/abc")
        bare = extract_urls("bit.ly/abc")
        assert with_scheme == bare

    def test_trailing_punctuation_stripped(self):
        assert extract_urls("look: http://ow.ly/kq3!") == frozenset(
            {"ow.ly/kq3"})

    def test_host_lowercased_path_preserved(self):
        urls = extract_urls("http://TwitPic.com/AbC")
        assert urls == frozenset({"twitpic.com/AbC"})

    def test_no_urls(self):
        assert extract_urls("nothing to see") == frozenset()

    def test_multiple_urls(self):
        urls = extract_urls("a http://x.com/1 b is.gd/2")
        assert urls == frozenset({"x.com/1", "is.gd/2"})


class TestExtractRtUsers:
    def test_single_rt(self):
        assert extract_rt_users("RT @MLB: some news") == ("mlb",)

    def test_rt_chain_order(self):
        text = "WHEW!! RT @MLB: RT @IanMBrowne X-rays negative"
        assert extract_rt_users(text) == ("mlb", "ianmbrowne")

    def test_rt_without_colon(self):
        assert extract_rt_users("RT @someone hello") == ("someone",)

    def test_rt_case_insensitive_marker(self):
        assert extract_rt_users("rt @User: hi") == ("user",)

    def test_no_rt(self):
        assert extract_rt_users("just mentioning @user") == ()

    def test_rt_must_be_word_boundary(self):
        assert extract_rt_users("START @user") == ()


class TestExtractMentions:
    def test_mentions_include_rt_targets(self):
        assert extract_mentions("hi @Bob RT @Alice: yo") == frozenset(
            {"bob", "alice"})

    def test_no_mentions(self):
        assert extract_mentions("nothing here") == frozenset()


class TestStripEntities:
    def test_strips_urls(self):
        assert "http" not in strip_entities("see http://x.com/abc now")

    def test_strips_rt_markers(self):
        text = strip_entities("ok RT @user: the news")
        assert "RT" not in text
        assert "@user" not in text

    def test_keeps_hashtag_words(self):
        assert strip_entities("go #redsox go") == "go redsox go"

    def test_collapses_whitespace(self):
        assert strip_entities("a    b\t c") == "a b c"


class TestMessage:
    def test_parse_populates_entities(self):
        message = parse_message(
            1, "Abcdude", BASE_DATE,
            "Classy RT @Amalie: ovation #redsox http://bit.ly/x")
        assert message.user == "abcdude"
        assert message.hashtags == frozenset({"redsox"})
        assert message.urls == frozenset({"bit.ly/x"})
        assert message.rt_users == ("amalie",)

    def test_is_retweet(self):
        assert make_message(1, "RT @a: hi").is_retweet
        assert not make_message(2, "original post").is_retweet

    def test_rt_source_is_first_in_chain(self):
        message = make_message(1, "RT @outer: RT @inner: hi")
        assert message.rt_source == "outer"

    def test_rt_source_none_for_original(self):
        assert make_message(1, "plain").rt_source is None

    def test_plain_text(self):
        message = make_message(1, "go #redsox http://bit.ly/x RT @a: ok")
        plain = message.plain_text()
        assert "#" not in plain and "http" not in plain and "RT" not in plain

    def test_sort_key_orders_by_date_then_id(self):
        early = make_message(5, "a", hours=0.0)
        late = make_message(1, "b", hours=1.0)
        assert early.sort_key() < late.sort_key()
        same_time_low_id = make_message(1, "c", hours=0.0)
        assert same_time_low_id.sort_key() < early.sort_key()

    def test_negative_msg_id_rejected(self):
        with pytest.raises(MessageError):
            Message(msg_id=-1, user="u", date=0.0, text="x")

    def test_empty_user_rejected(self):
        with pytest.raises(MessageError):
            Message(msg_id=0, user="", date=0.0, text="x")

    def test_negative_date_rejected(self):
        with pytest.raises(MessageError):
            Message(msg_id=0, user="u", date=-1.0, text="x")

    def test_messages_are_hashable_value_objects(self):
        a = make_message(1, "same text")
        b = make_message(1, "same text")
        assert a == b
        assert hash(a) == hash(b)

    def test_ground_truth_labels_default_to_none(self):
        message = make_message(1, "x")
        assert message.event_id is None
        assert message.parent_id is None

    def test_ground_truth_labels_carried(self):
        message = make_message(1, "x", event_id=9, parent_id=0)
        assert message.event_id == 9
        assert message.parent_id == 0


class TestResidentBytes:
    """A parsed message keeps no private empty set, and nothing it parses
    outlives it."""

    def test_one_empty_indicant_set(self):
        bare = Message(msg_id=0, user="u", date=0.0, text="x")
        parsed = make_message(1, "plain words only")
        empties = [extract_hashtags("plain"), extract_urls("plain"),
                   bare.hashtags, bare.urls, parsed.hashtags, parsed.urls]
        assert all(empty is NO_INDICANTS for empty in empties)
        assert NO_INDICANTS == frozenset()

    def test_distinct_names_are_freed_with_their_messages(self):
        # A hostile stream of never-repeated user, hashtag and RT names
        # must not grow memory for good: names interned with sys.intern
        # are immortal on CPython 3.12 and stay resident after eviction.
        def parse(start: int) -> list[Message]:
            return [make_message(index, f"RT @Source{index}: #Tag{index} news",
                                 user=f"User{index}")
                    for index in range(start, start + 5000)]

        # The bounded caches keep their last SHARED_VALUES entries, so
        # the base is taken with them full of a traced first batch; the
        # second batch's names must then displace those, not add to them.
        # An unbounded cache keeps all 5 000 of each batch's names.
        parse(0)  # warm the regex caches
        gc.collect()
        tracemalloc.start()
        try:
            parse(10_000)
            gc.collect()
            base = tracemalloc.get_traced_memory()[0]
            batch = parse(20_000)
            held = tracemalloc.get_traced_memory()[0] - base
            del batch
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert held > 1_000_000
        assert kept < held * 0.02

    def test_pickled_batch_shares_one_empty_set(self):
        # The fleet ships arrivals to its workers as pickled batches.
        batch = [make_message(index, f"plain words {index}",
                              user=f"user{index % 7}")
                 for index in range(128)]
        shipped = pickle.loads(pickle.dumps(batch))
        assert shipped == batch
        empties = {id(message.hashtags) for message in shipped}
        empties |= {id(message.urls) for message in shipped}
        assert len(empties) == 1

    def test_separately_pickled_batches_share_values(self):
        # pickle's memo shares objects within one batch only; the fleet
        # ships each batch separately.
        def batch(start: int) -> list[Message]:
            return [make_message(index, "RT @Fan: #RedSox #MLB win "
                                 "http://bit.ly/AbC", user="Fan")
                    for index in range(start, start + 4)]

        first, second = batch(0), batch(4)
        shipped = [pickle.loads(pickle.dumps(first)),
                   pickle.loads(pickle.dumps(second))]
        assert shipped == [first, second]
        one, other = shipped[0][0], shipped[1][-1]
        assert one.hashtags is other.hashtags
        assert one.urls is other.urls
        assert one.rt_users is other.rt_users
        assert one.user is other.user
        assert list(one.hashtags) == list(first[0].hashtags)
